"""Every layer perfbench's tracer measures still has a name to wrap.

perfbench/tracing.py patches functions at the names their callers look up.
A site that no longer resolves reads `null` in a traced benchmark result,
and the run still exits 0, so nothing else notices. The tracer needs only
the standard library; it is loaded from its file and never modified.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("metric", sorted(tracing.SITES))
def test_every_metric_resolves_at_least_one_site(metric):
    sites, _ = tracing.SITES[metric]
    found = [site for site in sites if tracing._resolve(*site) is not None]
    assert found, f"{metric}: none of {sites} resolves"


def test_trainer_binds_every_loop_site():
    # the loop's own callees are patched in robustsgd.trainer alone
    for name in ("run", "schedules", "stochastic_gradient", "alie", "sign_flip",
                 "_byzantine_honest_style", "aggregate"):
        assert tracing._resolve("robustsgd.trainer", name) is not None, name
