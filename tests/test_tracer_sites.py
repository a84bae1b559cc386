"""Every layer perfbench's tracer measures still has a name to wrap.

perfbench/tracing.py patches functions at the names their callers look up,
and perfbench/workloads.py times the closed-form workload at the run and
schedule sites it lists. A site that no longer resolves reads `null` in a
traced benchmark result, and the run still exits 0, so nothing else
notices. Both files are loaded from perfbench/ and never modified.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import robustsgd.trainer as trainer
from robustsgd.aggregators import AggregatorSpec
from robustsgd.attacks import AttackSpec
from robustsgd.core import DenseVector, RngStream, RunConfig
from robustsgd.problems import build_classification_task, build_random_quadratic_family

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    sys.path.insert(0, str(PERFBENCH))  # workloads imports its siblings by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


tracing = _load("tracing")
workloads = _load("workloads")


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


@pytest.mark.parametrize("site", workloads.RUN_SITES + workloads.STEP_SITES)
def test_closed_form_timer_sites_resolve(site):
    assert tracing._resolve(*site) is not None, site


def test_verify_check_hook_resolves():
    assert tracing._resolve("robustsgd.verify", "_timed") is not None


def test_run_takes_the_config_first():
    # the tracer counts steps from args[0].T, the closed-form timer reads config.T
    first = next(iter(inspect.signature(trainer.run).parameters.values()))
    assert first.name == "config" and first.annotation == "RunConfig"
    assert first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_traced_lyapunov_run_counts_its_steps():
    inst = build_random_quadratic_family(n=4, d=2, rng=RngStream(1, 0, "t"),
                                         shared_curvature=True)
    sched = trainer.ScheduleSpec(gamma0=0.5 / (36.0 * inst.analytic.L),
                                 momentum="tied", c_beta=36.0)
    cfg = RunConfig(problem=inst, aggregator=AggregatorSpec(rule="average", n=4),
                    attack=AttackSpec(), schedule=sched, T=7, x0=DenseVector([1.0, -1.0]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        trainer.track_lyapunov(cfg, kappa=0.05)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.calls["trainer.run"] == 1 and tracer.steps == 7
    assert tracer.calls["trainer.schedules"] >= 7


def _traced(cfg):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        trainer.run(cfg)
    finally:
        tracer.uninstall()
    return tracer


def test_traced_classification_run_counts_its_steps():
    inst = build_classification_task(n_workers=5, b=1, n_classes=3, dim=2,
                                     samples_per_class=6, minibatch=2)
    cfg = RunConfig(problem=inst, aggregator=AggregatorSpec(rule="cwm", n=5, b=1),
                    attack=AttackSpec(kind="label_flip", byzantine_ids=inst.pop.byzantine_ids),
                    schedule=trainer.ScheduleSpec(gamma0=0.05), T=6,
                    x0=DenseVector(np.zeros(inst.dim)))
    tracer = _traced(cfg)
    assert tracer.missing == []
    assert tracer.steps == 6
    # the Byzantine rows take the honest rows' softmax pass, which the
    # tracer does not wrap
    assert tracer.calls["attacks.byzantine_oracle"] == 0


def test_traced_alie_quadratic_run_counts_its_steps():
    inst = build_random_quadratic_family(n=6, d=3, rng=RngStream(2, 0, "t"), b=1)
    cfg = RunConfig(problem=inst, aggregator=AggregatorSpec(rule="cwtm", n=6, b=1, q=1),
                    attack=AttackSpec(kind="alie", byzantine_ids=inst.pop.byzantine_ids),
                    schedule=trainer.ScheduleSpec(gamma0=0.05), T=5,
                    x0=DenseVector(np.ones(3)))
    tracer = _traced(cfg)
    assert tracer.missing == []
    assert tracer.steps == 5
    assert tracer.calls["attacks.alie"] == 5
