"""perfbench's workloads, replayed against the program.

The geometric-median groups of the adversarial_quadratic mix and every group
of the softmax_minibatch mix must give, for every pool seed, the iterate
history whose SHA-256 perfbench/digests.json records, so a change that moves
one bit of such a run fails here as it would fail the benchmark's
correctness gate. Every config the run mixes build must load without a
warning. perfbench/workloads.py and digests.json are loaded from perfbench/
(as test_tracer_sites.py loads them) and never written.
"""

import pytest

import robustsgd.trainer as trainer
from robustsgd.configfile import materialize, parse_config_text, resolve
from test_tracer_sites import workloads

REPLAYED = ([(workloads.ADVERSARIAL, label) for label in ("gm+alie", "gm+sign_flip")]
            + [(workloads.SOFTMAX, g[0]) for g in workloads.SOFTMAX.groups])


@pytest.mark.parametrize("mix, label", REPLAYED,
                         ids=[f"{mix.name}:{label}" for mix, label in REPLAYED])
def test_runs_reproduce_recorded_digests(mix, label):
    recorded = workloads.load_digests()[mix.name]
    assert recorded["T"] == mix.T
    got = {str(k): workloads.xs_digest(trainer.run(workloads._config(mix.text(label, k))).xs)
           for k in range(workloads.POOL)}
    assert got == recorded["runs"][label]


@pytest.mark.parametrize("mix", [workloads.ADVERSARIAL, workloads.SOFTMAX],
                         ids=lambda mix: mix.name)
def test_run_mix_configs_load_without_warnings(mix):
    for label, _, _ in mix.groups:
        loaded = materialize(resolve(parse_config_text(mix.text(label, 0))))
        assert loaded.warnings == [], label
