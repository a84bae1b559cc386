"""perfbench's workloads, replayed against the program.

Every group of the adversarial_quadratic and softmax_minibatch mixes must
give, for every pool seed, the iterate history whose SHA-256
perfbench/digests.json records, and every cell of closed_form_verify's
criterion-5 sweep the metric whose float.hex it records, so a change that
moves one bit of such a run fails here as it would fail the benchmark's
correctness gate. Every config the run mixes build must load without a
warning.
perfbench/workloads.py and digests.json are loaded from perfbench/ (as
test_tracer_sites.py loads them) and never written.
"""

import csv

import pytest

import robustsgd.trainer as trainer
from robustsgd.cli import main
from robustsgd.configfile import materialize, parse_config_text, resolve
from test_tracer_sites import workloads

REPLAYED = [(mix, g[0]) for mix in (workloads.ADVERSARIAL, workloads.SOFTMAX)
            for g in mix.groups]


@pytest.mark.parametrize("mix, label", REPLAYED,
                         ids=[f"{mix.name}:{label}" for mix, label in REPLAYED])
def test_runs_reproduce_recorded_digests(mix, label):
    recorded = workloads.load_digests()[mix.name]
    assert recorded["T"] == mix.T
    got = {str(k): workloads.xs_digest(trainer.run(workloads._config(mix.text(label, k))).xs)
           for k in range(workloads.POOL)}
    assert got == recorded["runs"][label]


def test_sweep_cells_reproduce_recorded_metrics(tmp_path, capsys):
    recorded = workloads.load_digests()["closed_form_verify"]
    T = workloads.ClosedForm.T
    assert recorded["T"] == T
    path = tmp_path / "sweep.cfg"
    path.write_text(workloads.SWEEP_TEXT.format(T=T, seed=0))
    assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "cells.csv", newline="", encoding="utf-8") as fh:
        got = {c["index"]: float(c["metric"]).hex() for c in csv.DictReader(fh)}
    assert len(got) == workloads.SWEEP_CELLS
    assert got == recorded["cells"]


@pytest.mark.parametrize("mix", [workloads.ADVERSARIAL, workloads.SOFTMAX],
                         ids=lambda mix: mix.name)
def test_run_mix_configs_load_without_warnings(mix):
    for label, _, _ in mix.groups:
        loaded = materialize(resolve(parse_config_text(mix.text(label, 0))))
        assert loaded.warnings == [], label
