import csv
import json
import math
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from robustsgd.aggregators import RobustnessEstimate
from robustsgd import configfile
from robustsgd.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY, main
from robustsgd.configfile import (
    load_run_config,
    materialize,
    parse_config_text,
    render_config,
    resolve,
)
from robustsgd.core import ConfigurationError
from robustsgd.problems import NoiseModel
from robustsgd.sweep import (
    SweepCell,
    SweepResult,
    SweepSpec,
    cell_kv,
    cell_seed,
    load_sweep,
    run_cell,
    run_sweep,
)
from robustsgd.trainer import run
from test_tracer_sites import workloads  # perfbench/workloads.py, loaded from perfbench/


def _write(path, text):
    path.write_text(text)
    return str(path)


MINIMAL = "run.T = 50\n"

NOISY_RUN = """\
# hetero family with additive gaussian noise
problem.kind = hetero
problem.noise = gaussian
problem.sigma = 0.3
schedule.gamma0 = 0.05
run.T = 50
run.seed = 11
"""

SWEEP = """\
problem.kind = synthetic
problem.n = 20
problem.k = 7
problem.a = 1.0
problem.G = 1.0
aggregator.rule = oracle_adversarial
aggregator.variant = variance_sign
aggregator.kappa = 0.1
schedule.gamma0 = 0.2
run.T = 900
run.seed = 5
sweep.metric = floor_estimate
sweep.B_sq = 0.0,0.25
sweep.kappa = 0.05,0.1
"""

# a noisy random-quadratic base: the seed a sweep cell derives decides its result
NOISY_QUADRATIC = """\
problem.kind = random_quadratic
problem.n = 5
problem.d = 2
problem.noise = gaussian
problem.sigma = 0.5
schedule.gamma0 = 0.01
run.T = 60
run.seed = 3
"""


def _plain(seed, overrides):
    """The RunConfig of NOISY_QUADRATIC with run.seed = seed and the raw key
    values `overrides`, built as a plain run config, without the sweep."""
    raw = {**parse_config_text(NOISY_QUADRATIC), **overrides, "run.seed": str(seed)}
    return materialize(resolve(raw)).config


# a random-quadratic instance every rule accepts, for the unread-key warnings
UNREAD_KEYS = """\
problem.kind = random_quadratic
problem.n = 6
problem.b = 1
problem.d = 2
aggregator.b = 1
run.T = 5
"""

# the lines of a run with tied momentum, whose kappa*B^2 warning reads a
# kappa key where the instance declares B
TIED = "schedule.momentum = tied\nschedule.gamma0 = 0.01\n"


# ---- config file parsing -----------------------------------------------------


class TestConfigParsing:
    def test_minimal_config_uses_defaults(self, tmp_path):
        loaded = load_run_config(_write(tmp_path / "c.cfg", MINIMAL))
        assert loaded.config.T == 50
        assert loaded.config.aggregator.rule == "average"
        assert loaded.kv["problem.kind"] == "hetero"
        assert loaded.kv["schedule.gamma0"] == 0.1  # effective default echoed

    def test_comments_and_blanks_ignored(self):
        kv = parse_config_text("# a comment\n\nrun.T = 9  # trailing\n")
        assert kv == {"run.T": "9"}

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigurationError, match="line 2: unknown config key 'run.t'"):
            parse_config_text("run.T = 5\nrun.t = 5\n")

    def test_duplicate_key_with_line_number(self):
        with pytest.raises(ConfigurationError, match="line 3: duplicate config key"):
            parse_config_text("run.T = 5\n# x\nrun.T = 6\n")

    def test_missing_separator(self):
        with pytest.raises(ConfigurationError, match="expected 'key = value'"):
            parse_config_text("run.T 5\n")

    def test_type_errors_name_key_and_expectation(self):
        with pytest.raises(ConfigurationError, match="'run.T': expected int, got 'ten'"):
            resolve(parse_config_text("run.T = ten\n"))
        with pytest.raises(ConfigurationError, match="expected float"):
            resolve(parse_config_text("problem.mu = nan\n"))
        with pytest.raises(ConfigurationError, match="expected bool"):
            resolve(parse_config_text("problem.shared_curvature = maybe\n"))

    def test_too_many_byzantine_rejected(self, tmp_path):
        # the hetero instance has n = 2 workers, so b = 1 violates b < n/2
        path = _write(tmp_path / "c.cfg", "aggregator.b = 1\n")
        with pytest.raises(ConfigurationError, match="0 <= b < n/2"):
            load_run_config(path)

    def test_tied_momentum_step_bound_rejected_eagerly(self, tmp_path):
        path = _write(
            tmp_path / "c.cfg",
            "schedule.momentum = tied\nschedule.gamma0 = 0.05\n",
        )
        with pytest.raises(ConfigurationError, match="gamma_t \\* L <= 1/c_beta"):
            load_run_config(path)

    def test_a_cosine_step_past_the_tied_bound_exits_at_load(self, tmp_path, capsys):
        # gamma_1 * L = 0.0274 passes 1/36, but cosine climbs back to gamma0
        # at t = 2*T_max = 20, where gamma0 * L = 0.0281 does not
        path = _write(tmp_path / "c.cfg", "schedule.stepsize = cosine\nschedule.T_max = 10\n"
                      "schedule.momentum = tied\nschedule.gamma0 = 0.0196\nrun.T = 25\n")
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == EXIT_CONFIG
        assert "got gamma_t * L = 0.028087 at t = 20" in capsys.readouterr().err
        assert not out.exists()

    def test_x0_dimension_message(self, tmp_path):
        path = _write(tmp_path / "c.cfg", "problem.d = 3\nrun.x0 = 1.0,2.0\n")
        with pytest.raises(ConfigurationError, match="'run.x0': got 2 components"):
            load_run_config(path)

    def test_render_round_trips(self, tmp_path):
        loaded = load_run_config(_write(tmp_path / "c.cfg", NOISY_RUN))
        echoed = resolve(parse_config_text(render_config(loaded.kv)))
        assert echoed == loaded.kv

    def test_momentum_warning_surfaces(self, tmp_path):
        text = (
            "problem.kappa = 0.5\nproblem.B = 1.0\n"
            "schedule.momentum = tied\nschedule.gamma0 = 0.001\n"
        )
        loaded = load_run_config(_write(tmp_path / "c.cfg", text))
        assert any("1/56" in w for w in loaded.warnings)

    @pytest.mark.parametrize("rule,attack,keys", [
        ("cwm", "none", ["aggregator.q", "aggregator.iters", "aggregator.nu",
                         "aggregator.variant", "attack.alphas"]),
        ("cwtm", "sign_flip", ["aggregator.iters", "aggregator.nu", "aggregator.variant",
                               "attack.alphas"]),
        ("gm", "alie", ["aggregator.q", "aggregator.variant"]),
        ("multi_krum", "alie", ["aggregator.iters", "aggregator.nu", "aggregator.variant"]),
    ])
    def test_unread_keys_warn(self, tmp_path, rule, attack, keys):
        text = (UNREAD_KEYS + f"aggregator.rule = {rule}\nattack.kind = {attack}\n"
                "aggregator.q = 2\naggregator.iters = 7\naggregator.nu = 3\n"
                "aggregator.variant = variance_sign\nattack.alphas = 5\n")
        loaded = load_run_config(_write(tmp_path / "c.cfg", text))
        assert [w.split("'")[1] for w in loaded.warnings] == keys
        assert all("is ignored" in w for w in loaded.warnings)

    @pytest.mark.parametrize("rule", ["average", "krum", "cwm", "gm"])
    def test_default_values_do_not_warn(self, tmp_path, rule):
        text = (UNREAD_KEYS + f"aggregator.rule = {rule}\naggregator.iters = 50\n"
                "aggregator.nu = 1e-8\nattack.alphas = -2, -1, -0.5, 0.5, 1, 2\n")
        assert load_run_config(_write(tmp_path / "c.cfg", text)).warnings == []

    # key, a value away from its default, the lines of a schedule that reads
    # it, and its default (None: unset). The default hetero run uses a
    # constant stepsize and zero momentum, which read none of these keys.
    @pytest.mark.parametrize("key,value,reader,default", [
        ("schedule.s0", "5", "schedule.stepsize = pl_piecewise\nschedule.alpha1 = 1\n", None),
        ("schedule.alpha1", "1", "schedule.stepsize = pl_piecewise\nschedule.s0 = 5\n", None),
        ("schedule.T_max", "7", "schedule.stepsize = cosine\n", None),
        ("schedule.beta", "0.9", "schedule.momentum = constant\n", "0.0"),
        ("schedule.c_beta", "10", "schedule.momentum = tied\nschedule.gamma0 = 0.01\n", "36"),
    ])
    def test_unread_schedule_keys_warn(self, tmp_path, key, value, reader, default):
        def warnings(text):
            return load_run_config(_write(tmp_path / "c.cfg", "run.T = 5\n" + text)).warnings

        unread = warnings(f"{key} = {value}\n")
        assert [w.split("'")[1] for w in unread] == [key]
        assert "is ignored" in unread[0]
        assert warnings(reader + f"{key} = {value}\n") == []
        assert warnings(f"{key} = {default}\n" if default else "") == []

    def test_every_key_a_run_may_not_read_can_warn(self, tmp_path):
        # the keys no run can leave unread; each other key, set to a value
        # away from its default, warns in a config that does not read it
        always_read = {
            "problem.kind", "aggregator.rule", "aggregator.b", "attack.kind",
            "schedule.stepsize", "schedule.gamma0", "schedule.momentum", "run.T", "run.x0",
            "run.seed", "run.replicates",
        }
        # between them these leave every other key unread: the default hetero
        # run reads no key of another kind, noise reads neither problem.d nor
        # problem.noise, and random_quadratic none of problem.mu, .G, .B, .kappa
        bases = ["", "problem.kind = noise\n", "problem.kind = random_quadratic\n"]
        away = {"int": "3", "optint": "3", "float": "0.25", "optfloat": "0.25",
                "bool": "true", "optstr": "gaussian", "floatlist": "3"}
        for base in bases:
            loaded = load_run_config(_write(tmp_path / "c.cfg", "run.T = 5\n" + base))
            assert always_read <= loaded.read
        for key, (tag, _default, _help) in configfile._REGISTRY.items():
            if key in always_read:
                continue
            warned = [w.split("'")[1] for base in bases for w in load_run_config(
                _write(tmp_path / "c.cfg", f"run.T = 5\n{base}{key} = {away[tag]}\n")).warnings]
            assert key in warned

    # a kappa key, a config where nothing reads it, and one config that reads it
    @pytest.mark.parametrize("key,unread,reader", [
        ("aggregator.kappa", "aggregator.rule = cwm\n",
         "aggregator.rule = oracle_adversarial\naggregator.variant = hetero_c1\n"),
        ("aggregator.kappa", "aggregator.rule = cwm\n", "aggregator.rule = cwm\n" + TIED),
        ("problem.kappa", "problem.kind = synthetic\n", "problem.kind = hetero\n"),
        ("problem.kappa", "problem.kind = synthetic\n", "problem.kind = noise\n"),
        ("problem.kappa", "problem.kind = synthetic\n", "problem.kind = synthetic\n" + TIED),
        # tied momentum reads problem.kappa only while aggregator.kappa is unset
        ("problem.kappa", "problem.kind = synthetic\naggregator.kappa = 0.001\n" + TIED,
         "problem.kind = synthetic\n" + TIED),
        # and a kappa key only on an instance that declares B (the softmax
        # task.s L of about 60 needs a smaller step under tied momentum)
        ("problem.kappa", "problem.kind = random_quadratic\n" + TIED,
         "problem.kind = hetero\n" + TIED),
        ("aggregator.kappa", "problem.kind = classification\naggregator.rule = cwm\n"
         "schedule.momentum = tied\nschedule.gamma0 = 0.0001\n",
         "problem.kind = synthetic\naggregator.rule = cwm\n" + TIED),
    ])
    def test_kappa_keys_warn_only_where_unread(self, tmp_path, key, unread, reader):
        def warnings(text):
            path = _write(tmp_path / "c.cfg", f"run.T = 5\n{key} = 0.001\n" + text)
            return load_run_config(path).warnings

        got = warnings(unread)
        assert [w.split("'")[1] for w in got] == [key]
        selector = "problem.kind" if key == "problem.kappa" else "aggregator.rule"
        assert f"is ignored: nothing reads it under {selector} = " in got[0]
        assert warnings(reader) == []


class TestProblemKeys:
    def test_equal_problem_keys_share_one_instance(self):
        kv = resolve(parse_config_text("problem.kind = classification\nproblem.n = 4\n"))
        first = configfile._build_problem(kv)
        assert configfile._build_problem(dict(kv)) is first
        # keys outside problem.* do not take part
        assert configfile._build_problem({**kv, "run.seed": 9}) is first
        assert configfile._build_problem({**kv, "problem.data_seed": 1}) is not first

    def test_negative_zero_is_its_own_key(self):
        kv = resolve(parse_config_text("problem.kind = synthetic\nproblem.G = 0.0\n"))
        assert (configfile._build_problem(kv)
                is not configfile._build_problem({**kv, "problem.G": -0.0}))

    def test_a_build_that_raises_is_not_kept(self, monkeypatch):
        calls = []
        real = configfile.build_synthetic_family

        def counted(**kwargs):
            calls.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(configfile, "build_synthetic_family", counted)
        # B^2 = 4 is inadmissible for n = 20, k = 7 (needs B^2 < 7/3)
        kv = resolve(parse_config_text(
            "problem.kind = synthetic\nproblem.B = 2.0\nproblem.data_seed = 424242\n"))
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="inadmissible B"):
                configfile._build_problem(kv)
        assert len(calls) == 2
        good = {**kv, "problem.B": 0.5}
        assert configfile._build_problem(good) is configfile._build_problem(good)
        assert len(calls) == 3

    def test_unread_problem_keys_warn(self, tmp_path):
        text = UNREAD_KEYS + "problem.mu = 5\nproblem.k = 3\n"
        loaded = load_run_config(_write(tmp_path / "c.cfg", text))
        assert [w.split("'")[1] for w in loaded.warnings] == ["problem.mu", "problem.k"]
        assert loaded.warnings[0].endswith(
            "nothing reads it under problem.kind = random_quadratic, problem.noise unset")

    def test_sigma_without_a_noise_override_warns(self, tmp_path):
        loaded = load_run_config(_write(tmp_path / "c.cfg", UNREAD_KEYS + "problem.sigma = 3\n"))
        assert [w.split("'")[1] for w in loaded.warnings] == ["problem.sigma"]
        assert loaded.warnings[0].endswith(
            "nothing reads it under problem.kind = random_quadratic, problem.noise unset")
        noisy = UNREAD_KEYS + "problem.sigma = 3\nproblem.noise = gaussian\n"
        assert load_run_config(_write(tmp_path / "n.cfg", noisy)).warnings == []

    def test_sigma_beside_noise_none_warns_and_is_not_kept(self, tmp_path):
        # kind none adds no noise, so a sigma beside it is unread: it warns,
        # and the model holds sigma = 0 for lyapunov_trace to read
        text = UNREAD_KEYS + "problem.sigma = 0.3\nproblem.noise = none\n"
        loaded = load_run_config(_write(tmp_path / "c.cfg", text))
        assert [w.split("'")[1] for w in loaded.warnings] == ["problem.sigma"]
        assert loaded.warnings[0].endswith(
            "nothing reads it under problem.kind = random_quadratic, problem.noise = none")
        assert loaded.config.problem.noise == NoiseModel("none", 0.0)

    def test_hetero_takes_the_noise_override(self, tmp_path):
        loaded = load_run_config(_write(tmp_path / "c.cfg", NOISY_RUN))
        assert loaded.warnings == []
        assert loaded.config.problem.noise == NoiseModel("gaussian", 0.3)

    @pytest.mark.parametrize("kind,extra", [
        ("hetero", ""),
        ("hetero", "problem.noise = gaussian\n"),
        ("noise", ""),
        ("synthetic", ""),
        ("synthetic", "problem.noise = gaussian\n"),
        ("random_quadratic", ""),
        ("random_quadratic", "problem.noise = gaussian\n"),
        ("random_quadratic", "problem.noise = none\nproblem.sigma = 0.3\n"),
        ("classification", "problem.n = 3\nproblem.samples_per_class = 4\n"),
    ])
    def test_a_cached_problem_reports_the_keys_its_build_read(self, kind, extra):
        kv = resolve(parse_config_text(f"problem.kind = {kind}\n" + extra))
        built = configfile._Reads(kv)
        configfile._new_problem(built)
        # the first load may build the instance; the second is a cache hit
        for _ in range(2):
            read = materialize(kv).read
            assert {k for k in read if k.startswith("problem.")} == built.read


# ---- run command ---------------------------------------------------------


class TestRunCommand:
    def test_artifacts_and_summary(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.cfg", NOISY_RUN)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "resolved.cfg").exists()
        assert (out / "trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["T"] == 50
        assert summary["final_grad_norm_sq"] >= 0.0
        assert summary["status"] == "ok"
        stdout = capsys.readouterr().out
        assert f"run artifacts in {out}" in stdout

    def test_emit_plot_data(self, tmp_path):
        cfg = _write(tmp_path / "c.cfg", "problem.d = 2\nrun.T = 10\nrun.x0 = 0.5\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--emit-plot-data"]) == EXIT_OK
        with open(out / "plot_data.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x0", "x1"]
        assert len(rows) == 12  # header + T+1 iterates
        assert [float(v) for v in rows[1]] == [0.0, 0.5, 0.5]

    def test_resolved_echo_reproduces_the_run(self, tmp_path):
        cfg = _write(tmp_path / "c.cfg", NOISY_RUN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["run", str(out1 / "resolved.cfg"), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "summary.json").read_text() == (out2 / "summary.json").read_text()

    def test_csv_floats_round_trip_exactly(self, tmp_path):
        from robustsgd.trainer import run as run_fn

        cfg = _write(tmp_path / "c.cfg", NOISY_RUN)
        out = tmp_path / "out"
        main(["run", cfg, "--out", str(out)])
        record = run_fn(load_run_config(cfg).config)
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = np.array([float(r["grad_norm_sq"]) for r in rows])
        assert np.array_equal(got, record.grad_norm_sq)

    def test_warning_goes_to_stderr(self, tmp_path, capsys):
        text = (
            "problem.kappa = 0.5\nproblem.B = 1.0\n"
            "schedule.momentum = tied\nschedule.gamma0 = 0.001\nrun.T = 5\n"
        )
        cfg = _write(tmp_path / "c.cfg", text)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        assert "1/56" in capsys.readouterr().err

    def test_unread_key_warns_and_runs(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.cfg", UNREAD_KEYS + "aggregator.rule = cwm\n"
                     "aggregator.iters = 7\n")
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
        assert "warning: config key 'aggregator.iters' is ignored" in capsys.readouterr().err
        assert "aggregator.iters = 7\n" in (out / "resolved.cfg").read_text()


# ---- sweep command ---------------------------------------------------------


class TestSweepCommand:
    def test_grid_metrics_match_closed_form(self, tmp_path, capsys):
        sweepfile = _write(tmp_path / "s.cfg", SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", sweepfile, "--out", str(out), "--workers", "1"]) == EXIT_OK
        assert "4 cells, 0 failed" in capsys.readouterr().out
        with open(out / "cells.csv", newline="") as fh:
            cells = list(csv.DictReader(fh))
        assert len(cells) == 4
        for c in cells:
            assert c["status"] == "ok"
            kappa, b_sq = float(c["kappa"]), float(c["B_sq"])
            want = kappa * 1.0 / (1.0 - kappa * b_sq)
            assert float(c["metric"]) == pytest.approx(want, rel=1e-6)
        # canonical order: kappa-major, B_sq-minor, in file order
        assert [(float(c["kappa"]), float(c["B_sq"])) for c in cells] == [
            (0.05, 0.0), (0.05, 0.25), (0.1, 0.0), (0.1, 0.25),
        ]
        with open(out / "best.csv", newline="") as fh:
            best = list(csv.DictReader(fh))
        assert len(best) == 4  # every (kappa, B_sq) group has one row

    def test_a_cell_run_alone_equals_its_sweep_row(self, tmp_path):
        sweepfile = _write(tmp_path / "s.cfg", SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", sweepfile, "--out", str(out)]) == EXIT_OK
        spec = load_sweep(sweepfile)
        # each cell on its own, last first: no cell may lean on one run before it
        cells = [run_cell(spec, i, p) for i, p in reversed(list(spec.cell_params()))]
        SweepResult(spec=spec, cells=cells[::-1]).cells_csv(tmp_path / "alone.csv")
        assert (tmp_path / "alone.csv").read_bytes() == (out / "cells.csv").read_bytes()

    def test_resolved_echo_reproduces_the_sweep(self, tmp_path):
        text = ("run.T = 5\nrun.seed = 1\nsweep.gamma0 = 0.1,0.2\n"
                "sweep.momentum = zero,constant:0.5\nsweep.metric = final_f_gap\n"
                "sweep.seed = 3\n")
        sweepfile = _write(tmp_path / "s.cfg", text)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", sweepfile, "--out", str(out1)]) == EXIT_OK
        assert main(["sweep", str(out1 / "resolved_sweep.cfg"), "--out", str(out2)]) == EXIT_OK
        rows = (out1 / "cells.csv").read_bytes()
        assert rows.count(b"\n") == 5 and b",ok," in rows
        assert (out2 / "cells.csv").read_bytes() == rows

    def test_workers_accepts_only_one(self, tmp_path):
        sweepfile = _write(tmp_path / "s.cfg", SWEEP)
        with pytest.raises(SystemExit) as exc:  # argparse rejects a bad choice itself
            main(["sweep", sweepfile, "--out", str(tmp_path / "out"), "--workers", "2"])
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_failed_cells_do_not_poison_the_sweep(self, tmp_path, capsys):
        text = SWEEP.replace("sweep.kappa = 0.05,0.1", "sweep.kappa = 0.1,-1.0")
        sweepfile = _write(tmp_path / "s.cfg", text)
        out = tmp_path / "out"
        assert main(["sweep", sweepfile, "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "4 cells, 2 failed" in captured.out
        assert "kappa >= 0" in captured.err
        with open(out / "cells.csv", newline="") as fh:
            cells = list(csv.DictReader(fh))
        by_status = {c["status"] for c in cells if float(c["kappa"]) < 0}
        assert by_status == {"failed"}
        with open(out / "best.csv", newline="") as fh:
            best = list(csv.DictReader(fh))
        assert all(float(r["kappa"]) > 0 for r in best)

    # the kappa keys each cell sets, and those it warns about
    @pytest.mark.parametrize("base,kappa_keys,warned", [
        ("problem.kind = synthetic\naggregator.rule = oracle_adversarial\n"
         "aggregator.variant = variance_sign\naggregator.kappa = 0.005\n",
         {"aggregator.kappa"}, set()),
        ("problem.kind = hetero\n", {"problem.kappa"}, set()),
        # tied momentum reads aggregator.kappa, and problem.kappa only without it
        ("problem.kind = synthetic\nschedule.momentum = tied\n", {"aggregator.kappa"}, set()),
        ("problem.kind = synthetic\n",  # nothing reads the axis: both keys warn
         {"aggregator.kappa", "problem.kappa"}, {"aggregator.kappa", "problem.kappa"}),
    ])
    def test_the_kappa_axis_sets_the_kappa_keys_a_cell_reads(self, tmp_path, base,
                                                             kappa_keys, warned):
        text = base + "schedule.gamma0 = 0.001\nsweep.kappa = 0.001,0.002\n"
        spec = load_sweep(_write(tmp_path / "s.cfg", text))
        for _, params in spec.cell_params():
            kv = cell_kv(spec, params)
            assert {k for k in ("aggregator.kappa", "problem.kappa")
                    if kv[k] == params["kappa"]} == kappa_keys
            assert {w.split("'")[1] for w in materialize(kv).warnings} == warned

    # two cells, each warning about the same two keys: unread keys of a cwm
    # sweep, and the swept kappa keys, which no cell of a synthetic sweep reads
    @pytest.mark.parametrize("text,keys", [
        (UNREAD_KEYS + "aggregator.rule = cwm\naggregator.iters = 7\n"
         "aggregator.variant = hetero_c1\nsweep.gamma0 = 0.05,0.1\n",
         ["aggregator.iters", "aggregator.variant"]),
        ("problem.kind = synthetic\nrun.T = 5\nsweep.kappa = 0.001,0.002\n",
         ["problem.kappa", "aggregator.kappa"]),
    ])
    def test_each_distinct_warning_prints_once(self, tmp_path, capsys, text, keys):
        out = tmp_path / "out"
        assert main(["sweep", _write(tmp_path / "s.cfg", text), "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "2 cells, 0 failed" in captured.out
        lines = [ln for ln in captured.err.splitlines() if ln.startswith("warning: ")]
        assert [ln.split("'")[1] for ln in lines] == keys

    def test_a_cell_warning_the_base_lacks_prints_once(self, tmp_path, capsys):
        # kappa*B^2 = 0.5 >= 1/56 in the two cells with B^2 = 1, not in the base
        text = ("problem.kind = hetero\nproblem.kappa = 0.5\nproblem.B = 0.0\n"
                "schedule.momentum = tied\nschedule.gamma0 = 0.001\nrun.T = 5\n"
                "sweep.B_sq = 0.0,1.0\nsweep.T = 5,6\n")
        out = tmp_path / "out"
        assert main(["sweep", _write(tmp_path / "s.cfg", text), "--out", str(out)]) == EXIT_OK
        lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning: ")]
        assert len(lines) == 1 and "kappa*B^2 = 0.5 >= 1/56" in lines[0]

    def test_a_programming_error_in_a_cell_escapes_the_sweep(self, tmp_path, monkeypatch):
        # only the library's error classes make a failed cell; a TypeError
        # is a fault of the program, not a result of the cell
        def broken(config, metric):
            raise TypeError("unsupported operand")

        monkeypatch.setattr("robustsgd.sweep._metric_of", broken)
        sweepfile = _write(tmp_path / "s.cfg", SWEEP)
        with pytest.raises(TypeError, match="unsupported operand"):
            main(["sweep", sweepfile, "--out", str(tmp_path / "out")])

    def test_gamma0_grid_incompatible_with_pl_stepsize(self, tmp_path):
        text = (
            "schedule.stepsize = pl_piecewise\nschedule.alpha1 = 1.0\n"
            "schedule.s0 = 4\nsweep.gamma0 = 0.1,0.2\n"
        )
        sweepfile = _write(tmp_path / "s.cfg", text)
        assert main(["sweep", sweepfile]) == EXIT_CONFIG

    # float() raised a bare ValueError out of main for constant:x, tied:abc
    # and tied:, and passed inf and nan on
    @pytest.mark.parametrize("token", ["nesterov", "constant:x", "tied:abc", "tied:",
                                       "constant:inf", "tied:nan"])
    def test_bad_momentum_token(self, tmp_path, capsys, token):
        sweepfile = _write(tmp_path / "s.cfg", f"sweep.momentum = zero,{token}\n")
        out = tmp_path / "out"
        assert main(["sweep", sweepfile, "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: sweep momentum token {token!r}" in capsys.readouterr().err
        assert not out.exists()

    # cell_seed's SeedSequence raised a bare ValueError, exit 1, after
    # resolved_sweep.cfg had been written
    @pytest.mark.parametrize("text,key", [
        ("run.seed = -1\n", "run.seed"),
        ("run.seed = 3\nsweep.seed = -2\n", "sweep.seed"),
    ])
    def test_negative_sweep_seed_exits_at_load(self, tmp_path, capsys, text, key):
        sweepfile = _write(tmp_path / "s.cfg", text + "sweep.T = 5\n")
        out = tmp_path / "out"
        assert main(["sweep", sweepfile, "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: config key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_the_sweep_seed_overrides_a_negative_run_seed(self, tmp_path):
        sweepfile = _write(tmp_path / "s.cfg", "run.seed = -1\nsweep.seed = 4\nsweep.T = 5\n")
        assert load_sweep(sweepfile).seed == 4

    def test_cell_seeds_derive_from_master_and_index(self, tmp_path):
        sweepfile = _write(tmp_path / "s.cfg", SWEEP)
        spec = load_sweep(sweepfile)
        assert spec.n_cells == 4
        for index, _params in spec.cell_params():
            assert cell_seed(spec.seed, index) == cell_seed(5, index)
        assert len({cell_seed(5, i) for i in range(4)}) == 4

    def test_replicates_average_the_floor_of_runs_at_derived_seeds(self, tmp_path):
        spec = load_sweep(_write(tmp_path / "s.cfg", NOISY_QUADRATIC
                                 + "run.replicates = 3\nsweep.gamma0 = 0.05,0.1\n"))
        for cell in run_sweep(spec).cells:
            gamma0 = cell.params["gamma0"]
            config = _plain(cell.seed, {"schedule.gamma0": repr(gamma0)})
            floors = [
                run(replace(config, seed=int(
                    np.random.SeedSequence([cell.seed, r]).generate_state(1)[0]
                ))).floor_estimate()
                for r in range(3)
            ]
            assert len(set(floors)) == 3  # the replicates really differ
            assert cell.status == "ok"
            assert cell.metric == float(np.mean(floors))

    def test_final_f_gap_reports_the_last_gap(self, tmp_path):
        spec = load_sweep(_write(tmp_path / "s.cfg", NOISY_QUADRATIC
                                 + "sweep.metric = final_f_gap\nsweep.T = 40,60\n"))
        for cell in run_sweep(spec).cells:
            T = cell.params["T"]
            record = run(_plain(cell.seed, {"run.T": str(T)}))
            assert cell.status == "ok"
            assert cell.metric == float(record.f_gap[-1])

    def test_final_f_gap_fails_a_cell_without_a_minimizer(self, tmp_path):
        text = ("problem.kind = classification\nproblem.n = 3\n"
                "problem.samples_per_class = 4\nrun.T = 5\n"
                "sweep.metric = final_f_gap\n")
        (cell,) = run_sweep(load_sweep(_write(tmp_path / "s.cfg", text))).cells
        assert cell.status == "failed" and cell.metric is None
        assert cell.error == (
            "ConfigurationError: final_f_gap is undefined on this instance "
            "(no known minimizer); use the floor_estimate metric")

    def test_momentum_tokens_reach_the_cell_schedule(self, tmp_path):
        # gamma0 * L <= 0.01 * 2.5 = 1/40 stays inside tied:20's bound 1/20
        spec = load_sweep(_write(tmp_path / "s.cfg", NOISY_QUADRATIC
                                 + "sweep.momentum = constant:0.5,tied:20\n"))
        plain = {
            "constant:0.5": {"schedule.momentum": "constant", "schedule.beta": "0.5"},
            "tied:20": {"schedule.momentum": "tied", "schedule.c_beta": "20"},
        }
        cells = run_sweep(spec).cells
        assert [c.params["momentum"] for c in cells] == list(plain)
        for cell in cells:
            config = _plain(cell.seed, plain[cell.params["momentum"]])
            sched = materialize(cell_kv(spec, cell.params)).config.schedule
            assert sched == config.schedule
            assert cell.status == "ok"
            assert cell.metric == run(config).floor_estimate()

    def test_best_tie_goes_to_lowest_index(self):
        spec = SweepSpec(base_kv={})
        cells = [
            SweepCell(index=0, params={"kappa": 0.1, "B_sq": None}, seed=1,
                      status="ok", metric=1.0),
            SweepCell(index=1, params={"kappa": 0.1, "B_sq": None}, seed=2,
                      status="ok", metric=1.0),
        ]
        best = SweepResult(spec=spec, cells=cells).best_by_group()
        assert best[(0.1, None)].index == 0


# ---- verify command --------------------------------------------------------


class TestVerifyCommand:
    def test_fast_suite_passes_and_reports(self, capsys):
        assert main(["verify", "--suite", "fast", "--json"]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "suite=fast" in stdout and "checks passed" in stdout
        head, sep, tail = stdout.partition("\n{")
        payload = json.loads(sep.strip() + tail)
        assert payload["passed"] is True
        assert all(row["passed"] for row in payload["rows"])
        # every row states the tolerance its verdict applied
        for row in payload["rows"]:
            tol = row["tolerance"]
            assert isinstance(tol, float) and math.isfinite(tol) and tol >= 0, row["name"]
        # the benchmark's verify op reads this same stdout with its own parser
        assert workloads.verify_json(stdout) == payload

    def test_full_suite_passes_as_strict_json(self, capsys):
        assert main(["verify", "--suite", "full", "--json"]) == EXIT_OK
        stdout = capsys.readouterr().out

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        # the table comes first; the benchmark's parser also takes what follows it
        payload = json.loads(stdout[stdout.index("\n{") + 1:], parse_constant=reject)
        assert payload["passed"] is True
        assert len(payload["rows"]) == 21
        assert all(row["passed"] for row in payload["rows"])
        assert workloads.verify_json(stdout) == payload

    def test_json_report_is_strict_json(self, capsys, monkeypatch):
        # a NaN measurement prints as null: the document parses without
        # NaN or Infinity tokens, by json and by the benchmark's parser
        from robustsgd.verify import ReportRow, VerificationReport

        row = ReportRow(name="nan_row", derivation="d", predicted=1.0, measured=math.nan,
                        tolerance=0.1, passed=False, runtime_s=0.0)
        monkeypatch.setattr("robustsgd.cli.run_verification",
                            lambda suite: VerificationReport(suite, [row]))
        assert main(["verify", "--json"]) == EXIT_VERIFY
        stdout = capsys.readouterr().out

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        payload = json.loads(stdout[stdout.index("\n{") + 1:], parse_constant=reject)
        assert payload["rows"] == [{"name": "nan_row", "derivation": "d", "predicted": 1.0,
                                    "measured": None, "tolerance": 0.1, "passed": False,
                                    "runtime_s": 0.0}]
        assert workloads.verify_json(stdout) == payload

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):  # argparse rejects a bad choice itself
            main(["verify", "--suite", "gigantic"])


# ---- estimate-kappa and certify ---------------------------------------------


class TestToolCommands:
    def test_estimate_kappa_json(self, capsys):
        rc = main(["estimate-kappa", "--rule", "cwm", "--n", "6", "--b", "2",
                   "--samples", "200", "--seed", "3"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule"] == "cwm"
        assert payload["samples"] == 200
        assert payload["kappa_hat"] > 0.0
        assert payload["violation"] is False

    def test_estimate_kappa_average_unattacked_is_zero(self, capsys):
        rc = main(["estimate-kappa", "--rule", "average", "--n", "4", "--b", "0",
                   "--samples", "100"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["kappa_hat"] == 0.0

    def test_estimate_kappa_violation_prints_strict_json(self, capsys, monkeypatch):
        # a zero-dispersion input with a nonzero deviation reads kappa_hat = inf
        def violated(spec, **kwargs):
            return RobustnessEstimate(kappa_hat=float("inf"), samples=5,
                                      worst_case_input=None, violation=True)

        def no_constants(token):
            raise ValueError(f"non-JSON constant {token}")

        monkeypatch.setattr("robustsgd.cli.estimate_kappa", violated)
        rc = main(["estimate-kappa", "--rule", "cwm", "--n", "6", "--b", "2",
                   "--samples", "5"])
        assert rc == EXIT_VERIFY
        payload = json.loads(capsys.readouterr().out, parse_constant=no_constants)
        assert payload["kappa_hat"] is None
        assert payload["violation"] is True

    def test_estimate_kappa_violation_prints_the_worst_case_input(self, capsys, monkeypatch):
        worst = {"inputs": [[0.0, 1.0]] * 4 + [[5.0, -2.0]] * 2, "honest_ids": [0, 1, 2, 3]}

        def violated(spec, **kwargs):
            return RobustnessEstimate(kappa_hat=float("inf"), samples=5,
                                      worst_case_input=worst, violation=True)

        monkeypatch.setattr("robustsgd.cli.estimate_kappa", violated)
        rc = main(["estimate-kappa", "--rule", "cwm", "--n", "6", "--b", "2",
                   "--samples", "5"])
        assert rc == EXIT_VERIFY
        assert json.loads(capsys.readouterr().out)["worst_case_input"] == worst

    def test_estimate_kappa_without_violation_exits_0_and_omits_the_input(self, capsys):
        rc = main(["estimate-kappa", "--rule", "cwtm", "--n", "6", "--b", "1",
                   "--q", "1", "--samples", "12"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["violation"] is False and "worst_case_input" not in payload

    def test_estimate_kappa_oracle_rule_needs_kappa(self, capsys):
        rc = main(["estimate-kappa", "--rule", "oracle_adversarial",
                   "--n", "4", "--b", "1"])
        assert rc == EXIT_CONFIG

    def test_certify_tight_instance(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.cfg", "problem.kind = hetero\n")
        rc = main(["certify", "--instance", cfg, "--G", "1.0", "--B", "0.5"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] in ("pass", "tight")

    def test_certify_failure_carries_witness(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.cfg", "problem.kind = hetero\n")
        rc = main(["certify", "--instance", cfg, "--G", "0.9", "--B", "0.4"])
        assert rc == EXIT_VERIFY
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "fail"
        assert "witness" in payload

    def test_certify_unbounded_margin_prints_strict_json(self, tmp_path, capsys):
        # B below the instance's slope: the violation grows without bound
        def no_constants(token):
            raise ValueError(f"non-JSON constant {token}")

        cfg = _write(tmp_path / "c.cfg", "problem.kind = hetero\n")
        rc = main(["certify", "--instance", cfg, "--G", "1.0", "--B", "0.1"])
        assert rc == EXIT_VERIFY
        payload = json.loads(capsys.readouterr().out, parse_constant=no_constants)
        assert payload["status"] == "fail" and payload["margin"] is None
        assert all(math.isfinite(v) for v in payload["witness"])

    def test_certify_prints_unread_key_warnings(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.cfg", "problem.kind = synthetic\nproblem.mu = 5\n")
        rc = main(["certify", "--instance", cfg, "--G", "1.0", "--B", "0.5"])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert "warning: config key 'problem.mu' is ignored" in captured.err
        assert json.loads(captured.out)["status"] in ("pass", "tight")

    @pytest.mark.parametrize("G, B", [("nan", "0.5"), ("1.0", "nan"), ("inf", "0"),
                                      ("1.0", "inf"), ("-1", "0.5"), ("1.0", "-0.5")])
    def test_certify_refuses_g_or_b_not_finite_and_nonnegative(self, tmp_path, capsys, G, B):
        # nan compared false everywhere and passed; G = inf made gamma0 = -inf,
        # so a "fail" witness did not violate anything
        cfg = _write(tmp_path / "c.cfg", "problem.kind = random_quadratic\n")
        rc = main(["certify", "--instance", cfg, "--G", G, "--B", B])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "G and B must be finite and >= 0" in captured.err

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_estimate_kappa_refuses_dim_below_one(self, capsys, dim):
        rc = main(["estimate-kappa", "--rule", "cwm", "--n", "6", "--b", "2",
                   "--samples", "5", "--dim", dim])
        assert rc == EXIT_CONFIG
        assert "dim must be >= 1" in capsys.readouterr().err


# ---- exit codes and process entry -------------------------------------------


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.cfg")])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_run_out_under_a_file_exits_config(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.cfg", MINIMAL)
        bad = tmp_path / "c.cfg" / "sub"
        assert main(["run", cfg, "--out", str(bad)]) == EXIT_CONFIG
        assert str(bad) in capsys.readouterr().err

    def test_sweep_out_on_an_existing_file_exits_config(self, tmp_path, capsys):
        sweepfile = _write(tmp_path / "s.cfg", SWEEP)
        assert main(["sweep", sweepfile, "--out", sweepfile]) == EXIT_CONFIG
        assert sweepfile in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep", "estimate-kappa"])
    def test_a_size_too_large_to_allocate_exits_config(self, tmp_path, capsys, command):
        # 10^15 rows or coordinates exceed the user address space, so NumPy
        # refuses the allocation without touching memory
        huge = "1000000000000000"
        if command == "estimate-kappa":
            argv = [command, "--rule", "average", "--n", "3", "--b", "0", "--dim", huge]
        else:
            key = "sweep.T" if command == "sweep" else "run.T"
            cfg = _write(tmp_path / "c.cfg", f"{key} = {huge}\n")
            argv = [command, cfg, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: Unable to allocate") and err.count("\n") == 1

    def test_config_error_exit(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.cfg", "aggregator.b = 1\n")
        assert main(["run", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("text,key", [
        # a classification task's noise is its minibatch draw
        ("problem.kind = classification\nproblem.noise = gaussian\n", "problem.noise"),
        # only sweeps average replicates
        ("run.T = 5\nrun.replicates = 3\n", "run.replicates"),
    ])
    def test_key_run_would_ignore_is_rejected(self, tmp_path, capsys, text, key):
        cfg = _write(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line,message", [
        ("problem.n = 0", "n_workers must be >= 1; got n_workers=0"),
        ("problem.n = -1", "n_workers must be >= 1; got n_workers=-1"),
        ("problem.dim = -2", "dim must be >= 1; got dim=-2"),
        ("problem.samples_per_class = -3",
         "samples_per_class must be >= 1; got samples_per_class=-3"),
        ("problem.alpha = -1", "alpha must be finite and > 0; got alpha=-1.0"),
        ("problem.alpha = 0", "alpha must be finite and > 0; got alpha=0.0"),
    ])
    def test_classification_size_out_of_range(self, tmp_path, capsys, line, message):
        # each reached NumPy's sampler and left main as a ValueError traceback
        cfg = _write(tmp_path / "c.cfg", f"problem.kind = classification\n{line}\nrun.T = 5\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_numeric_failure_exit(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.cfg",
                     "schedule.gamma0 = 1e200\nrun.T = 20\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "robustsgd.cli", "estimate-kappa",
             "--rule", "average", "--n", "3", "--b", "0", "--samples", "20"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["kappa_hat"] == 0.0


# ---- divergence and overflow -------------------------------------------------

DIVERGING_RUN = """\
problem.kind = random_quadratic
problem.n = 6
problem.d = 2
schedule.gamma0 = 5
run.T = 200
"""

HUGE_B_RUN = """\
problem.kind = hetero
problem.B = 1e300
aggregator.rule = oracle_adversarial
aggregator.kappa = 0.1
aggregator.variant = hetero_c1
"""


class TestDivergence:
    def test_diverged_run_exits_numeric_and_names_where(self, tmp_path, capsys):
        # the iterate stays finite while its metrics overflow; that still
        # counts as divergence, reported at the first bad iteration
        cfg = _write(tmp_path / "c.cfg", DIVERGING_RUN)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["run", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.search(r"non-finite (grad_norm_sq|f_gap) at iteration \d+", err), err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_diverged_run_leaves_its_rows_and_says_where(self, tmp_path, capsys):
        def no_constants(token):
            raise ValueError(f"non-JSON constant {token}")

        cfg = _write(tmp_path / "c.cfg", DIVERGING_RUN)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_NUMERIC
        summary = json.loads((out / "summary.json").read_text(), parse_constant=no_constants)
        t, column = summary["iteration"], summary["column"]
        assert summary["status"] == "diverged" and column in ("grad_norm_sq", "f_gap")
        assert summary["error"] == f"non-finite {column} at iteration {t}"
        assert summary["error"] in capsys.readouterr().err
        # trace.csv holds rows 1 .. t-1, the trace of the same run stopped
        # before the failing step (a constant step size does not depend on T)
        with open(out / "trace.csv", newline="") as fh:
            assert [int(r["t"]) for r in csv.DictReader(fh)] == list(range(1, t))
        head = _write(tmp_path / "head.cfg", DIVERGING_RUN.replace("run.T = 200", f"run.T = {t - 1}"))
        assert main(["run", head, "--out", str(tmp_path / "head")]) == EXIT_OK
        assert (out / "trace.csv").read_bytes() == (tmp_path / "head" / "trace.csv").read_bytes()

    def test_diverged_sweep_cell_is_marked_diverged(self, tmp_path, capsys):
        text = DIVERGING_RUN + "sweep.gamma0 = 0.1,5\n"
        sweepfile = _write(tmp_path / "s.cfg", text)
        out = tmp_path / "out"
        assert main(["sweep", sweepfile, "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "2 cells, 0 failed, 1 diverged" in captured.out
        assert "cell 1 diverged: NumericFailure" in captured.err
        with open(out / "cells.csv", newline="") as fh:
            cells = {float(c["gamma0"]): c for c in csv.DictReader(fh)}
        assert cells[0.1]["status"] == "ok"
        assert cells[5.0]["status"] == "diverged"
        assert "NumericFailure" in cells[5.0]["error"]
        with open(out / "best.csv", newline="") as fh:
            assert [float(r["gamma0"]) for r in csv.DictReader(fh)] == [0.1]

    def test_huge_finite_B_does_not_overflow_the_loader(self, tmp_path, capsys):
        cfg = _write(tmp_path / "c.cfg", HUGE_B_RUN)
        assert load_run_config(cfg).config.problem.analytic.B == 1e300
        rc = main(["run", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_NUMERIC
        assert "at iteration" in capsys.readouterr().err

    def test_huge_finite_B_warns_with_tied_momentum(self, tmp_path):
        cfg = _write(tmp_path / "c.cfg", HUGE_B_RUN
                     + "schedule.momentum = tied\nschedule.gamma0 = 1e-303\n")
        loaded = load_run_config(cfg)
        assert any("kappa*B^2 = inf" in w for w in loaded.warnings)


# ---- schema documentation ----------------------------------------------------


class TestSchemaDoc:
    def test_every_registered_key_is_documented(self):
        from pathlib import Path

        from robustsgd.configfile import _REGISTRY, _SWEEP_REGISTRY

        doc = (Path(__file__).resolve().parent.parent
               / "docs" / "config_schema.txt").read_text()
        for key in list(_REGISTRY) + list(_SWEEP_REGISTRY):
            assert key in doc, f"{key} missing from docs/config_schema.txt"
