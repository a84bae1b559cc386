import csv
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from robustsgd.aggregators import RobustnessEstimate
from robustsgd import configfile
from robustsgd.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY, main
from robustsgd.configfile import (
    load_run_config,
    parse_config_text,
    render_config,
    resolve,
)
from robustsgd.core import ConfigurationError
from robustsgd.sweep import (
    SweepCell,
    SweepResult,
    SweepSpec,
    cell_seed,
    load_sweep,
    run_cell,
)


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

# a random-quadratic instance every rule accepts, for the unread-key warnings
UNREAD_KEYS = """\
problem.kind = random_quadratic
problem.n = 6
problem.b = 1
problem.d = 2
aggregator.b = 1
run.T = 5
"""


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
        ("cwm", "none", ["aggregator.iters", "aggregator.nu", "aggregator.q",
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


class _Reads(dict):
    """A dict that records the keys read by subscription."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


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
        assert "problem.kind = random_quadratic does not read it" in loaded.warnings[0]

    def test_sigma_without_a_noise_override_warns(self, tmp_path):
        loaded = load_run_config(_write(tmp_path / "c.cfg", UNREAD_KEYS + "problem.sigma = 3\n"))
        assert [w.split("'")[1] for w in loaded.warnings] == ["problem.sigma"]
        assert ("problem.kind = random_quadratic with problem.noise unset does not read it"
                in loaded.warnings[0])
        noisy = UNREAD_KEYS + "problem.sigma = 3\nproblem.noise = gaussian\n"
        assert load_run_config(_write(tmp_path / "n.cfg", noisy)).warnings == []

    @pytest.mark.parametrize("kind,extra", [
        ("hetero", ""),
        ("noise", ""),
        ("synthetic", ""),
        ("synthetic", "problem.noise = gaussian\n"),
        ("random_quadratic", ""),
        ("random_quadratic", "problem.noise = gaussian\n"),
        ("classification", "problem.n = 3\nproblem.samples_per_class = 4\n"),
    ])
    def test_problem_key_readers_are_what_the_builder_reads(self, kind, extra):
        kv = _Reads(resolve(parse_config_text(f"problem.kind = {kind}\n" + extra)))
        configfile._new_problem(kv)
        listed = {key for key, (selector, _) in configfile._READ_ONLY_BY.items()
                  if selector == "problem.kind" and configfile._reads(dict(kv), key)}
        # problem.kappa is read for every kind, by materialize
        assert kv.read - {"problem.kind", "problem.kappa"} == listed


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

    def test_each_distinct_warning_prints_once(self, tmp_path, capsys):
        # two cells of a cwm sweep, each warning about the same two keys
        text = (UNREAD_KEYS + "aggregator.rule = cwm\naggregator.iters = 7\n"
                "aggregator.variant = hetero_c1\nsweep.gamma0 = 0.05,0.1\n")
        out = tmp_path / "out"
        assert main(["sweep", _write(tmp_path / "s.cfg", text), "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "2 cells, 0 failed" in captured.out
        lines = [ln for ln in captured.err.splitlines() if ln.startswith("warning: ")]
        assert [ln.split("'")[1] for ln in lines] == ["aggregator.iters", "aggregator.variant"]

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

    def test_bad_momentum_token(self, tmp_path):
        text = "sweep.momentum = nesterov\n"
        sweepfile = _write(tmp_path / "s.cfg", text)
        assert main(["sweep", sweepfile]) == EXIT_CONFIG

    def test_cell_seeds_derive_from_master_and_index(self, tmp_path):
        sweepfile = _write(tmp_path / "s.cfg", SWEEP)
        spec = load_sweep(sweepfile)
        assert spec.n_cells == 4
        for index, _params in spec.cell_params():
            assert cell_seed(spec.seed, index) == cell_seed(5, index)
        assert len({cell_seed(5, i) for i in range(4)}) == 4

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
