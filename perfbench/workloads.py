"""The three benchmark workloads and their correctness gate.

Each workload builds its inputs from the workload seed alone and hands the
program nothing else: the run mixes hand `robustsgd.trainer.run` configs
materialized from generated config text, and `closed_form_verify` hands
`robustsgd.cli.main` the `verify` arguments and a generated sweep file.

The gate is bitwise. Every run of a mix draws its instance and noise seed
`k` from a pool of POOL seeds, and `digests.json` records the SHA-256 of the
iterate history `xs` of every (config group, k) pair, so any workload seed
is checked against recorded digests. The sweep's per-cell metrics are
recorded as float.hex strings; the monotone grid is noise-free, so they do
not depend on the seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from refclock import Timeline
from tracing import Patches

POOL = 32
DIGESTS = Path(__file__).resolve().parent / "digests.json"


@dataclass
class PassResult:
    """One pass over a workload's fixed op list."""

    wall_s: float = 0.0
    raw_s: dict = field(default_factory=dict)    # op -> wall time; absent if it raised
    op_s: dict = field(default_factory=dict)     # op -> time at reference speed
    runs: dict = field(default_factory=dict)     # op of a trainer.run call -> its T
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def fail(self, op: str, why: str) -> None:
        self.failed += 1
        self.errors.append(f"{op}: {why}")


def xs_digest(xs: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(xs, dtype="<f8").tobytes()).hexdigest()


def load_digests() -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text())


def save_digests(name: str, record: dict) -> None:
    data = load_digests()
    data[name] = record
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _config(text: str):
    cf = importlib.import_module("robustsgd.configfile")
    return cf.materialize(cf.resolve(cf.parse_config_text(text))).config


# ---------------------------------------------------------------------------
# run mixes: a closed loop of trainer.run calls


@dataclass(frozen=True)
class RunMix:
    """A fixed mix of config groups, each repeated over pool seeds.

    groups: (label, config lines, runs per pass). A pass runs every group's
    runs in one order shuffled by the workload seed, so slow drift of the
    machine touches all groups alike. Run counts are chosen so that p50 and
    p90 of the per-run wall time fall inside one group (see README.md)."""

    name: str
    base: str
    groups: tuple
    T: int

    def ops(self, seed: int, smoke: bool):
        """[(label, k)] for one pass, in run order."""
        ops = []
        for label, _, count in self.groups:
            pick = random.Random(f"{self.name}:{seed}:{label}")
            ops += [(label, k) for k in pick.sample(range(POOL), 1 if smoke else count)]
        random.Random(f"{self.name}:{seed}").shuffle(ops)
        return ops

    def text(self, label: str, k: int) -> str:
        lines = dict((g[0], g[1]) for g in self.groups)[label]
        return self.base.format(k=k, T=self.T) + lines

    def build(self, seed: int, smoke: bool, workdir: Path):
        expected = load_digests().get(self.name, {})
        if expected.get("T") != self.T:
            expected = {}
        return [(f"{label}#{k}", _config(self.text(label, k)),
                 expected.get("runs", {}).get(label, {}).get(str(k)))
                for label, k in self.ops(seed, smoke)]

    def warmup(self, inputs) -> None:
        trainer = importlib.import_module("robustsgd.trainer")
        seen = set()
        for op, config, _ in inputs:
            label = op.split("#")[0]
            if label not in seen:
                seen.add(label)
                trainer.run(config)

    def run_pass(self, inputs, tracer=None, calibrate=True) -> PassResult:
        trainer = importlib.import_module("robustsgd.trainer")
        res = PassResult()
        start = time.perf_counter()
        timeline = Timeline(res.raw_s, res.op_s, calibrate)
        for op, config, expected in inputs:
            if tracer is not None:
                tracer.op = f"run:{op}"
            res.attempted += 1
            timeline.start()
            try:
                record = trainer.run(config)
            except Exception as exc:  # a raising run is a failed op
                res.fail(op, f"{type(exc).__name__}: {exc}")
                continue
            timeline.cut(op)
            res.runs[op] = config.T
            if expected is None:
                res.fail(op, "no recorded digest (run --record)")
            elif xs_digest(record.xs) != expected:
                res.fail(op, "xs digest differs from the recorded one")
            res.extra.setdefault("first_xs", (record.xs, expected))
        res.wall_s = time.perf_counter() - start
        return res

    def control(self, res: PassResult) -> bool:
        """True if the gate rejects the first run's xs with one entry moved
        by one ulp, and accepts it unchanged."""
        if "first_xs" not in res.extra:
            return False
        xs, expected = res.extra["first_xs"]
        flipped = xs.copy()
        flipped[-1, 0] = np.nextafter(flipped[-1, 0], np.inf)
        return xs_digest(xs) == expected and xs_digest(flipped) != expected

    def record(self, workdir: Path) -> int:
        trainer = importlib.import_module("robustsgd.trainer")
        runs = {}
        for label, _, _ in self.groups:
            runs[label] = {str(k): xs_digest(trainer.run(_config(self.text(label, k))).xs)
                           for k in range(POOL)}
        save_digests(self.name, {"T": self.T, "runs": runs})
        return sum(len(v) for v in runs.values())


ADVERSARIAL_BASE = """\
problem.kind = random_quadratic
problem.n = 20
problem.b = 4
problem.d = 10
problem.noise = gaussian
problem.sigma = 0.5
problem.data_seed = {k}
aggregator.b = 4
schedule.stepsize = constant
schedule.gamma0 = 0.05
run.x0 = 1
run.T = {T}
run.seed = {k}
"""

SOFTMAX_BASE = """\
problem.kind = classification
problem.n = 10
problem.b = 2
problem.n_classes = 10
problem.dim = 8
problem.minibatch = 8
problem.data_seed = 0
aggregator.b = 2
schedule.stepsize = constant
schedule.gamma0 = 0.05
run.x0 = 0
run.T = {T}
run.seed = {k}
"""


def _rule(rule, attack, q=None):
    lines = f"aggregator.rule = {rule}\nattack.kind = {attack}\n"
    return lines + (f"aggregator.q = {q}\n" if q is not None else "")


# Ordered by cost per step on the reference machine (README.md): 40 cheap
# runs, then cwtm+alie holding ranks 40-60 (p50), 20 mid-cost runs, and
# gm+alie holding ranks 80-100 (p90).
ADVERSARIAL = RunMix(
    name="adversarial_quadratic",
    base=ADVERSARIAL_BASE,
    T=15,
    groups=(
        ("average+none", _rule("average", "none"), 8),
        ("krum+sign_flip", _rule("krum", "sign_flip"), 8),
        ("cwtm+sign_flip", _rule("cwtm", "sign_flip", 4), 8),
        ("cwm+sign_flip", _rule("cwm", "sign_flip"), 8),
        ("multi_krum+sign_flip", _rule("multi_krum", "sign_flip", 8), 8),
        ("cwtm+alie", _rule("cwtm", "alie", 4), 20),
        ("multi_krum+alie", _rule("multi_krum", "alie", 8), 6),
        ("cwm+alie", _rule("cwm", "alie"), 6),
        ("gm+sign_flip", _rule("gm", "sign_flip"), 4),
        ("krum+alie", _rule("krum", "alie"), 4),
        ("gm+alie", _rule("gm", "alie"), 20),
    ),
)

# The five groups cost within about 10% of each other per step, so p50 and
# p90 are percentiles of an effectively uniform population. The dataset is
# fixed: the honest shards' total size, which sets the cost of grad_f_H,
# ranges over 138-176 samples across data seeds 0-31.
SOFTMAX = RunMix(
    name="softmax_minibatch",
    base=SOFTMAX_BASE,
    T=15,
    groups=(
        ("average+none", _rule("average", "none"), 20),
        ("cwm+label_flip", _rule("cwm", "label_flip"), 20),
        ("cwm+sign_flip", _rule("cwm", "sign_flip"), 20),
        ("cwtm+label_flip", _rule("cwtm", "label_flip", 2), 20),
        ("cwtm+sign_flip", _rule("cwtm", "sign_flip", 2), 20),
    ),
)


# ---------------------------------------------------------------------------
# closed_form_verify: verify --suite fast, then the criterion-5 sweep

# The monotone grid of the criterion-5 acceptance test (24 cells) at a
# shorter horizon; the run seed is the workload seed.
SWEEP_TEXT = """\
problem.kind = synthetic
problem.n = 20
problem.k = 7
problem.a = 1.0
problem.G = 1.0
aggregator.rule = oracle_adversarial
aggregator.variant = variance_sign
aggregator.kappa = 0.05
schedule.gamma0 = 0.1
run.T = {T}
run.seed = {seed}
sweep.metric = floor_estimate
sweep.kappa = 0.05,0.1,0.2
sweep.B_sq = 0.0,0.5,1.0,2.0
sweep.gamma0 = 0.1,0.2
"""
SWEEP_CELLS = 24

# every name under which a caller looks up trainer.run, and the per-step
# schedule lookups (the run loop, the vectorised Monte Carlo, the exact
# moment recursion) where a long unit is sliced
RUN_SITES = (("robustsgd.trainer", "run"), ("robustsgd.verify", "run"),
             ("robustsgd.sweep", "run"), ("robustsgd.cli", "run"))
STEP_SITES = (("robustsgd.trainer", "schedules"), ("robustsgd.verify", "schedules"))
SLICE_S = 0.1


def _cli(argv):
    """cli.main in-process; (exit code, captured stdout)."""
    cli = importlib.import_module("robustsgd.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def verify_json(stdout: str) -> dict:
    """The JSON report that `verify --json` prints after its table."""
    start = stdout.index("\n{") + 1
    return json.loads(stdout[start:])


@dataclass(frozen=True)
class ClosedForm:
    """verify --suite fast, then the criterion-5 sweep, through cli.main."""

    name: str = "closed_form_verify"
    T: int = 300

    def build(self, seed: int, smoke: bool, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"monotone-seed{seed}.cfg"
        path.write_text(SWEEP_TEXT.format(T=self.T, seed=seed))
        importlib.import_module("robustsgd.sweep").load_sweep(str(path))
        expected = load_digests().get(self.name, {})
        cells = expected.get("cells", {}) if expected.get("T") == self.T else {}
        return {"sweepfile": path, "out": workdir / f"sweep-seed{seed}", "cells": cells}

    def warmup(self, inputs) -> None:
        sweep = importlib.import_module("robustsgd.sweep")
        spec = sweep.load_sweep(str(inputs["sweepfile"]))
        sweep.run_cell(spec, 0, next(spec.cell_params())[1])

    def run_pass(self, inputs, tracer=None, calibrate=True) -> PassResult:
        """verify, then the sweep. The timed units are each trainer.run call
        (`verify.run3`) and the work between two calls (`sweep.gap4`). A
        unit is cut into pieces of about SLICE_S at step boundaries, so the
        kernel runs at least that often and a long run is read at the speed
        of each of its slices."""
        res = PassResult()
        timeline = Timeline(res.raw_s, res.op_s, calibrate)
        now = {"phase": "", "k": 0, "unit": ""}

        def enter(unit):
            timeline.cut(now["unit"])
            now["unit"] = f"{now['phase']}.{unit}{now['k']}"

        def phase(name):
            now.update(phase=name, k=0, unit=f"{name}.gap0")
            if tracer is not None:
                tracer.op = name
            timeline.start()

        def timer(original):
            def timed_run(config, *args, **kwargs):
                enter("run")
                try:
                    return original(config, *args, **kwargs)
                finally:
                    res.runs[now["unit"]] = config.T
                    now["k"] += 1
                    enter("gap")
            return timed_run

        def stepper(original):
            def step(*args, **kwargs):
                if timeline.elapsed() >= SLICE_S:
                    timeline.cut(now["unit"])
                return original(*args, **kwargs)
            return step

        patches = Patches()
        for module, attr in RUN_SITES:
            patches.replace(module, attr, timer)
        for module, attr in STEP_SITES:
            patches.replace(module, attr, stepper)
        start = time.perf_counter()
        try:
            phase("verify")
            self._verify(res, lambda: timeline.cut(now["unit"]))
            phase("sweep")
            self._sweep(inputs, res, lambda: timeline.cut(now["unit"]))
        finally:
            res.wall_s = time.perf_counter() - start
            patches.restore()
        return res

    def _verify(self, res: PassResult, done) -> None:
        try:
            rc, stdout = _cli(["verify", "--suite", "fast", "--json"])
            done()
            report = verify_json(stdout)
        except Exception as exc:  # a raising verify fails the whole check list
            res.attempted += 1
            res.fail("verify", f"{type(exc).__name__}: {exc}")
            return
        res.extra["verify_rows"] = {r["name"]: r["runtime_s"] for r in report["rows"]}
        res.attempted += len(report["rows"])
        for row in report["rows"]:
            if not row["passed"]:
                res.fail(f"check:{row['name']}", "check failed")
        if rc != 0 or report["passed"] is not True:
            if not res.failed:
                res.attempted += 1
                res.fail("verify", f"exit code {rc}, passed={report['passed']}")

    def _sweep(self, inputs, res: PassResult, done) -> None:
        out = inputs["out"]
        shutil.rmtree(out, ignore_errors=True)
        try:
            rc, _ = _cli(["sweep", str(inputs["sweepfile"]), "--out", str(out),
                          "--workers", "1"])
            done()
            with open(out / "cells.csv", newline="", encoding="utf-8") as fh:
                cells = list(csv.DictReader(fh))
        except Exception as exc:  # a raising sweep fails every cell
            res.attempted += SWEEP_CELLS
            res.failed += SWEEP_CELLS
            res.errors.append(f"sweep: {type(exc).__name__}: {exc}")
            return
        shutil.rmtree(out, ignore_errors=True)
        res.attempted += max(len(cells), SWEEP_CELLS)
        if rc != 0 or len(cells) != SWEEP_CELLS:
            res.fail("sweep", f"exit code {rc}, {len(cells)} cells")
        for cell in cells:
            op = f"cell:{cell['index']}"
            if cell["status"] != "ok":
                res.fail(op, cell["error"])
                continue
            metric = float(cell["metric"])
            res.extra.setdefault("first_cell", (metric, inputs["cells"].get(cell["index"])))
            if not self.cell_ok(metric, inputs["cells"].get(cell["index"])):
                res.fail(op, "cell metric differs from the recorded one")

    @staticmethod
    def cell_ok(metric: float, expected) -> bool:
        return expected is not None and metric.hex() == expected

    def control(self, res: PassResult) -> bool:
        if "first_cell" not in res.extra:
            return False
        metric, expected = res.extra["first_cell"]
        return (self.cell_ok(metric, expected)
                and not self.cell_ok(math.nextafter(metric, math.inf), expected))

    def record(self, workdir: Path) -> int:
        inputs = self.build(0, False, workdir)
        rc, _ = _cli(["sweep", str(inputs["sweepfile"]), "--out", str(inputs["out"]),
                      "--workers", "1"])
        with open(inputs["out"] / "cells.csv", newline="", encoding="utf-8") as fh:
            cells = {c["index"]: float(c["metric"]).hex()
                     for c in csv.DictReader(fh) if c["status"] == "ok"}
        shutil.rmtree(inputs["out"], ignore_errors=True)
        if rc != 0 or len(cells) != SWEEP_CELLS:
            raise RuntimeError(f"sweep exit code {rc}, {len(cells)} ok cells")
        save_digests(self.name, {"T": self.T, "cells": cells})
        return len(cells)


WORKLOADS = {w.name: w for w in (ADVERSARIAL, SOFTMAX, ClosedForm())}
