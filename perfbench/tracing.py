"""Outside-in tracing for the traced benchmark run.

The tracer wraps public functions of the `robustsgd` modules at the names
their callers look up (callers import by name, so `aggregate` is patched in
`robustsgd.trainer`, `robustsgd.attacks`, `robustsgd.verify` and
`robustsgd.aggregators` separately). Nothing inside the package changes.

For every wrapped name it counts calls and accumulates self time: the span's
duration minus the time its child spans cover. Coarse boundaries (a run, an
aggregation, a sweep cell, a verify check) are also kept as spans in memory,
tagged with the current op id, and written out once at the end. Hot leaves
called once per worker per step (vector constructors, gradient oracles,
schedules) are counted and timed but not kept as spans, which keeps a traced
verify pass at tens of thousands of spans instead of millions.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# metric prefix -> (sites where callers look the name up, kept as spans?)
# A site is (module, dotted attribute); "Class.method" patches the class.
SITES = {
    "core.DenseVector": ([("robustsgd.core", "DenseVector.__init__")], False),
    "core.RngStream": ([("robustsgd.core", "RngStream.__init__")], False),
    "problems.stochastic_gradient": ([("robustsgd.trainer", "stochastic_gradient")], False),
    "problems.loss_grad": (
        [("robustsgd.problems", "SyntheticClassificationTask.loss_grad")], False),
    "problems.grad_f_H": ([("robustsgd.problems", "ProblemInstance.grad_f_H")], False),
    "problems.f_H": ([("robustsgd.problems", "ProblemInstance.f_H")], False),
    "problems.certify_dissimilarity": (
        [("robustsgd.verify", "certify_dissimilarity"),
         ("robustsgd.cli", "certify_dissimilarity")], True),
    "attacks.alie": ([("robustsgd.trainer", "alie")], True),
    "attacks.sign_flip": ([("robustsgd.trainer", "sign_flip")], False),
    "attacks.byzantine_oracle": ([("robustsgd.trainer", "_byzantine_honest_style")], False),
    "aggregators.aggregate": (
        [("robustsgd.trainer", "aggregate"), ("robustsgd.attacks", "aggregate"),
         ("robustsgd.verify", "aggregate"), ("robustsgd.aggregators", "aggregate")], True),
    "aggregators.krum": ([("robustsgd.aggregators", "krum")], False),
    "aggregators.multi_krum": ([("robustsgd.aggregators", "multi_krum")], False),
    "aggregators.cwm": ([("robustsgd.aggregators", "cwm")], False),
    "aggregators.cwtm": ([("robustsgd.aggregators", "cwtm")], False),
    "aggregators.geometric_median": ([("robustsgd.aggregators", "geometric_median")], False),
    "aggregators.oracle_adversarial": (
        [("robustsgd.aggregators", "oracle_adversarial")], False),
    "aggregators.estimate_kappa": (
        [("robustsgd.verify", "estimate_kappa"), ("robustsgd.cli", "estimate_kappa")], True),
    "trainer.run": (
        [("robustsgd.trainer", "run"), ("robustsgd.verify", "run"),
         ("robustsgd.sweep", "run"), ("robustsgd.cli", "run")], True),
    "trainer.schedules": (
        [("robustsgd.trainer", "schedules"), ("robustsgd.verify", "schedules")], False),
    "trainer.run_noise_floor_replicates": (
        [("robustsgd.verify", "run_noise_floor_replicates")], True),
    "sweep.run_cell": ([("robustsgd.sweep", "run_cell")], True),
    "configfile.materialize": (
        [("robustsgd.configfile", "materialize"), ("robustsgd.sweep", "materialize")], True),
    "verify.noise_floor_exact_moments": (
        [("robustsgd.verify", "noise_floor_exact_moments")], True),
    "cli.artifacts": (
        [("robustsgd.sweep", "SweepResult.cells_csv"),
         ("robustsgd.sweep", "SweepResult.best_csv"),
         ("robustsgd.cli", "render_config")], True),
}


def _resolve(module: str, attr: str):
    """(owner object, final attribute name) for a site, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def replace(self, module: str, attr: str, make) -> bool:
        """Set the site to make(original); False if the site is absent."""
        found = _resolve(module, attr)
        if found is None:
            return False
        owner, name = found
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


@dataclass
class Tracer:
    """Counts, self times and spans for the wrapped names.

    A span is (span id, parent span id or -1, op id, name, start s, end s),
    times from time.perf_counter relative to the tracer's creation."""

    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    steps: int = 0
    aggregate_in_run: int = 0
    op: str = "-"
    _stack: list = field(default_factory=list)
    _patches: Patches = field(default_factory=Patches)
    _t0: float = field(default_factory=time.perf_counter)

    def install(self) -> None:
        for metric, (sites, keep_span) in SITES.items():
            self.calls[metric] = 0
            self.self_s[metric] = 0.0
            present = [self._patches.replace(mod, attr, self._wrapper(metric, keep_span))
                       for mod, attr in sites]
            if not any(present):
                self.missing.append(metric)
        # verify's per-check helper names the check each span belongs to
        self._patches.replace("robustsgd.verify", "_timed", self._check_op)

    def uninstall(self) -> None:
        self._patches.restore()

    def _check_op(self, original):
        tracer = self

        def timed(rows, name, *args, **kwargs):
            outer, tracer.op = tracer.op, f"check:{name}"
            try:
                return original(rows, name, *args, **kwargs)
            finally:
                tracer.op = outer
        return timed

    def _wrapper(self, metric: str, keep_span: bool):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        is_run = metric == "trainer.run"
        is_aggregate = metric == "aggregators.aggregate"
        is_cell = metric == "sweep.run_cell"

        def make(original):
            def traced(*args, **kwargs):
                if is_run:
                    tracer.steps += args[0].T
                elif is_aggregate and any(f[2] for f in stack):
                    tracer.aggregate_in_run += 1
                outer_op = tracer.op
                if is_cell:
                    tracer.op = f"cell:{args[1]}"
                op = tracer.op
                span_id = len(tracer.spans) if keep_span else -1
                if keep_span:
                    tracer.spans.append(None)  # reserve the id; filled on exit
                frame = [0.0, span_id, is_run]
                stack.append(frame)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    tracer.op = outer_op
                    dur = end - start
                    tracer.calls[metric] += 1
                    tracer.self_s[metric] += dur - frame[0]
                    parent = -1
                    if stack:
                        stack[-1][0] += dur
                        parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                    if keep_span:
                        tracer.spans[span_id] = (span_id, parent, op, metric,
                                                 start - tracer._t0, end - tracer._t0)
            return traced
        return make

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for s in self.spans:
                fh.write(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{s[4]:.9f}\t{s[5]:.9f}\n")
