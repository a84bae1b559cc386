"""Timing at reference speed.

The CPU of the 2-core box this benchmark was built on keeps dropping to a
slower state, about 1.7x, for seconds or minutes at a time. Thread CPU time
slows down just as much, so it is not steal time. A best-of over repeats cannot
remove a slow spell that lasts a whole run. A fixed reference kernel slows
down by the same factor, though. Timed back to back with a `trainer.run`
call for 60 s, the ratio of the two stayed within 14.8-15.1 while the run's
own time moved between 8.7 and 16.0 ms.

So the benchmark runs the kernel between the pieces it times, and reports
each piece at reference speed:

    piece_s * K_REF_S / mean(kernel before, kernel after)

K_REF_S is the kernel's time in the fast state of that box. There, the
reported times equal the raw ones, which are printed alongside. The kernel
uses the same kind of work as the program, Python-level loops over tiny NumPy
arrays, and it does not touch robustsgd, so it is the same on every commit.
"""

from __future__ import annotations

import time

import numpy as np

K_REF_S = 0.00057


def _kernel() -> float:
    a = np.ones(10)
    acc = 0.0
    for i in range(400):
        a = a * 1.0000001 + 0.5
        acc += float(a[i % 10])
    return acc


def kernel_s(repeats: int = 3) -> float:
    """Best of a few kernel runs, so that one interrupt does not count."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Timeline:
    """Cuts a pass into timed pieces and runs the kernel between them.

    Each cut adds the piece's raw wall time to `raw[unit]` and its time at
    reference speed to `ref[unit]`; a unit cut several times is the sum of
    its pieces. Uncalibrated timelines, which the traced run uses so the
    kernel does not land in anyone's self time, add the raw time to both."""

    def __init__(self, raw: dict, ref: dict, calibrate: bool = True):
        self.raw, self.ref, self.calibrate = raw, ref, calibrate
        self.k = kernel_s() if calibrate else None
        self.last = time.perf_counter()

    def start(self) -> None:
        self.last = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.last

    def cut(self, unit: str) -> None:
        raw = time.perf_counter() - self.last
        ref = raw
        if self.calibrate:
            k = kernel_s()
            ref = raw * K_REF_S / ((self.k + k) / 2)
            self.k = k
        self.raw[unit] = self.raw.get(unit, 0.0) + raw
        self.ref[unit] = self.ref.get(unit, 0.0) + ref
        self.last = time.perf_counter()
