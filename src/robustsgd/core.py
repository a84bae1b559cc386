"""Foundational types shared by every other module: dense vectors,
worker populations, deterministic per-worker RNG streams, and the run
configuration container.

All arithmetic is 64-bit IEEE floating point. Vectors are immutable after
construction and never allow NaN/Inf to escape a public operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np


class ConfigurationError(ValueError):
    """A run/aggregator/schedule configuration violates a precondition."""


class DataError(ValueError):
    """A data sample is malformed (e.g. label out of range)."""


class ContractViolation(RuntimeError):
    """An internal API was called outside its contract."""


class NumericFailure(RuntimeError):
    """A non-finite value (NaN/Inf) appeared during a run. Raised by
    trainer.run, it names the iteration and the column (None when a step's
    own check raised) and carries the record of every row before it."""

    def __init__(self, message: str, iteration=None, column=None, record=None):
        super().__init__(message)
        self.iteration = iteration
        self.column = column
        self.record = record


class DenseVector:
    """Immutable d-dimensional real vector (d >= 1), the universal carrier
    for models, gradients and momenta."""

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[float] | np.ndarray):
        arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
        if arr.size < 1:
            raise ConfigurationError("DenseVector requires dimension >= 1")
        if not np.all(np.isfinite(arr)):
            raise NumericFailure("DenseVector entries must be finite")
        arr.setflags(write=False)
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        """Read-only numpy view of the entries."""
        return self._values

    @property
    def dim(self) -> int:
        return self._values.size

    def __len__(self) -> int:
        return self._values.size

    def __getitem__(self, i: int) -> float:
        return float(self._values[i])

    def __iter__(self):
        return iter(self._values.tolist())

    def _check_dim(self, other: "DenseVector") -> None:
        if self.dim != other.dim:
            raise ConfigurationError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def __add__(self, other: "DenseVector") -> "DenseVector":
        self._check_dim(other)
        return DenseVector(self._values + other._values)

    def __sub__(self, other: "DenseVector") -> "DenseVector":
        self._check_dim(other)
        return DenseVector(self._values - other._values)

    def __mul__(self, scalar: float) -> "DenseVector":
        return DenseVector(self._values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "DenseVector":
        return DenseVector(-self._values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DenseVector)
            and self.dim == other.dim
            and bool(np.all(self._values == other._values))
        )

    def __hash__(self) -> int:
        return hash(self._values.tobytes())

    def __repr__(self) -> str:
        return f"DenseVector({self._values.tolist()})"


def as_matrix(updates: Sequence[DenseVector]) -> np.ndarray:
    """Stack vectors into an (n, d) float64 matrix (internal plumbing)."""
    if not updates:
        raise ConfigurationError("empty update list")
    d = updates[0].dim
    for u in updates:
        if u.dim != d:
            raise ConfigurationError("updates have mixed dimensions")
    return np.stack([u.values for u in updates], axis=0)


@dataclass(frozen=True)
class WorkerPopulation:
    """n workers, b of them Byzantine; honest_ids is the honest index set H
    with |H| = h = n - b.  Requires b < n/2."""

    n: int
    b: int
    honest_ids: frozenset = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError("population requires n >= 1")
        if not 0 <= self.b or not self.b < self.n / 2:
            raise ConfigurationError(
                f"population requires 0 <= b < n/2; got n={self.n}, b={self.b}"
            )
        honest = self.honest_ids
        if honest is None:
            honest = frozenset(range(self.n - self.b))
        honest = frozenset(int(i) for i in honest)
        object.__setattr__(self, "honest_ids", honest)
        if not honest <= set(range(self.n)):
            raise ConfigurationError("honest_ids outside 0..n-1")
        if len(honest) != self.n - self.b:
            raise ConfigurationError(
                f"expected |honest_ids| = n - b = {self.n - self.b}, "
                f"got {len(honest)}"
            )

    @property
    def h(self) -> int:
        return self.n - self.b

    @property
    def byzantine_ids(self) -> frozenset:
        return frozenset(range(self.n)) - self.honest_ids

    def honest_sorted(self) -> list:
        return sorted(self.honest_ids)


class RngStream:
    """Deterministic random stream keyed by (seed, worker, purpose).

    Identical keys yield identical draw sequences regardless of thread
    schedule or creation order; distinct keys give statistically
    independent streams (counter-based splitting via SeedSequence).
    """

    __slots__ = ("seed", "worker", "purpose", "_gen")

    def __init__(self, seed: int, worker: int = 0, purpose: str = "main"):
        self.seed = int(seed)
        self.worker = int(worker)
        self.purpose = str(purpose)
        key = [self.seed & 0xFFFFFFFFFFFFFFFF, self.worker]
        key.extend(self.purpose.encode("utf-8"))
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def spawn(self, purpose: str) -> "RngStream":
        """Derive a sibling stream with a different purpose tag."""
        return RngStream(self.seed, self.worker, purpose)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, worker={self.worker}, purpose={self.purpose!r})"


@dataclass(frozen=True)
class RunConfig:
    """Everything a single experiment needs: the problem, the aggregation
    rule, the attack, the step/momentum schedule, horizon, start point,
    master seed, and the Monte-Carlo replicate count."""

    problem: Any
    aggregator: Any
    attack: Any
    schedule: Any
    T: int
    x0: DenseVector
    seed: int = 0
    replicates: int = 1

    def __post_init__(self):
        if self.T < 1:
            raise ConfigurationError(f"T must be >= 1, got {self.T}")
        if self.replicates < 1:
            raise ConfigurationError(
                f"replicates must be >= 1, got {self.replicates}"
            )
