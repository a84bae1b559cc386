"""Aggregation rules and an empirical robustness estimator.

Every rule is an array kernel: it reduces over axis -2 of an (..., n, d)
array, so one code path serves a single (n, d) input and a stack (R, n, d)
of R inputs, returning (..., d). Row r of a stacked result is bitwise the
rule applied to row r alone. `aggregate` is the one boundary: it stacks a
Sequence[DenseVector] once (an ndarray passes through), checks the stack,
calls the kernel, and wraps the output in a DenseVector only for list
input. Every condition on a rule's parameters is checked once, by
AggregatorSpec; the kernels assume it.

Implemented rules: plain averaging, Krum and Multi-Krum, coordinatewise
median and trimmed mean, the smoothed-Weiszfeld geometric median, and
three oracle-adversarial rules that know the honest set and inject the
largest deviation a (b, kappa)-robust rule is allowed:

    ||A(x_1..x_n) - mean_H||^2 = kappa * (1/h) sum_H ||x_i - mean_H||^2.

Honest indices are never passed to the ordinary rules — only the
oracle-adversarial variants receive them, by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    ConfigurationError,
    DenseVector,
    NumericFailure,
    RngStream,
    as_matrix,
)

RULES = ("average", "krum", "multi_krum", "cwm", "cwtm", "gm", "oracle_adversarial")
ORACLE_VARIANTS = ("variance_sign", "hetero_c1", "noise_c2")


@dataclass(frozen=True)
class AggregatorSpec:
    rule: str
    n: int
    b: int = 0
    q: Optional[int] = None          # multi_krum / cwtm
    iters: int = 50                  # gm
    nu: float = 1e-8                 # gm smoothing floor
    kappa: Optional[float] = None    # oracle_adversarial
    variant: Optional[str] = None    # oracle_adversarial

    def __post_init__(self):
        if self.rule not in RULES:
            raise ConfigurationError(f"unknown aggregation rule {self.rule!r}")
        if self.n < 1 or self.b < 0 or not self.b < self.n / 2:
            raise ConfigurationError(
                f"aggregator requires 0 <= b < n/2; got n={self.n}, b={self.b}"
            )
        if self.rule in ("krum", "multi_krum") and self.n - self.b - 1 < 1:
            raise ConfigurationError("krum requires n - b - 1 >= 1")
        if self.rule == "multi_krum":
            if self.q is None or not 1 <= self.q <= self.n:
                raise ConfigurationError("multi_krum requires 1 <= q <= n")
        if self.rule == "cwtm":
            if self.q is None or self.q < 1 or self.n - 2 * self.q < 1:
                raise ConfigurationError("cwtm requires 1 <= q and n - 2q >= 1")
        if self.rule == "gm":
            if self.iters < 1 or not self.nu > 0:
                raise ConfigurationError("gm requires iters >= 1 and nu > 0")
        if self.rule == "oracle_adversarial":
            if self.kappa is None or self.kappa < 0:
                raise ConfigurationError("oracle_adversarial requires kappa >= 0")
            if self.variant not in ORACLE_VARIANTS:
                raise ConfigurationError(
                    f"oracle_adversarial variant must be one of {ORACLE_VARIANTS}"
                )

    @property
    def honest_aware(self) -> bool:
        return self.rule == "oracle_adversarial"


@dataclass(frozen=True)
class OracleContext:
    """Side information the oracle-adversarial variants need: the current
    model x and the honest minimizer x_star (each a DenseVector or a (d,)
    array), and (for construction-bound variants) the problem instance
    itself."""

    x: Union[DenseVector, np.ndarray, None] = None
    x_star: Union[DenseVector, np.ndarray, None] = None
    instance: object = None


@dataclass
class RobustnessEstimate:
    kappa_hat: float
    samples: int
    worst_case_input: Optional[dict]
    violation: bool = False


# ---------------------------------------------------------------------------
# ordinary rules (honest-set blind)


def average(mat: np.ndarray) -> np.ndarray:
    return mat.mean(axis=-2)


def _krum_scores(mat: np.ndarray, b: int) -> np.ndarray:
    """Score of each vector: sum of squared distances to its n-b-1 nearest
    other vectors. (..., n, d) -> (..., n)."""
    n = mat.shape[-2]
    keep = n - b - 1
    diff = mat[..., :, None, :] - mat[..., None, :, :]
    d2 = np.einsum("...ijk,...ijk->...ij", diff, diff)
    d2.reshape(d2.shape[:-2] + (n * n,))[..., :: n + 1] = np.inf  # diagonal
    d2.sort(axis=-1)
    return d2[..., :keep].sum(axis=-1)


def _rows(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows idx[..., k] of each input: (..., n, d), (..., k) -> (..., k, d)."""
    flat = mat.reshape((-1,) + mat.shape[-2:])
    picked = flat[np.arange(flat.shape[0])[:, None], idx.reshape(flat.shape[0], -1)]
    return picked.reshape(idx.shape + mat.shape[-1:])


def krum(mat: np.ndarray, b: int) -> np.ndarray:
    """Vector closest to its n-b-1 neighbors; ties broken by smallest index."""
    best = np.argmin(_krum_scores(mat, b), axis=-1)
    return _rows(mat, best[..., None])[..., 0, :]


def multi_krum(mat: np.ndarray, b: int, q: int) -> np.ndarray:
    """Mean of the q lowest-score vectors (q = 1 reduces to Krum; q = n with
    b = 0 is the plain average)."""
    chosen = np.argsort(_krum_scores(mat, b), axis=-1, kind="stable")[..., :q]
    return _rows(mat, chosen).mean(axis=-2)


def cwm(mat: np.ndarray) -> np.ndarray:
    """Coordinatewise median; even count takes the midpoint of the central
    pair.

    Bitwise np.median: the central one or two sorted values are averaged by
    .mean, whose sum starts from +0.0 as np.median's does (so a -0.0 median
    reads +0.0), and a coordinate holding a NaN reads the NaN that sorts
    last, as np.median's check returns it."""
    n = mat.shape[-2]
    lo = (n - 1) // 2
    s = np.sort(mat, axis=-2)
    out = s[..., lo:n - lo, :].mean(axis=-2)
    last = s[..., -1, :]
    nan = np.isnan(last)
    if nan.any():
        np.copyto(out, last, where=nan)
    return out


def cwtm(mat: np.ndarray, q: int) -> np.ndarray:
    """Coordinatewise trimmed mean: drop the q smallest and q largest values
    per coordinate, average the rest."""
    n = mat.shape[-2]
    return np.sort(mat, axis=-2)[..., q : n - q, :].mean(axis=-2)


def geometric_median(mat: np.ndarray, iters: int = 50, nu: float = 1e-8) -> np.ndarray:
    """Smoothed Weiszfeld iteration, run for exactly `iters` rounds from the
    coordinatewise mean:

        beta_i = 1 / max(nu, ||v - x_i||),   v <- sum beta_i x_i / sum beta_i

    nu is an absolute floor on the distances, not one relative to the
    inputs' scale: the rule is scale-equivariant (gm(c X) = c gm(X)) only
    when nu is scaled by c too.
    """
    v = mat.mean(axis=-2)
    for _ in range(iters):
        dist = np.sqrt(((mat - v[..., None, :]) ** 2).sum(axis=-1))
        beta = 1.0 / np.maximum(nu, dist)
        v = (beta[..., None] * mat).sum(axis=-2) / beta.sum(axis=-1, keepdims=True)
    return v


# ---------------------------------------------------------------------------
# oracle-adversarial rules (honest-set aware)


def _honest_stats(mat: np.ndarray, honest: Sequence[int]):
    """Honest mean (..., d) and dispersion (...) of an (..., n, d) stack.
    np.add.reduce(...) / h is bitwise what .mean computes."""
    hm = np.take(mat, honest, axis=-2)  # C order, as each row alone
    h = hm.shape[-2]
    mean = np.add.reduce(hm, axis=-2) / h
    disp = np.add.reduce(((hm - mean[..., None, :]) ** 2).sum(axis=-1), axis=-1) / h
    return mean, disp


def _values(x) -> np.ndarray:
    """The entries of a DenseVector, or an array as it is."""
    return x.values if isinstance(x, DenseVector) else x


def oracle_adversarial(
    mat: np.ndarray,
    honest_ids: Sequence[int],
    kappa: float,
    variant: str,
    context: Optional[OracleContext] = None,
) -> np.ndarray:
    """Honest-set-aware rules that realize the worst deviation permitted by
    (b, kappa)-robustness, exactly:

    variance_sign   mean_H -/+ sqrt(kappa * V^2) * u, with V^2 the honest
                    dispersion and u the unit displacement of the model from
                    x_star (at zero displacement: +e_1), so the model is
                    pushed away from the optimum each step;
    hetero_c1       mean_H - sqrt(kappa) * (u_first - mean_H), the drift rule
                    for the two-worker heterogeneous construction (valid for
                    both gradient and momentum submissions);
    noise_c2        mean_H - sqrt(kappa) * W(x; xi_1, xi_2) for the
                    two-worker Bernoulli construction, with the coin values
                    reconstructed from the submissions.

    Each row of an (..., n, d) stack is answered on its own statistics.
    An ndarray honest_ids is taken to be sorted already (the training loop
    passes one); any other sequence is sorted here.
    """
    if isinstance(honest_ids, np.ndarray):
        honest = honest_ids
    else:
        honest = np.array(sorted(int(i) for i in honest_ids), dtype=np.intp)
    if not honest.size:
        raise ConfigurationError("oracle rules need a nonempty honest set")
    mean, disp = _honest_stats(mat, honest)
    sk = math.sqrt(kappa)

    if variant == "variance_sign":
        if context is None or context.x is None or context.x_star is None:
            raise ConfigurationError(
                "variance_sign needs context with the model x and x_star"
            )
        disp_vec = _values(context.x) - _values(context.x_star)
        nrm = math.sqrt(float(np.dot(disp_vec, disp_vec)))
        mag = np.sqrt(kappa * disp)
        if nrm == 0.0:
            out = mean.copy()
            out[..., 0] += mag
        else:
            out = mean - mag[..., None] * (disp_vec / nrm)
        return out

    inst = context.instance if context is not None else None
    if variant == "hetero_c1":
        if inst is None or getattr(inst, "construction", None) != "hetero":
            raise ConfigurationError(
                "hetero_c1 applies only to the two-worker heterogeneous construction"
            )
        if len(honest) != 2 or mat.shape[-2] != 2:
            raise ConfigurationError("hetero_c1 expects exactly two honest workers")
        return mean - sk * (mat[..., honest[0], :] - mean)

    if variant == "noise_c2":
        if inst is None or getattr(inst, "construction", None) != "noise":
            raise ConfigurationError(
                "noise_c2 applies only to the two-worker Bernoulli construction"
            )
        if context.x is None:
            raise ConfigurationError("noise_c2 needs context with the model x")
        sigma = inst.noise.sigma
        if not sigma > 0:
            raise ConfigurationError("noise_c2 requires bernoulli_pm noise with sigma > 0")
        if len(honest) != 2 or mat.shape[-2] != 2 or mat.shape[-1] != 1:
            raise ConfigurationError("noise_c2 expects the 1-D two-worker instance")
        xv = _values(context.x)
        x = float(xv[0])
        mu = inst.analytic.mu
        B = inst.analytic.B
        grads = inst.grads(xv)[honest, 0]
        resid = mat[..., honest, 0] - grads
        if np.any(np.abs(np.abs(resid) - sigma) > 1e-6 * max(1.0, sigma)):
            raise ConfigurationError(
                "noise_c2 could not reconstruct the coin values; submissions "
                "must be plain Bernoulli gradient draws (no momentum)"
            )
        xi = resid <= 0            # coin 1 pushes the draw down by sigma
        bmx = B * mu * x
        W = np.where(
            xi[..., 0] == xi[..., 1],
            bmx,
            np.where(xi[..., 0], -bmx + sigma, bmx + sigma),   # (1, 0) / (0, 1)
        )
        return mean - sk * W[..., None]

    raise ConfigurationError(f"unknown oracle variant {variant!r}")


# ---------------------------------------------------------------------------
# dispatch


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericFailure(f"{what} entries must be finite")


def aggregate(
    spec: AggregatorSpec,
    updates: Union[Sequence[DenseVector], np.ndarray],
    honest_ids: Optional[Sequence[int]] = None,
    context: Optional[OracleContext] = None,
) -> Union[DenseVector, np.ndarray]:
    """Apply the configured rule to n update vectors: the one boundary
    between the caller's input and the rules' array kernels.

    `updates` is either a Sequence[DenseVector], stacked once to (n, d) and
    answered with a DenseVector, or an ndarray of shape (..., n, d) holding
    a stack of inputs, answered with an (..., d) ndarray whose row r equals
    the rule applied to stack row r alone. A non-finite entry, in or out,
    raises NumericFailure, as a DenseVector would.

    honest_ids must be supplied iff the rule is oracle_adversarial; passing
    them to any other rule is a configuration error (ordinary rules are
    honest-set blind by contract).
    """
    stacked = isinstance(updates, np.ndarray)
    if stacked and updates.ndim < 2:
        raise ConfigurationError("stacked updates must have shape (..., n, d)")
    count = updates.shape[-2] if stacked else len(updates)
    if count != spec.n:
        raise ConfigurationError(
            f"expected {spec.n} updates, got {count}"
        )
    if spec.honest_aware:
        if honest_ids is None:
            raise ConfigurationError(
                "oracle_adversarial requires honest_ids"
            )
    elif honest_ids is not None:
        raise ConfigurationError(
            f"rule {spec.rule!r} must not receive honest_ids"
        )
    # reductions must walk every row in the order they would alone
    mat = np.ascontiguousarray(updates) if stacked else as_matrix(updates)
    _check_finite(mat, "update")

    # each rule is called by its module-global name, so a wrapper set on
    # that name (perfbench's tracer) sees the call
    if spec.honest_aware:
        out = oracle_adversarial(mat, honest_ids, spec.kappa, spec.variant, context)
    elif spec.rule == "average":
        out = average(mat)
    elif spec.rule == "krum":
        out = krum(mat, spec.b)
    elif spec.rule == "multi_krum":
        out = multi_krum(mat, spec.b, spec.q)
    elif spec.rule == "cwm":
        out = cwm(mat)
    elif spec.rule == "cwtm":
        out = cwtm(mat, spec.q)
    elif spec.rule == "gm":
        out = geometric_median(mat, spec.iters, spec.nu)
    else:
        raise ConfigurationError(f"unhandled rule {spec.rule!r}")
    _check_finite(out, "aggregate")
    return out if stacked else DenseVector(out)


# ---------------------------------------------------------------------------
# empirical robustness estimation


def _ratio(out: np.ndarray, mat: np.ndarray, honest) -> float:
    """||out - mean_H||^2 / dispersion_H; inf for a zero-dispersion input
    with a nonzero numerator."""
    mean, disp = _honest_stats(mat, honest)
    disp = float(disp)
    dev = out - mean
    num = float(np.dot(dev, dev))
    if disp == 0.0:
        return math.inf if num > 1e-24 else 0.0
    return num / disp


def estimate_kappa(
    spec: AggregatorSpec,
    samples: int = 1000,
    dim: int = 2,
    rng: Optional[RngStream] = None,
) -> RobustnessEstimate:
    """Empirical lower bound on any valid robustness coefficient kappa for
    the rule: the max over sampled families of spec.n inputs and over honest
    subsets of size spec.n - spec.b of

        ||A(x) - mean_H||^2 / ((1/h) sum_H ||x_i - mean_H||^2).

    Families mix Gaussian clouds (scales 0.1/1/10), planted outliers at
    magnitudes 1/1e3/1e6, and coordinate-axis spikes. A zero-dispersion
    family with a nonzero numerator is flagged as a robustness violation.
    """
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    if spec.honest_aware and spec.variant != "variance_sign":
        raise ConfigurationError(
            "estimate_kappa supports the variance_sign oracle variant only; "
            "the construction-bound variants need their own instances"
        )
    if rng is None:
        rng = RngStream(0, worker=0, purpose="kappa")
    gen = rng.generator
    n, b = spec.n, spec.b
    h = n - b

    all_subsets = None
    if math.comb(n, h) <= 120:
        all_subsets = [list(s) for s in itertools.combinations(range(n), h)]

    best = 0.0
    worst = None
    violation = False
    scales = (0.1, 1.0, 10.0)
    outlier_mags = (1.0, 1e3, 1e6)

    for s in range(samples):
        kind = s % 3
        scale_ = scales[(s // 3) % len(scales)]
        mat = scale_ * gen.standard_normal((n, dim))
        if kind == 1 and b >= 1:
            mag = outlier_mags[(s // 9) % len(outlier_mags)]
            direction = gen.standard_normal(dim)
            direction /= math.sqrt(float(np.dot(direction, direction)))
            for j in range(b):
                mat[n - 1 - j] = mag * direction
        elif kind == 2:
            mat = np.zeros((n, dim))
            for i in range(n):
                mat[i, i % dim] = scale_ * (1 + i)
        context = None
        if spec.honest_aware:
            context = OracleContext(x=gen.standard_normal(dim), x_star=np.zeros(dim))
        if all_subsets is not None:
            subsets = all_subsets
        else:
            subsets = [sorted(gen.choice(n, size=h, replace=False).tolist()) for _ in range(32)]
        if not spec.honest_aware:
            out = aggregate(spec, mat)  # honest-set blind: one output per sample
        for honest in subsets:
            if spec.honest_aware:
                out = aggregate(spec, mat, honest_ids=honest, context=context)
            r = _ratio(out, mat, honest)
            if math.isinf(r):
                violation = True
            if r > best or worst is None:
                best = min(r, math.inf)
                worst = {"inputs": mat.tolist(), "honest_ids": list(honest)}
    return RobustnessEstimate(
        kappa_hat=best, samples=samples, worst_case_input=worst, violation=violation
    )
