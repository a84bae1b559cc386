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
    iters: int = 50                  # gm: round whose iterate is returned
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
            if self.iters < 1 or not 0 < self.nu < math.inf:
                raise ConfigurationError("gm requires iters >= 1, and nu > 0 and finite")
        if self.rule == "oracle_adversarial":
            if self.kappa is None or not 0 <= self.kappa < math.inf:
                raise ConfigurationError("oracle_adversarial requires kappa >= 0 and finite")
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
    """Smoothed Weiszfeld iteration from the coordinatewise mean; returns
    the iterate of round `iters`:

        beta_i = 1 / max(nu, ||v - x_i||),   v <- sum beta_i x_i / sum beta_i

    A round is a pure function of (mat, v), so once the iterate stack
    repeats an earlier one byte for byte, the rounds cycle from there on
    and the round-`iters` iterate is read off the cycle without running the
    remaining rounds. The result is bitwise that of all `iters` rounds.

    nu is an absolute floor on the distances, not one relative to the
    inputs' scale: the rule is scale-equivariant (gm(c X) = c gm(X)) only
    when nu is scaled by c too.

    The rounds run over a worker-major (n, R, d) copy of the C-ordered
    stack flattened to (R, n, d), with each beta summed over a contiguous
    (R, n) row, except at d = 1, where they stay in the input's layout.
    NumPy sums a contiguous axis pairwise and a strided one in order, and
    the input's n axis is contiguous only at d = 1, so every sum adds in
    the order it has over the input.
    """
    *lead, n, d = mat.shape
    m = mat.reshape(-1, n, d)      # (R, n, d)
    v = m.mean(axis=1)
    worker_major = d > 1
    w = np.ascontiguousarray(m.transpose(1, 0, 2)) if worker_major else m
    v_at_w = (1, -1, d) if worker_major else (-1, 1, d)
    diff = np.empty(w.shape)
    sq = np.empty(w.shape[:2])
    beta = np.empty((len(m), n))   # contiguous (R, n) rows
    den = np.empty((len(m), 1))
    sq_rows = sq.T if worker_major else sq
    beta_at_w = (beta.T if worker_major else beta)[..., None]
    num = np.empty_like(v)
    seen = [v]                     # seen[k]: the iterate after k rounds
    first = {v.tobytes(): 0}       # iterate bytes -> first round holding them
    for i in range(1, iters + 1):
        np.subtract(w, v.reshape(v_at_w), diff)
        np.multiply(diff, diff, diff)
        np.add.reduce(diff, axis=2, out=sq)
        np.sqrt(sq_rows, beta)
        np.maximum(nu, beta, out=beta)  # its positional out is deprecated
        np.reciprocal(beta, beta)
        np.multiply(beta_at_w, w, diff)
        np.add.reduce(diff, axis=0 if worker_major else 1, out=num)
        np.add.reduce(beta, axis=1, out=den, keepdims=True)
        v = num / den
        j = first.setdefault(v.tobytes(), i)
        if j != i:                 # v_i == v_j: period i - j from round j on
            v = seen[j + (iters - j) % (i - j)]
            break
        seen.append(v)
    return v.reshape(*lead, d)


# ---------------------------------------------------------------------------
# oracle-adversarial rules (honest-set aware)


def _honest_stats(mat: np.ndarray, honest: np.ndarray):
    """Honest mean (..., d) and dispersion (...) of an (..., n, d) stack;
    an (S, h) index array gives S honest subsets of an (n, d) input, with
    mean (S, d) and dispersion (S,). np.add.reduce(...) / h is bitwise
    what .mean computes. An honest set of every row in order reads mat
    itself, which is what np.take would copy."""
    n = mat.shape[-2]
    if honest.ndim == 1 and honest.size == n and honest.tolist() == list(range(n)):
        hm = mat
    else:
        hm = np.take(mat, honest, axis=-2)  # C order, as each row alone
    h = hm.shape[-2]
    mean = np.add.reduce(hm, axis=-2) / h
    dev = hm - mean[..., None, :]
    dev *= dev
    disp = np.add.reduce(np.add.reduce(dev, axis=-1), axis=-1) / h
    return mean, disp


def _values(x) -> np.ndarray:
    """The entries of a DenseVector, or an array as it is."""
    return x.values if isinstance(x, DenseVector) else x


def noise_drift(x, coin1, coin2, B, mu, sigma):
    """W(x; xi_1, xi_2), the drift noise_c2 subtracts (times sqrt(kappa))
    from the honest mean of the two-worker Bernoulli construction: B*mu*x
    when the coins agree, -B*mu*x + sigma on (1, 0) and B*mu*x + sigma on
    (0, 1). Coins are 0/1 (or bool) arrays, broadcast against x."""
    bmx = B * mu * x
    return np.where(coin1 == coin2, bmx, np.where(coin1, -bmx + sigma, bmx + sigma))


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
    noise_c2        mean_H - sqrt(kappa) * W(x; xi_1, xi_2) (`noise_drift`)
                    for the two-worker Bernoulli construction, with the coin
                    values reconstructed from the submissions.

    Each row of an (..., n, d) stack is answered on its own statistics.
    An ndarray honest_ids is taken to be sorted already (the training loop
    passes one); any other sequence is sorted here. variance_sign also
    takes an (S, h) array of S honest subsets of one (n, d) input and
    answers (S, d), row s bitwise the answer for subset s alone.
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
        if honest.shape != (2,) or mat.shape[-2] != 2:
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
        if honest.shape != (2,) or mat.shape[-2] != 2 or mat.shape[-1] != 1:
            raise ConfigurationError("noise_c2 expects the 1-D two-worker instance")
        xv = _values(context.x)
        x = float(xv[0])
        grads = inst.honest_grads(xv)[:, 0]
        resid = mat[..., honest, 0] - grads
        if np.any(np.abs(np.abs(resid) - sigma) > 1e-6 * max(1.0, sigma)):
            raise ConfigurationError(
                "noise_c2 could not reconstruct the coin values; submissions "
                "must be plain Bernoulli gradient draws (no momentum)"
            )
        xi = resid <= 0            # coin 1 pushes the draw down by sigma
        W = noise_drift(x, xi[..., 0], xi[..., 1], inst.analytic.B, inst.analytic.mu, sigma)
        return mean - sk * W[..., None]

    raise ConfigurationError(f"unknown oracle variant {variant!r}")


# ---------------------------------------------------------------------------
# dispatch


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
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
    raises NumericFailure, as a DenseVector would. The variance_sign oracle
    rule also answers an (S, h) honest_ids array of S subsets with (S, d).

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
    The honest subsets are every one if there are at most 120, else 32
    drawn per family; a family's subsets are scored in one array pass, with
    one aggregate call per family (the oracle rule answers every subset at
    once), and ties keep the first maximum in sample and subset order.
    """
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    if dim < 1:
        raise ConfigurationError("dim must be >= 1")
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
        all_subsets = np.array(list(itertools.combinations(range(n), h)), dtype=np.intp)

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
            subsets = np.array([np.sort(gen.choice(n, size=h, replace=False))
                                for _ in range(32)])
        # (S, dim) for the oracle rule; a blind rule's one (dim,) output serves all
        out = aggregate(spec, mat, honest_ids=subsets if spec.honest_aware else None,
                        context=context)
        # every subset's ratio at once: (S, h, dim) stats, (S,) ratios
        mean, disp = _honest_stats(mat, subsets)
        dev = out - mean
        num = np.vecdot(dev, dev)
        r = np.divide(num, disp, out=np.where(num > 1e-24, np.inf, 0.0), where=disp != 0.0)
        violation |= bool(np.isinf(r).any())
        k = int(np.argmax(r))  # the first maximum, as a strict > scan keeps it
        if r[k] > best or worst is None:
            best = float(r[k])
            worst = {"inputs": mat.tolist(), "honest_ids": subsets[k].tolist()}
    return RobustnessEstimate(
        kappa_hat=best, samples=samples, worst_case_input=worst, violation=violation
    )
