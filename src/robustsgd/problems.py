"""Synthetic objective families with analytic ground truth.

Three constructive families drive the verification suite:

* a two-worker heterogeneous family  f1 = ((mu+delta)/2)x^2 + eps*x,
  f2 = ((mu-delta)/2)x^2 - eps*x  with delta = sqrt(3)*B*mu/2, eps = G/2,
  whose honest average is (mu/2)x^2;
* a two-worker noisy family  f1 = ((1+B)mu/2)x^2, f2 = ((1-B)mu/2)x^2
  with a +/-sigma Bernoulli gradient oracle;
* an n-worker family of k + k + (n-2k) quadratics whose gradient
  dissimilarity meets  G^2 + B^2*||grad f_H||^2  with equality.

Also here: a quadratic dissimilarity certifier with an exact
negative-semidefiniteness test, the pointwise dissimilarity gap, a
stochastic gradient oracle, and a desk-scale synthetic classification task
used to exercise the label-flip attack. All read ProblemInstance.grads or
its honest rows, ProblemInstance.honest_grads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .attacks import label_flip
from .core import (
    ConfigurationError,
    ContractViolation,
    DataError,
    DenseVector,
    RngStream,
    WorkerPopulation,
)


@dataclass(frozen=True)
class QuadraticLocal:
    """Diagonal quadratic local objective
    f_i(x) = sum_j (a_j/2) x_j^2 + c_j x_j, with exact gradient a*x + c."""

    a: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=np.float64)).copy()
        c = np.atleast_1d(np.asarray(self.c, dtype=np.float64)).copy()
        if a.shape != c.shape:
            raise ConfigurationError("quadratic coefficients a and c must match in shape")
        a.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.a.size


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic-gradient noise. kinds:

    none          exact gradients; sigma is stored as 0 whatever is passed
    gaussian      g = grad + sigma/sqrt(d) * N(0, I)    (E||g-grad||^2 = sigma^2)
    bernoulli_pm  g = grad + sigma/sqrt(d) * s, s in {-1,+1}^d uniform
                  (per coordinate: +sigma/sqrt(d) when the underlying draw
                  xi is 0, -sigma/sqrt(d) when xi is 1; d=1 gives the exact
                  two-point +/-sigma oracle)
    minibatch     mean of m per-sample gradients (classification tasks)
    """

    kind: str = "none"
    sigma: float = 0.0
    m: int = 1

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "bernoulli_pm", "minibatch"):
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise ConfigurationError("sigma must be >= 0")
        if self.kind == "minibatch" and self.m < 1:
            raise ConfigurationError("minibatch size must be >= 1")
        if self.kind == "none":
            object.__setattr__(self, "sigma", 0.0)

    @property
    def deterministic(self) -> bool:
        return self.kind != "minibatch" and self.sigma == 0.0


@dataclass(frozen=True)
class Analytic:
    """Known analytic facts about an instance. L is an upper bound on the
    smoothness of every honest local (hence of their average); mu is the
    PL/strong-convexity constant of the honest average when declared."""

    L: float
    mu: Optional[float]
    G: Optional[float]
    B: Optional[float]
    x_star: Optional[DenseVector] = None
    x_F_star: Optional[DenseVector] = None

    def __post_init__(self):
        if self.mu is not None:
            if not self.mu > 0:
                raise ConfigurationError("PL constant mu must be > 0")
            if self.L < self.mu:
                raise ConfigurationError(
                    f"need L >= mu, got L={self.L}, mu={self.mu}"
                )


# Logit rows per class past which _probs takes the class maximum column by
# column: a reduction along the short class axis costs about 0.05 us a row,
# np.maximum about 1 us a column (2-core Xeon, NumPy 2.4).
_COLUMN_MAX_ROWS_PER_CLASS = 24


@dataclass(frozen=True)
class SyntheticClassificationTask:
    """Desk-scale multinomial logistic regression on Gaussian-mixture data,
    partitioned across workers by a per-class Dirichlet(alpha) draw. Every
    label must lie in [0, n_classes), or construction raises DataError
    naming the worker: the kernel picks each label's one-hot row by index,
    which would wrap a negative label onto another class without a word,
    and would stop a label past the last class only mid-run, with a bare
    IndexError."""

    features: tuple        # per worker: (m_i, dim) arrays
    labels: tuple          # per worker: (m_i,) int arrays
    n_classes: int
    dim: int

    def __post_init__(self):
        y = np.concatenate(self.labels) if self.labels else np.empty(0, dtype=np.int64)
        if y.size and not (y.min() >= 0 and y.max() < self.n_classes):
            w = next(w for w, yw in enumerate(self.labels)
                     if np.any((yw < 0) | (yw >= self.n_classes)))
            raise DataError(f"worker {w}: labels must lie in [0, {self.n_classes}), "
                            f"got {self.labels[w].min()} .. {self.labels[w].max()}")

    @property
    def param_dim(self) -> int:
        # weights plus bias, flattened row-major: (C, dim + 1)
        return self.n_classes * (self.dim + 1)

    @functools.cached_property
    def _one_hot(self) -> np.ndarray:
        """Row c is the one-hot encoding of class c, (n_classes, n_classes)."""
        return np.eye(self.n_classes)

    @functools.cached_property
    def shards(self):
        """The workers' shards concatenated in worker order, built on first
        use: (features (N, dim), labels (N,), start of each worker's
        segment, its size, and each sample's shard size as an (N, 1) float
        column, which divides as the int does without a cast per call)."""
        sizes = np.array([y.size for y in self.labels])
        return (np.concatenate(self.features), np.concatenate(self.labels),
                np.cumsum(sizes) - sizes, sizes,
                np.repeat(sizes, sizes)[:, None].astype(np.float64))

    def _probs(self, x: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Softmax class probabilities of the samples X (..., k, dim) under
        the flat parameters x, (..., k, n_classes), or under each row of a
        stack x (K, d), (K, ..., k, n_classes). The logits of each (k, dim)
        slice take one matmul, so a stack of batches or of parameters gives
        every slice bitwise as a call on that batch and parameter alone.

        The logits are shifted by their class maximum, exponentiated and
        normalised in place. Past _COLUMN_MAX_ROWS_PER_CLASS rows per class
        the maximum is taken column by column: a maximum is exact in any
        order, and where the order picks -0.0 over +0.0 the shifted logit is
        still a zero, whose exp is 1, so the probabilities keep their bits."""
        W = x.reshape(*x.shape[:-1], *(1,) * (X.ndim - 2), self.n_classes, self.dim + 1)
        z = X @ W[..., :-1].mT
        z += W[..., None, :, -1]
        if z.size // self.n_classes > _COLUMN_MAX_ROWS_PER_CLASS * self.n_classes:
            top = z[..., :1].copy()
            for c in range(1, self.n_classes):
                np.maximum(top, z[..., c:c + 1], out=top)
        else:
            top = np.maximum.reduce(z, axis=-1, keepdims=True)
        z -= top
        np.exp(z, out=z)
        z /= np.add.reduce(z, axis=-1, keepdims=True)
        return z

    def _residual(self, p: np.ndarray, y: np.ndarray, m) -> np.ndarray:
        """(p - onehot(y)) / m in place: the gradient of each batch's mean
        cross-entropy with respect to its logits, from the probabilities p
        (..., k, n_classes) of samples with labels y, (..., k) or any shape
        that broadcasts to it. m is the batch size, or an array that
        broadcasts against p. Subtracting the one-hot rows' 1.0 and 0.0
        gives the bits an indexed subtract of 1.0 gives (p - 0.0 is p);
        __post_init__ has checked that every label picks a row."""
        p -= self._one_hot.take(y, axis=0)
        p /= m
        return p

    @staticmethod
    def _reduce(r: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Flat parameter gradients, (..., param_dim), from the logit
        gradients r (..., k, n_classes) of the samples X (..., k, dim):
        weights r^T X and biases summed over the batch, written into the
        (..., n_classes, dim + 1) rows of one array."""
        out = np.empty((*r.shape[:-2], r.shape[-1], X.shape[-1] + 1))
        np.matmul(r.mT, X, out=out[..., :-1])
        out[..., -1] = np.add.reduce(r, axis=-2)
        return out.reshape(*r.shape[:-2], r.shape[-1] * (X.shape[-1] + 1))

    def loss_grad(self, worker: int, x: np.ndarray, idx: Optional[np.ndarray] = None):
        """Cross-entropy loss and exact gradient on worker data (or the
        subset `idx`), as (loss, flat_grad)."""
        X = self.features[worker]
        y = self.labels[worker]
        if idx is not None:
            X, y = X[idx], y[idx]
        p = self._probs(x, X)
        m = X.shape[0]
        loss = float(-np.mean(np.log(p[np.arange(m), y] + 1e-300)))
        return loss, self._reduce(self._residual(p, y, m), X)

    def minibatch_grads(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Gradients of a stack of minibatches in one pass, (k, param_dim):
        row r is the mean cross-entropy gradient over the samples idx[r]
        (indices into the concatenated shards), bitwise what loss_grad
        gives for the same samples of one worker."""
        X, y = self.shards[0].take(idx, axis=0), self.shards[1][idx]
        return self._reduce(self._residual(self._probs(x, X), y, idx.shape[-1]), X)

    def grads(self, x: np.ndarray) -> np.ndarray:
        """Full-shard gradient of every worker, (n, param_dim), in one pass
        over the concatenated shards: row w is loss_grad(w, x)[1] bitwise.
        The logits of all samples take one matmul, except that a one-sample
        shard takes its own (1, dim) product, as loss_grad does; each
        worker's gradient then reduces its own segment.

        A stack of points x (K, d) gives (K, n, param_dim) in one pass,
        slice k bitwise grads(x[k]): every product is the call that point
        alone makes, repeated over the stack."""
        X, y, starts, sizes, per_sample = self.shards
        p = self._probs(x, X)
        single = starts[sizes == 1]
        if single.size:
            p[..., single, :] = self._probs(x, X[single, None])[..., 0, :]
        r = self._residual(p, y, per_sample)
        # a copy of r with the samples outermost: a worker's bias sum then
        # adds whole (..., n_classes) blocks in sample order, as a reduction
        # of its (..., k, n_classes) segment does, not one short row at a
        # time. The products read r itself: BLAS can round a matrix read
        # with another leading dimension differently.
        rows = np.moveaxis(r, -2, 0).copy()
        out = np.empty((*r.shape[:-2], sizes.size, self.n_classes, self.dim + 1))
        for w, (s, k) in enumerate(zip(starts.tolist(), sizes.tolist())):
            np.matmul(r[..., s:s + k, :].mT, X[s:s + k], out=out[..., w, :, :-1])
            out[..., w, :, -1] = np.add.reduce(rows[s:s + k], axis=0)
        return out.reshape(*out.shape[:-2], self.param_dim)


@dataclass(frozen=True)
class ProblemInstance:
    """A family of local objectives with an honest-set designation, gradient
    oracles, and analytic facts. `construction` tags the constructive
    families ("hetero", "noise", "synthetic") so oracle-adversarial
    aggregation rules can refuse mismatched instances."""

    locals: tuple
    pop: WorkerPopulation
    noise: NoiseModel
    analytic: Analytic
    construction: Optional[str] = None
    params: dict = field(default_factory=dict)
    task: Optional[SyntheticClassificationTask] = None

    @property
    def dim(self) -> int:
        if self.task is not None:
            return self.task.param_dim
        return self.locals[0].dim

    @property
    def is_quadratic(self) -> bool:
        return self.task is None

    @functools.cached_property
    def _coefficients(self):
        """(A, C): the quadratic locals' coefficients stacked to (n, d)."""
        return (np.stack([loc.a for loc in self.locals]),
                np.stack([loc.c for loc in self.locals]))

    def grads(self, x: np.ndarray) -> np.ndarray:
        """Exact gradients of every local objective at the point x (a (d,)
        array), stacked to (n, d): row i is grad f_i(x). A stack of points
        x (K, d) gives (K, n, d), slice k bitwise grads(x[k]). Every honest
        quantity reads honest_grads.

        For quadratics this is A * x + C with the coefficients stacked once
        per instance. A classification task takes one softmax pass over its
        concatenated shards (SyntheticClassificationTask.grads).
        """
        if self.task is not None:
            return self.task.grads(x)
        A, C = self._coefficients
        return A * x[..., None, :] + C

    @functools.cached_property
    def _honest_coefficients(self):
        """(A, C): the honest rows of _coefficients, (h, d), in honest order."""
        return tuple(M[self.pop.honest_sorted()] for M in self._coefficients)

    @functools.cached_property
    def _honest_task(self) -> SyntheticClassificationTask:
        """The classification task cut down to the honest workers' shards, in
        honest order: its grads(x) is the honest rows of task.grads(x),
        bitwise, from one pass over the honest samples alone."""
        ids = self.pop.honest_sorted()
        return replace(self.task, features=tuple(self.task.features[i] for i in ids),
                       labels=tuple(self.task.labels[i] for i in ids))

    @functools.cached_property
    def _poisoned(self) -> "ProblemInstance":
        """Copy of a classification instance with the Byzantine workers'
        labels flipped y -> (C-1) - y by attacks.label_flip; honest shards
        untouched."""
        task = self.task
        labels = list(task.labels)
        for w in self.pop.byzantine_ids:
            labels[w] = label_flip((None, labels[w]), task.n_classes)[1].astype(np.int64)
            labels[w].setflags(write=False)
        return replace(self, task=replace(task, labels=tuple(labels)))

    def honest_grads(self, x: np.ndarray) -> np.ndarray:
        """The honest rows of grads(x) in honest order, bitwise: (h, d) at a
        point, (K, h, d) at a (K, d) stack. Quadratics read the honest
        coefficients, a classification task one pass over the honest shards
        alone (_honest_task)."""
        if self.task is not None:
            return self._honest_task.grads(x)
        A, C = self._honest_coefficients
        return A * x[..., None, :] + C

    def f_H(self, x: Union[DenseVector, np.ndarray]):
        """Honest average objective at x, a DenseVector or a (d,) array (a
        float), or, for quadratic locals, at each row of a (K, d) array (a
        (K,) array): each honest worker's value, from _honest_coefficients,
        summed in honest order, then divided.

        A quadratic local's value 0.5*vecdot(a, x*x) + vecdot(c, x) is
        bitwise float(0.5*np.dot(a, x*x) + np.dot(c, x)), since np.vecdot
        takes np.dot's inner loop; only a zero may differ in sign (np.dot
        keeps the sign of a one-term product), which the sum cannot show.
        cumsum adds the workers' values strictly in order, as Python's sum
        does, and adding 0.0 turns an all-(-0.0) total into the +0.0 that
        sum's integer start gives."""
        values = x.values if isinstance(x, DenseVector) else np.asarray(x, dtype=np.float64)
        if self.task is not None:
            ids = self.pop.honest_sorted()
            return sum(self.task.loss_grad(i, values)[0] for i in ids) / len(ids)
        A, C = self._honest_coefficients
        X = values[..., None, :]
        vals = 0.5 * np.vecdot(A, X * X) + np.vecdot(C, X)
        out = (np.cumsum(vals, axis=-1)[..., -1] + 0.0) / A.shape[0]
        return float(out) if values.ndim == 1 else out

    def grad_f_H(self, x: DenseVector) -> DenseVector:
        """Honest average gradient at x: the _row_mean of honest_grads(x)."""
        return DenseVector(_row_mean(self.honest_grads(x.values)))


def _row_mean(rows: np.ndarray) -> np.ndarray:
    """Mean of the rows of a (k, d) array, or of each (k, d) slice of a
    stack, summed in row order from zero and then divided. cumsum adds
    strictly in order where sum may pair terms; adding 0.0 turns an
    all-(-0.0) sum into the +0.0 that a zero start gives."""
    return (np.cumsum(rows, axis=-2)[..., -1, :] + 0.0) / rows.shape[-2]


# ---------------------------------------------------------------------------
# constructive families


def build_hetero_lower_bound(
    mu: float, G: float, B: float, kappa: Optional[float] = None, d: int = 1
) -> ProblemInstance:
    """Two-worker heterogeneous family with delta = sqrt(3)*B*mu/2 and
    eps = G/2 (per coordinate, eps scaled by 1/sqrt(d) so the declared
    (G, B) certificate is dimension-free):

        f1(x) = ((mu+delta)/2)|x|^2 + <eps_vec, x>
        f2(x) = ((mu-delta)/2)|x|^2 - <eps_vec, x>

    Honest average is (mu/2)|x|^2 with minimizer 0. When `kappa` is given,
    the drifted fixed point x_F* = sqrt(kappa)*eps / (mu - sqrt(kappa)*delta)
    of the adversarial aggregation rule is stored per coordinate.
    """
    if not mu > 0:
        raise ConfigurationError("mu must be > 0")
    if G < 0 or B < 0:
        raise ConfigurationError("G and B must be >= 0")
    if d < 1:
        raise ConfigurationError("d must be >= 1")
    delta = math.sqrt(3.0) * B * mu / 2.0
    eps = G / 2.0
    eps_j = eps / math.sqrt(d)
    ones = np.ones(d)
    f1 = QuadraticLocal((mu + delta) * ones, eps_j * ones)
    f2 = QuadraticLocal((mu - delta) * ones, -eps_j * ones)
    pop = WorkerPopulation(n=2, b=0)
    x_F = None
    if kappa is not None:
        if kappa < 0:
            raise ConfigurationError("kappa must be >= 0")
        drift_curv = mu - math.sqrt(kappa) * delta
        if not drift_curv > 0:
            raise ConfigurationError(
                "drifted curvature mu - sqrt(kappa)*delta must stay positive"
            )
        x_F = DenseVector(math.sqrt(kappa) * eps_j / drift_curv * ones)
    analytic = Analytic(
        L=mu + delta, mu=mu, G=G, B=B,
        x_star=DenseVector(np.zeros(d)), x_F_star=x_F,
    )
    return ProblemInstance(
        locals=(f1, f2), pop=pop, noise=NoiseModel("none"),
        analytic=analytic, construction="hetero",
        params={"delta": delta, "eps": eps, "kappa": kappa},
    )


def build_noise_lower_bound(
    mu: float, B: float, sigma: float, kappa: Optional[float] = None
) -> ProblemInstance:
    """Two-worker noisy family (1-D):

        f1(x) = ((1+B)mu/2)x^2,   f2(x) = ((1-B)mu/2)x^2

    with the two-point Bernoulli oracle g_i = grad f_i(x) +/- sigma
    (+sigma when the worker's coin xi_i is 0). Honest average (mu/2)x^2.
    With `kappa`, stores the drifted fixed point
    x_F* = (sqrt(kappa)*sigma/2) / (mu*(1 - sqrt(kappa)*B/2)).
    """
    if not mu > 0:
        raise ConfigurationError("mu must be > 0")
    if B < 0 or sigma < 0:
        raise ConfigurationError("B and sigma must be >= 0")
    f1 = QuadraticLocal(np.array([(1 + B) * mu]), np.zeros(1))
    f2 = QuadraticLocal(np.array([(1 - B) * mu]), np.zeros(1))
    pop = WorkerPopulation(n=2, b=0)
    x_F = None
    if kappa is not None:
        if kappa < 0:
            raise ConfigurationError("kappa must be >= 0")
        denom = mu * (1.0 - math.sqrt(kappa) * B / 2.0)
        if not denom > 0:
            raise ConfigurationError(
                "drifted curvature mu*(1 - sqrt(kappa)*B/2) must stay positive"
            )
        x_F = DenseVector([math.sqrt(kappa) * sigma / 2.0 / denom])
    analytic = Analytic(
        L=(1 + B) * mu, mu=mu, G=0.0, B=B,
        x_star=DenseVector([0.0]), x_F_star=x_F,
    )
    return ProblemInstance(
        locals=(f1, f2), pop=pop, noise=NoiseModel("bernoulli_pm", sigma=sigma),
        analytic=analytic, construction="noise",
        params={"kappa": kappa},
    )


def build_synthetic_family(
    n: int, k: int, a: float, G: float, B: float, d: int = 1
) -> ProblemInstance:
    """n honest workers: k copies of (a/2)x^2 + c*x, k copies of
    (a/2)x^2 - c*x, and n-2k copies of ((a+d_coef)/2)x^2, with

        c = sqrt(n/(2k)) * G
        d_coef = n*a*B / (sqrt(2k(n-2k)) - (n-2k)*B)

    chosen so the gradient-dissimilarity bound G^2 + B^2*||grad f_H||^2
    holds with equality. Requires B^2 < 2k/(n-2k). d_coef can grow without
    bound near that admissibility edge; it is surfaced in the instance
    summary rather than capped.
    """
    if not (0 < 2 * k < n):
        raise ConfigurationError(f"need 0 < 2k < n, got n={n}, k={k}")
    if not a > 0:
        raise ConfigurationError("a must be > 0")
    if G < 0 or B < 0:
        raise ConfigurationError("G and B must be >= 0")
    bound = 2.0 * k / (n - 2 * k)
    if not B * B < bound:
        raise ConfigurationError(
            f"inadmissible B: requires B^2 < 2k/(n-2k) = {bound:.6g}, "
            f"got B^2 = {B * B:.6g}"
        )
    if d < 1:
        raise ConfigurationError("d must be >= 1")
    c = math.sqrt(n / (2.0 * k)) * G
    c_j = c / math.sqrt(d)
    denom = math.sqrt(2.0 * k * (n - 2 * k)) - (n - 2 * k) * B
    d_coef = n * a * B / denom
    ones = np.ones(d)
    locs = (
        [QuadraticLocal(a * ones, c_j * ones)] * k
        + [QuadraticLocal(a * ones, -c_j * ones)] * k
        + [QuadraticLocal((a + d_coef) * ones, np.zeros(d))] * (n - 2 * k)
    )
    pop = WorkerPopulation(n=n, b=0)
    a_H = a + (n - 2 * k) * d_coef / n
    analytic = Analytic(
        L=a + d_coef, mu=a_H, G=G, B=B, x_star=DenseVector(np.zeros(d)),
    )
    return ProblemInstance(
        locals=tuple(locs), pop=pop, noise=NoiseModel("none"),
        analytic=analytic, construction="synthetic",
        params={"c": c, "d_coef": d_coef, "honest_curvature": a_H, "k": k},
    )


def with_noise(instance: ProblemInstance, noise: NoiseModel) -> ProblemInstance:
    """Copy of `instance` with a different noise model."""
    return replace(instance, noise=noise)


def build_random_quadratic_family(
    n: int,
    d: int,
    rng: RngStream,
    b: int = 0,
    shared_curvature: bool = False,
) -> ProblemInstance:
    """Random diagonal-quadratic population with exact analytic facts:
    curvatures uniform on [0.5, 2.5], linear terms uniform on [-1, 1].

    With shared_curvature the honest locals differ only in their linear
    terms, so the dissimilarity bound holds with B = 0 and
    G^2 = sum_j Var_j(c) exactly; that (G, B) pair is declared on the
    instance. Otherwise G and B are left undeclared.
    """
    if n < 1 or d < 1:
        raise ConfigurationError("need n >= 1 and d >= 1")
    gen = rng.generator
    if shared_curvature:
        A = np.tile(gen.uniform(0.5, 2.5, size=d), (n, 1))
    else:
        A = gen.uniform(0.5, 2.5, size=(n, d))
    C = gen.uniform(-1.0, 1.0, size=(n, d))
    locs = tuple(QuadraticLocal(A[i], C[i]) for i in range(n))
    pop = WorkerPopulation(n=n, b=b)
    honest = pop.honest_sorted()
    a_bar = A[honest].mean(axis=0)
    c_bar = C[honest].mean(axis=0)
    x_star = DenseVector(-c_bar / a_bar)
    L = float(A[honest].max())
    mu = float(a_bar.min())
    # averaging identical rows can round the mean one ulp past the max
    L = max(L, mu)
    G = B = None
    if shared_curvature:
        G = float(np.sqrt(((C[honest] - c_bar) ** 2).mean(axis=0).sum()))
        B = 0.0
    analytic = Analytic(L=L, mu=mu, G=G, B=B, x_star=x_star)
    return ProblemInstance(
        locals=locs, pop=pop, noise=NoiseModel("none"), analytic=analytic,
        params={"shared_curvature": shared_curvature},
    )


# ---------------------------------------------------------------------------
# dissimilarity certification


@dataclass(frozen=True)
class CertifyResult:
    status: str                      # "pass" | "tight" | "fail"
    witness: Optional[DenseVector] = None
    margin: float = 0.0              # sup_x [LHS - RHS]; <= 0 iff certified

    @property
    def passed(self) -> bool:
        return self.status != "fail"


_ALPHA_ZERO_TOL = 1e-12


def certify_dissimilarity(instance: ProblemInstance, G: float, B: float) -> CertifyResult:
    """Exact certificate that, for all x,

        (1/h) sum_i ||grad f_i(x) - grad f_H(x)||^2  <=  G^2 + B^2 ||grad f_H(x)||^2.

    For diagonal quadratics the difference is a separable quadratic
    q(x) = sum_j (alpha_j x_j^2 + beta_j x_j) + gamma0; we compute
    sup_x q exactly. Returns "tight" when the supremum is 0 (equality
    attained), "fail" with a maximizing witness otherwise positive.
    alpha_j within 1e-12 (relative to its constituent terms) of zero is
    treated as zero, in particular any alpha_j in (-1e-12, 0); same for
    beta_j. Coefficients at that level are cancellation residue, not signal.
    """
    if not instance.is_quadratic:
        raise ConfigurationError("certify_dissimilarity supports quadratic instances only")
    A, C = instance._honest_coefficients  # (h, d)
    a_bar = A.mean(axis=0)
    c_bar = C.mean(axis=0)
    var_a = ((A - a_bar) ** 2).mean(axis=0)
    var_c = ((C - c_bar) ** 2).mean(axis=0)
    cov_ac = ((A - a_bar) * (C - c_bar)).mean(axis=0)

    alpha = var_a - B * B * a_bar**2
    beta = 2.0 * (cov_ac - B * B * a_bar * c_bar)
    gamma0 = float(np.sum(var_c - B * B * c_bar**2)) - G * G

    scale = max(1.0, float(np.max(np.abs(alpha))), abs(gamma0))
    # Clamp rounding residue. alpha/beta are differences of same-magnitude
    # products, so families built to satisfy the bound with equality leave
    # |residue| ~ eps * term-size on either side of zero; an un-clamped
    # +1e-30 would masquerade as an unbounded growth direction. The clamp
    # is relative to the size of the cancelling terms, never the residue.
    alpha_scale = np.maximum(1.0, (A * A).mean(axis=0) + B * B * a_bar**2)
    beta_scale = np.maximum(
        1.0, 2.0 * (np.abs(A * C).mean(axis=0) + B * B * np.abs(a_bar * c_bar))
    )
    alpha = np.where(np.abs(alpha) <= _ALPHA_ZERO_TOL * alpha_scale, 0.0, alpha)
    beta = np.where(np.abs(beta) <= _ALPHA_ZERO_TOL * beta_scale, 0.0, beta)

    d = alpha.size
    witness = np.zeros(d)
    sup = gamma0
    unbounded_j = -1
    for j in range(d):
        if alpha[j] > 0.0 or (alpha[j] == 0.0 and beta[j] != 0.0):
            unbounded_j = j
            continue
        if alpha[j] < 0.0:
            witness[j] = -beta[j] / (2.0 * alpha[j])
            sup += -beta[j] ** 2 / (4.0 * alpha[j])
        # alpha_j = beta_j = 0 contributes nothing; witness stays 0

    if unbounded_j >= 0:
        # q grows without bound along coordinate unbounded_j: produce a
        # concrete violating x by pushing that coordinate until q > 0.
        j = unbounded_j
        t = 1.0
        for _ in range(200):
            witness[j] = t if (alpha[j] > 0 or beta[j] > 0) else -t
            if _eval_q(alpha, beta, gamma0, witness) > 0:
                break
            t *= 4.0
        return CertifyResult("fail", DenseVector(witness), margin=math.inf)

    tol = 1e-10 * scale
    if sup > tol:
        return CertifyResult("fail", DenseVector(witness), margin=sup)
    if abs(sup) <= tol:
        return CertifyResult("tight", None, margin=sup)
    return CertifyResult("pass", None, margin=sup)


def _eval_q(alpha, beta, gamma0, x) -> float:
    return float(np.sum(alpha * x * x + beta * x) + gamma0)


# ---------------------------------------------------------------------------
# stochastic oracles


def stochastic_gradient(
    instance: ProblemInstance, worker: int, x: DenseVector, rng: RngStream
) -> DenseVector:
    """Unbiased gradient draw for an honest worker.

    kind=none returns the exact gradient, row `worker` of grads(x);
    gaussian/bernoulli_pm perturb it with total second moment sigma^2;
    minibatch averages m per-sample gradients of the classification task
    (sampled with replacement) by minibatch_grads, bitwise loss_grad.
    """
    if worker not in instance.pop.honest_ids:
        raise ContractViolation(
            f"worker {worker} is not honest; Byzantine outputs come from the attacks module"
        )
    noise = instance.noise
    if noise.kind == "minibatch":
        if instance.task is None:
            raise ConfigurationError("minibatch noise requires a classification task")
        _, _, starts, sizes, _ = instance.task.shards
        idx = rng.generator.integers(0, sizes[worker], size=noise.m)
        return DenseVector(instance.task.minibatch_grads(x.values, starts[worker] + idx[None])[0])
    g = instance.grads(x.values)[worker]
    if noise.kind == "none" or noise.sigma == 0.0:
        return DenseVector(g)
    d = g.size
    if noise.kind == "gaussian":
        pert = noise.sigma / math.sqrt(d) * rng.generator.standard_normal(d)
    else:  # bernoulli_pm: xi=0 -> +sigma, xi=1 -> -sigma (per coordinate)
        xi = rng.generator.integers(0, 2, size=d)
        pert = noise.sigma / math.sqrt(d) * (1.0 - 2.0 * xi)
    return DenseVector(g + pert)


# ---------------------------------------------------------------------------
# synthetic classification task


def build_classification_task(
    n_workers: int,
    b: int = 0,
    n_classes: int = 10,
    dim: int = 8,
    samples_per_class: int = 20,
    alpha: float = 1.0,
    seed: int = 0,
    minibatch: int = 8,
) -> ProblemInstance:
    """Gaussian-mixture classification split across workers by a per-class
    Dirichlet(alpha) allocation (resampled until every worker holds at
    least one sample). Model: multinomial logistic regression; the noise
    model is minibatch sampling.
    """
    if n_classes < 2:
        raise ConfigurationError("need at least 2 classes")
    rng = RngStream(seed, worker=0, purpose="task-data").generator
    means = 3.0 * rng.standard_normal((n_classes, dim))
    X_all, y_all = [], []
    for cls in range(n_classes):
        X_all.append(means[cls] + rng.standard_normal((samples_per_class, dim)))
        y_all.append(np.full(samples_per_class, cls, dtype=np.int64))
    X_all = np.concatenate(X_all)
    y_all = np.concatenate(y_all)

    alloc_rng = RngStream(seed, worker=0, purpose="task-alloc").generator
    for _attempt in range(1000):
        worker_of = np.empty(X_all.shape[0], dtype=np.int64)
        pos = 0
        for cls in range(n_classes):
            props = alloc_rng.dirichlet(np.full(n_workers, alpha))
            counts = alloc_rng.multinomial(samples_per_class, props)
            assign = np.repeat(np.arange(n_workers), counts)
            worker_of[pos : pos + samples_per_class] = assign
            pos += samples_per_class
        sizes = np.bincount(worker_of, minlength=n_workers)
        if np.all(sizes >= 1):
            break
    else:
        raise ConfigurationError(
            "could not allocate >= 1 sample to every worker after 1000 draws; "
            "increase samples_per_class or alpha"
        )

    feats, labs = [], []
    for w in range(n_workers):
        sel = worker_of == w
        Xw = X_all[sel].copy()
        yw = y_all[sel].copy()
        Xw.setflags(write=False)
        yw.setflags(write=False)
        feats.append(Xw)
        labs.append(yw)

    task = SyntheticClassificationTask(
        features=tuple(feats), labels=tuple(labs), n_classes=n_classes, dim=dim
    )
    pop = WorkerPopulation(n=n_workers, b=b)
    # Softmax cross-entropy smoothness is bounded by half the largest
    # mean squared augmented-sample norm across workers.
    L = 0.5 * max(
        float(np.mean(np.sum(Xw * Xw, axis=1) + 1.0)) for Xw in feats
    )
    analytic = Analytic(L=L, mu=None, G=None, B=None)
    return ProblemInstance(
        locals=(),
        pop=pop,
        noise=NoiseModel("minibatch", m=minibatch),
        analytic=analytic,
        construction=None,
        params={"alpha": alpha, "n_classes": n_classes},
        task=task,
    )
