"""The distributed training loop with local momentum, schedules, metrics,
and the Lyapunov descent tracker, a pass over a finished run's record.

One iteration: broadcast x^{t-1}; every honest worker draws a stochastic
gradient and updates its momentum m_i^t = beta_t m_i^{t-1} + (1-beta_t) g_i^t
(m_i^0 = 0); Byzantine slots are filled by the attack; the server aggregates
and steps x^t = x^{t-1} - gamma_t g^t. beta_t = 0 throughout reduces to plain
robust distributed SGD.

The loop works on stacked arrays: the momenta are the rows of one (n, d)
matrix, the submitted updates another, and the aggregation rule reduces the
latter directly. ProblemInstance.grads gives all n exact gradients in one
call per step, for quadratics and classification tasks alike, and each
worker's noise (a perturbation, or a minibatch's sample indices) is drawn in
blocks of steps from its own (seed, worker, "noise") stream, bitwise equal
to drawing it step by step. A classification step's minibatch gradients,
the Byzantine workers' honest-style ones included, take one batched softmax
pass. DenseVector appears only at the API boundary (x0, RunRecord.final_x).

A step computes only what the algorithm needs. The metric columns
(grad_norm_sq, f_gap, dist_to_ref) are filled once per block of steps by a
vectorised pass (fill_metrics) over the recorded iterates, bitwise what a
per-step evaluation gives. The steps keep no honest gradient: the pass takes
them from ProblemInstance.honest_grads at the block's iterates, one stacked
call per chunk of them.

A run without noise whose gamma and beta do not change with t (constant or
invsqrt steps) is a fixed map of its state (x, m), so it stops stepping at
the first exact repeat of that state within the last _REPEAT_WINDOW steps,
confirmed on x and m both, and fills the rest of the record from the cycle,
bitwise what stepping on gives.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .aggregators import AggregatorSpec, OracleContext, aggregate, noise_drift
from .attacks import AdversaryView, AttackSpec, alie, sign_flip
from .core import (
    ConfigurationError,
    DenseVector,
    NumericFailure,
    RngStream,
    RunConfig,
)
from .problems import ProblemInstance, _row_mean
# the loop does not call the per-worker honest oracle; perfbench's tracer
# looks it up under this name
from .problems import stochastic_gradient  # noqa: F401

STEPSIZE_KINDS = ("constant", "invsqrt", "pl_piecewise", "cosine")
MOMENTUM_KINDS = ("zero", "constant", "tied")
C_BETA = 36.0  # the paper's tied-momentum coupling, beta_t = 1 - 36*gamma_t*L


@dataclass(frozen=True)
class ScheduleSpec:
    """Step-size and momentum schedules.

    stepsize:
      constant       gamma_t = gamma0
      invsqrt        gamma_t = gamma0 / sqrt(T)   (fixed for the whole run)
      pl_piecewise   gamma_t = gamma0 for t < floor(T/2), else
                     2 / (alpha1 * (s0 + t - floor(T/2)));
                     requires s0 > 2 and gamma0 = 2/(alpha1*s0)
      cosine         gamma_t = gamma0 * (1 + cos(pi * t / T_max)) / 2

    momentum:
      zero           beta_t = 0
      constant       beta_t = beta
      tied           beta_t = 1 - c_beta * gamma_t * L, requiring
                     gamma_t * L <= 1/c_beta (default c_beta = 36)
    """

    stepsize: str = "constant"
    gamma0: Optional[float] = None
    s0: Optional[float] = None
    alpha1: Optional[float] = None
    T_max: Optional[int] = None
    momentum: str = "zero"
    beta: float = 0.0
    c_beta: float = C_BETA

    def __post_init__(self):
        if self.stepsize not in STEPSIZE_KINDS:
            raise ConfigurationError(f"unknown stepsize schedule {self.stepsize!r}")
        if self.momentum not in MOMENTUM_KINDS:
            raise ConfigurationError(f"unknown momentum schedule {self.momentum!r}")
        if self.stepsize == "pl_piecewise":
            if self.s0 is None or self.alpha1 is None:
                raise ConfigurationError("pl_piecewise requires s0 and alpha1")
            if not 2 < self.s0 < math.inf:
                raise ConfigurationError(f"pl_piecewise requires s0 > 2 and finite, got {self.s0}")
            if not 0 < self.alpha1 < math.inf:
                raise ConfigurationError("pl_piecewise requires alpha1 > 0 and finite")
            implied = 2.0 / (self.alpha1 * self.s0)
            if self.gamma0 is None:
                object.__setattr__(self, "gamma0", implied)
            elif abs(self.gamma0 - implied) > 1e-9 * implied:
                raise ConfigurationError(
                    f"pl_piecewise requires gamma0 = 2/(alpha1*s0) = {implied:.12g}, "
                    f"got {self.gamma0:.12g}"
                )
        if self.gamma0 is None or not 0 < self.gamma0 < math.inf:
            raise ConfigurationError("schedule requires gamma0 > 0 and finite")
        if self.stepsize == "cosine" and (self.T_max is None or self.T_max < 1):
            raise ConfigurationError("cosine schedule requires T_max >= 1")
        if self.momentum == "constant" and not 0.0 <= self.beta < 1.0:
            raise ConfigurationError("constant momentum requires 0 <= beta < 1")
        if self.momentum == "tied" and not 0 < self.c_beta < math.inf:
            raise ConfigurationError("tied momentum requires c_beta > 0 and finite")


def schedules(t: int, spec: ScheduleSpec, T: int, L: Optional[float] = None):
    """(gamma_t, beta_t) for iteration t in [1, T]; a pure function.
    Tied momentum needs the smoothness constant L."""
    if not 1 <= t <= T:
        raise ConfigurationError(f"t must be in [1, {T}], got {t}")
    if spec.stepsize == "constant":
        gamma = spec.gamma0
    elif spec.stepsize == "invsqrt":
        gamma = spec.gamma0 / math.sqrt(T)
    elif spec.stepsize == "pl_piecewise":
        half = T // 2
        if t < half:
            gamma = spec.gamma0
        else:
            gamma = 2.0 / (spec.alpha1 * (spec.s0 + t - half))
    else:  # cosine
        gamma = spec.gamma0 * (1.0 + math.cos(math.pi * t / spec.T_max)) / 2.0

    if spec.momentum == "zero":
        beta = 0.0
    elif spec.momentum == "constant":
        beta = spec.beta
    else:
        if L is None:
            raise ConfigurationError("tied momentum needs the smoothness constant L")
        beta = 1.0 - spec.c_beta * gamma * L
        if beta < -1e-12:
            raise ConfigurationError(
                f"tied momentum requires gamma_t * L <= 1/c_beta = {1.0 / spec.c_beta:.6g}; "
                f"got gamma_t * L = {gamma * L:.6g} at t = {t}"
            )
        beta = max(beta, 0.0)
    return gamma, beta


def pl_schedule_for_plain(
    instance: ProblemInstance, kappa: float, delta: float = 0.1
) -> ScheduleSpec:
    """Instantiate the piecewise PL schedule for the momentum-free algorithm:
    alpha1 = 2*mu*(1/2 - 2*delta - kappa*B^2*(1/2 + delta)) with
    s0 = the smallest integer strictly above max(2L/(delta*alpha1), 2),
    which makes gamma0 = 2/(alpha1*s0) < min(1/alpha1, delta/L) automatic.
    Requires kappa*B^2 < (1-4*delta)/(1+2*delta) and 0 < delta < 1/4.
    """
    if not 0 < delta < 0.25:
        raise ConfigurationError("delta must lie in (0, 1/4)")
    mu, L, B = instance.analytic.mu, instance.analytic.L, instance.analytic.B
    if mu is None or B is None:
        raise ConfigurationError("instance must declare mu and B")
    if not kappa * B * B < (1 - 4 * delta) / (1 + 2 * delta):
        raise ConfigurationError(
            f"requires kappa*B^2 < (1-4*delta)/(1+2*delta) = "
            f"{(1 - 4 * delta) / (1 + 2 * delta):.6g}, got {kappa * B * B:.6g}"
        )
    alpha1 = 2.0 * mu * (0.5 - 2.0 * delta - kappa * B * B * (0.5 + delta))
    lower = max(2.0 * L / (delta * alpha1), 2.0)
    s0 = float(math.floor(lower) + 1)
    return ScheduleSpec(stepsize="pl_piecewise", s0=s0, alpha1=alpha1)


def pl_schedule_for_momentum(instance: ProblemInstance, kappa: float) -> ScheduleSpec:
    """Piecewise PL schedule for the momentum algorithm with tied
    beta_t = 1 - 36*gamma_t*L: alpha1 = (3/8 - 21*kappa*B^2)*mu and
    s0 just above max(2, 72L/alpha1), making gamma0 < min(1/alpha1, 1/(36L)).
    Requires kappa*B^2 < 1/56.
    """
    mu, L, B = instance.analytic.mu, instance.analytic.L, instance.analytic.B
    if mu is None or B is None:
        raise ConfigurationError("instance must declare mu and B")
    if not kappa * B * B < 1.0 / 56.0:
        raise ConfigurationError(f"requires kappa*B^2 < 1/56, got {kappa * B * B:.6g}")
    alpha4 = (3.0 / 8.0 - 21.0 * kappa * B * B) * mu
    lower = max(2.0, 2.0 * C_BETA * L / alpha4)
    s0 = float(math.floor(lower) + 1)
    return ScheduleSpec(stepsize="pl_piecewise", s0=s0, alpha1=alpha4, momentum="tied")


@dataclass
class LyapunovTrace:
    """Per-iteration Lyapunov values V^t, the descent bound for each
    transition (rhs[t-1] bounds V^{t+1}), and the steps where V^{t+1}
    exceeded its bound."""

    V: np.ndarray
    rhs: np.ndarray
    flagged: list
    c1: float
    c2: float


@dataclass
class RunRecord:
    """Per-iteration trace plus run summary. Row t (1-based) carries the
    metrics of the post-step iterate x^t; `xs` stores the full iterate
    history x^0..x^T. The lyapunov column is NaN unless track_lyapunov
    filled it (the value in row t is V^t, which by definition reads x^{t-1})."""

    t: np.ndarray
    grad_norm_sq: np.ndarray
    f_gap: np.ndarray
    dist_to_ref: np.ndarray
    lyapunov: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    xs: np.ndarray
    lyapunov_trace: Optional[LyapunovTrace] = None

    @property
    def T(self) -> int:
        return self.t.size

    @property
    def final_x(self) -> DenseVector:
        return DenseVector(self.xs[-1])

    def floor_estimate(self, window_fraction: float = 0.1) -> float:
        """Mean grad_norm_sq over the trailing window: the error-floor estimate."""
        if not 0 < window_fraction <= 1:
            raise ConfigurationError("window_fraction must lie in (0, 1]")
        k = max(1, int(round(window_fraction * self.T)))
        return float(self.grad_norm_sq[-k:].mean())

    def head(self, k: int) -> "RunRecord":
        """The first k rows, with the iterates x^0 .. x^k."""
        return RunRecord(self.t[:k], self.grad_norm_sq[:k], self.f_gap[:k],
                         self.dist_to_ref[:k], self.lyapunov[:k], self.gamma[:k],
                         self.beta[:k], self.xs[:k + 1])

    def summary(self) -> dict:
        return {
            "T": int(self.T),
            "final_x": self.xs[-1].tolist(),
            "final_grad_norm_sq": float(self.grad_norm_sq[-1]),
            "final_f_gap": float(self.f_gap[-1]),
            "final_dist_to_ref": float(self.dist_to_ref[-1]),
            "time_avg_grad_norm_sq": float(self.grad_norm_sq.mean()),
            "floor_estimate": float(self.floor_estimate()),
        }

    def to_csv(self, path) -> None:
        cols = ("t", "grad_norm_sq", "f_gap", "dist_to_ref", "lyapunov", "gamma", "beta")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for i in range(self.T):
                row = [str(int(self.t[i]))]
                for arr in (self.grad_norm_sq, self.f_gap, self.dist_to_ref,
                            self.lyapunov, self.gamma, self.beta):
                    row.append(format(float(arr[i]), ".17g"))
                fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# the training loop


def _validate(config: RunConfig) -> None:
    inst: ProblemInstance = config.problem
    agg: AggregatorSpec = config.aggregator
    attack: AttackSpec = config.attack
    if agg.n != inst.pop.n:
        raise ConfigurationError(
            f"aggregator n={agg.n} does not match population n={inst.pop.n}"
        )
    if config.x0.dim != inst.dim:
        raise ConfigurationError(
            f"x0 dimension {config.x0.dim} does not match instance dimension {inst.dim}"
        )
    if attack.kind == "label_flip" and inst.task is None:
        raise ConfigurationError("label_flip requires a classification task")
    if config.schedule.momentum == "tied":
        sched, T = config.schedule, config.T
        # schedules refuses a step past the bound; check the largest steps:
        # gamma_t falls in t but for two rises. pl_piecewise's second phase
        # starts at 2/(alpha1*s0), which gamma0 may undercut by up to 1e-9,
        # and cosine is back at gamma0 at t = 2*T_max
        peaks = [1]
        if sched.stepsize == "pl_piecewise":
            peaks.append(max(T // 2, 1))
        elif sched.stepsize == "cosine" and 2 * sched.T_max <= T:
            peaks.append(2 * sched.T_max)
        for t in peaks:
            schedules(t, sched, T, L=inst.analytic.L)


def _byzantine_honest_style(
    oracle: ProblemInstance, x: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Honest-style minibatch gradients of the Byzantine workers: row r is
    the gradient over the minibatch idx[r] of `oracle`'s shards.

    run does not call it: a minibatch step takes these rows in the same
    softmax pass as the honest ones. It is kept only as the name perfbench's
    tracer resolves for its `attacks.byzantine_oracle` site, which reads 0
    calls."""
    return oracle.task.minibatch_grads(x, idx)


# Steps of noise drawn at a time: a run holds at most this many steps of
# perturbations or minibatch indices, whatever its horizon.
_NOISE_BLOCK = 1024


# Recent iterates among which a run whose step map does not change with t
# looks for an exact repeat of its state (x, m): the deterministic runs of the
# closed-form checks settle on cycles of period 1, 2 or 4.
_REPEAT_WINDOW = 16


class _RepeatWatch:
    """Finds the first step whose state (x, m) equals, byte for byte, that
    of a step p <= _REPEAT_WINDOW before it: a hit of x^t at lag p keeps
    m^t's bytes until step t + p confirms both (a later candidate due at the
    same step replaces an earlier one)."""

    def __init__(self):
        self.recent = deque(maxlen=_REPEAT_WINDOW)  # iterate bytes, newest first
        self.pending = {}  # step to confirm at -> (p, iterate bytes, momentum bytes)

    def period(self, t: int, x: np.ndarray, m: np.ndarray) -> int:
        """p if (x^t, m^t) = (x^{t-p}, m^{t-p}) was confirmed at this step, else 0."""
        key = x.tobytes()
        due = self.pending.pop(t, None)
        if due is not None and due[1] == key and due[2] == m.tobytes():
            return due[0]
        if key in self.recent:
            p = self.recent.index(key) + 1
            self.pending[t + p] = (p, key, m.tobytes())
        self.recent.appendleft(key)
        return 0


# Iterates per honest_grads call in a block's metrics pass: the pass holds a
# (chunk, h, d) gradient stack and, for a classification task, the softmax
# intermediates of chunk points, not a whole block's.
_METRICS_CHUNK = 64


def fill_metrics(record: RunRecord, r0: int, k: int, inst: ProblemInstance,
                 f_star, ref) -> Optional[tuple]:
    """Fill rows r0 .. r0+k-1 of the record's defined metric columns from
    its iterates x^{r0+1} .. x^{r0+k}; the other columns stay NaN.

    The honest exact gradients at those iterates come from
    inst.honest_grads, called on at most _METRICS_CHUNK iterates at a time
    (not at all for k = 0). f_star (the optimal value) and ref (the
    reference point) may be None, which leaves f_gap or dist_to_ref
    undefined.

    Returns ("non-finite <column> at iteration <t>", column, t) for the
    first non-finite value, in row order and then in column order, or None.
    Squared norms take np.vecdot, which runs np.dot's inner loop row by row,
    so each value is bitwise a per-step float(np.dot(r, r)); @, einsum and
    (r*r).sum round differently."""
    X = record.xs[r0 + 1:r0 + 1 + k]
    with np.errstate(over="ignore", invalid="ignore"):
        gH = np.empty_like(X)
        for i in range(0, k, _METRICS_CHUNK):
            gH[i:i + _METRICS_CHUNK] = _row_mean(inst.honest_grads(X[i:i + _METRICS_CHUNK]))
        values = [("grad_norm_sq", record.grad_norm_sq, np.vecdot(gH, gH))]
        if f_star is not None:
            values.append(("f_gap", record.f_gap, inst.f_H(X) - f_star))
        if ref is not None:
            r = X - ref.values
            values.append(("dist_to_ref", record.dist_to_ref, np.sqrt(np.vecdot(r, r))))
    for _, col, v in values:
        col[r0:r0 + k] = v
    ok = np.isfinite([v for _, _, v in values])
    if ok.all():
        return None
    row = int(np.argmin(ok.all(axis=0)))
    column, t = values[int(np.argmin(ok[:, row]))][0], r0 + row + 1
    return f"non-finite {column} at iteration {t}", column, t


def run(config: RunConfig) -> RunRecord:
    """Execute T iterations of the aggregation loop and record metrics.

    The loop keeps every worker's momentum as the rows of one (n, d)
    matrix, updated in place; under ALIE it holds the honest rows only,
    (h, d), since the crafted slots keep none. One call of
    ProblemInstance.grads per step (honest_grads under ALIE), at the new
    iterate, gives the next step's exact gradients of the rows m holds.
    Each worker's noise comes from blocks that NoiseModel.draw takes ahead
    from its own (seed, worker, "noise") stream, bitwise the draws a
    per-step oracle would make: perturbations added to the exact
    gradients, or, under minibatch noise, sample indices whose gradients,
    for every row m holds, take one batched pass over `oracle`'s shards
    (label-poisoned for the Byzantine workers under label_flip). Each row
    is bitwise what a pass over its minibatch alone gives. A minibatch step
    then needs no exact gradient at all.
    DenseVector appears only at the API boundary (x0, RunRecord.final_x).

    Byzantine behavior by attack kind:

      none        Byzantine workers behave honestly (own data, own streams)
      sign_flip   they maintain an honest-style momentum and submit its
                  negation
      label_flip  they run on label-poisoned copies of their own shards
      alie        every Byzantine slot submits the common crafted vector

    A step computes no metric. At the end of every block of at most
    _NOISE_BLOCK steps one vectorised pass (fill_metrics) fills the block's
    rows of grad_norm_sq, f_gap and dist_to_ref, bitwise what a per-step
    evaluation gives, from one honest_grads call per chunk of the block's
    recorded iterates. The first non-finite value raises NumericFailure naming the
    iteration and the column, as a per-step check would: the iterate
    (checked every step) before the columns, the columns in that order, and
    a non-finite metric of an earlier step before any error a later step
    raises. The failure carries that iteration, the column and the record
    of the steps before it. The lyapunov column stays NaN; track_lyapunov
    fills it from the record.

    A run whose step map does not change with t (deterministic noise and a
    constant or invsqrt stepsize, under any momentum kind) stops stepping
    once (x, m) repeats, byte for byte, within _REPEAT_WINDOW steps: an
    iterate found among the window's iterates at lag p keeps its momenta,
    and p steps later x and m must both equal what was kept. The remaining
    iterates repeat that cycle and gamma and beta their constants, and the
    metrics pass runs over the remaining blocks in order, so every column,
    and any NumericFailure, is bitwise what stepping all T gives.
    """
    _validate(config)
    inst: ProblemInstance = config.problem
    agg: AggregatorSpec = config.aggregator
    attack: AttackSpec = config.attack
    sched: ScheduleSpec = config.schedule
    pop = inst.pop
    n, d, T = pop.n, inst.dim, config.T
    honest = np.array(pop.honest_sorted(), dtype=np.intp)
    byz = np.array(sorted(pop.byzantine_ids), dtype=np.intp)
    L = inst.analytic.L
    noise = inst.noise
    minibatch = noise.kind == "minibatch"
    if inst.is_quadratic and minibatch:
        raise ConfigurationError("minibatch noise requires a classification task")

    crafted = byz.size > 0 and attack.kind == "alie"
    streams = {}
    if not noise.deterministic:
        # every worker but ALIE's slots draws its own gradients
        streams = {w: RngStream(config.seed, w, "noise")
                   for w in (honest.tolist() if crafted else range(n))}
    # the shards every worker reads, label-poisoned for the Byzantine ones
    # under label_flip; its honest rows are inst's, so its grads give f_H's too
    oracle = inst._poisoned if attack.kind == "label_flip" else inst
    x_star = inst.analytic.x_star

    # under ALIE the Byzantine slots keep no momentum: m holds the honest
    # rows, and a step's gradients are those rows alone
    held = honest if crafted else slice(None)
    m = np.zeros((honest.size if crafted else n, d))
    exact = oracle.honest_grads if crafted else oracle.grads

    ref = inst.analytic.x_F_star
    if ref is None:
        ref = x_star

    record = RunRecord(
        t=np.arange(1, T + 1), grad_norm_sq=np.empty(T), f_gap=np.full(T, np.nan),
        dist_to_ref=np.full(T, np.nan), lyapunov=np.full(T, np.nan),
        gamma=np.empty(T), beta=np.empty(T), xs=np.empty((T + 1, d)),
    )
    xs, gammas, betas = record.xs, record.gamma, record.beta
    xs[0] = config.x0.values
    x = xs[0]
    # an overflow here is reported as the loop's failure at iteration 1
    with np.errstate(over="ignore", invalid="ignore"):
        f_star = None if x_star is None else inst.f_H(x_star)
        G = None if minibatch else exact(x)  # exact gradients at x^{t-1}
    # with gamma and beta fixed and no noise, a step is a pure function of (x, m)
    watch = None
    if noise.deterministic and sched.stepsize in ("constant", "invsqrt"):
        watch = _RepeatWatch()
        watch.period(0, x, m)

    t = 0
    failure = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(1, T + 1):
                gamma, beta = schedules(t, sched, T, L=L)
                context = None
                if agg.honest_aware:  # only the oracle rules read it
                    context = OracleContext(x=x, x_star=x_star, instance=inst)

                k = (t - 1) % _NOISE_BLOCK
                if streams and k == 0:
                    block = noise.draw(streams, min(_NOISE_BLOCK, T - t + 1), n, d, oracle.task)
                if minibatch:
                    g = oracle.task.minibatch_grads(x, block[k, held])
                elif streams:
                    g = G + block[k, held]
                else:
                    g = G
                m *= beta
                m += (1.0 - beta) * g

                if crafted:
                    view = AdversaryView(honest_updates=m, honest_ids=honest,
                                         aggregator=agg, context=context)
                    alie(view, attack.candidate_alphas)
                    # alie's probe already aggregated exactly this input
                    agg_out = view.server_output
                else:
                    U = m
                    if byz.size and attack.kind == "sign_flip":
                        U = m.copy()
                        U[byz] = sign_flip(m[byz])
                    agg_out = aggregate(agg, U, honest_ids=honest if agg.honest_aware else None,
                                        context=context)

                x = np.subtract(x, gamma * agg_out, out=xs[t])
                gammas[t - 1] = gamma
                betas[t - 1] = beta
                if not np.logical_and.reduce(np.isfinite(x)):
                    raise NumericFailure("non-finite iterate", column="iterate")
                if watch is not None and (p := watch.period(t, x, m)):
                    # the remaining steps repeat the last p, and so do their rows
                    xs[t + 1:] = xs[t + 1 - p + np.arange(T - t) % p]
                    gammas[t:] = gamma
                    betas[t:] = beta
                    for r0 in range(t - 1 - k, T, _NOISE_BLOCK):
                        failure = fill_metrics(record, r0, min(_NOISE_BLOCK, T - r0),
                                               inst, f_star, ref)
                        if failure:
                            break
                    break
                if not minibatch:
                    G = exact(x)
                if k == _NOISE_BLOCK - 1 or t == T:
                    failure = fill_metrics(record, t - 1 - k, k + 1, inst, f_star, ref)
                    if failure:
                        break
    except Exception as exc:
        # step t raised: a non-finite metric of an earlier step came first
        k = (t - 1) % _NOISE_BLOCK
        failure = fill_metrics(record, t - 1 - k, k, inst, f_star, ref)
        if failure is None:
            if not isinstance(exc, NumericFailure):
                raise
            failure = f"{exc} at iteration {t}", exc.column, t
    if failure:
        message, column, t = failure
        raise NumericFailure(message, iteration=t, column=column,
                             record=record.head(t - 1)) from None
    return record


# ---------------------------------------------------------------------------
# the Lyapunov descent tracker: a pass over a finished run


def _check_trackable(config: RunConfig) -> None:
    inst: ProblemInstance = config.problem
    sched: ScheduleSpec = config.schedule
    if not inst.noise.deterministic:
        raise ConfigurationError(
            "lyapunov tracking requires a deterministic run (sigma = 0): "
            "the descent bound is an expectation, not a pathwise quantity"
        )
    if sched.momentum != "tied" or sched.c_beta != C_BETA:
        raise ConfigurationError(
            "lyapunov tracking requires tied momentum with c_beta = 36"
        )
    if inst.analytic.G is None or inst.analytic.B is None:
        raise ConfigurationError("lyapunov tracking needs declared (G, B)")
    if inst.analytic.x_star is None:
        raise ConfigurationError("lyapunov tracking needs a known minimizer")


def lyapunov_trace(config: RunConfig, record: RunRecord, kappa: float) -> LyapunovTrace:
    """V^t and the per-transition descent bound of a finished run.

        V^t = 2 (f_H(x^{t-1}) - f*) + c1 ||mean_H m^t - grad f_H(x^{t-1})||^2
              + c2 Gamma_H^{t-1},   c1 = 1/(8L),  c2 = kappa/(2L),

    with Gamma_H^{t-1} the honest momenta's dispersion. rhs[t-1] bounds
    V^{t+1}; a step whose V^{t+1} exceeds it is flagged. The run must be
    deterministic (sigma = 0) with tied momentum, c_beta = 36: the honest
    momenta then replay exactly from honest_grads(record.xs) and
    record.beta, and the gap and ||grad f_H||^2 at x^{t-1} are the record's
    own columns. The first non-finite V^t raises NumericFailure.
    """
    _check_trackable(config)
    inst: ProblemInstance = config.problem
    L, G, B = inst.analytic.L, inst.analytic.G, inst.analytic.B
    sigma = inst.noise.sigma
    T = record.T
    c1 = 1.0 / (8.0 * L)
    c2 = kappa / (2.0 * L)

    # row t-1 of each: honest grad f_i(x^{t-1}), grad f_H(x^{t-1}), its squared
    # norm and f_H(x^{t-1}) - f*, the last two from the record for t >= 2
    grads = inst.honest_grads(record.xs[:-1])
    gHs = _row_mean(grads)
    gnorms = np.concatenate((np.vecdot(gHs[:1], gHs[:1]), record.grad_norm_sq[:-1]))
    gaps = np.concatenate((
        [inst.f_H(record.xs[0]) - inst.f_H(inst.analytic.x_star)], record.f_gap[:-1]))
    ms = np.zeros((T + 1,) + grads.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        # the honest momenta m^0 .. m^T; only this recursion is sequential
        for t in range(1, T + 1):
            beta = record.beta[t - 1]
            ms[t] = beta * ms[t - 1] + (1.0 - beta) * grads[t - 1]
        # Gamma_H^{t-1} and ||mean_H m^t - grad f_H(x^{t-1})||^2 in row t-1
        centered = ms[:-1] - ms[:-1].mean(axis=1, keepdims=True)
        disp_prev = (centered**2).sum(axis=2).mean(axis=1)
        delta = ms[1:].mean(axis=1) - gHs
        delta_sq = np.vecdot(delta, delta)
        V = 2.0 * gaps + c1 * delta_sq + c2 * disp_prev
        bad = ~np.isfinite(V)
        if bad.any():
            raise NumericFailure(f"non-finite lyapunov at iteration {int(np.argmax(bad)) + 1}")
        # rhs[t-1] bounds V^{t+1}, for t = 1 .. T-1
        gamma = record.gamma[:-1]
        rhs = (
            gamma * (-3.0 / 8.0 + 21.0 * kappa * B * B) * gnorms[:-1]
            + 2.0 * gaps[:-1]
            + (1.0 - gamma * L) * (c1 * delta_sq[:-1] + c2 * disp_prev[:-1])
            + gamma * gamma
            * (162.0 * L / inst.pop.h + 756.0 * kappa * L)
            * sigma * sigma
            + 21.0 * gamma * kappa * G * G
        )
    flagged = (np.flatnonzero(V[1:] > rhs) + 1).tolist()
    return LyapunovTrace(V=V, rhs=rhs, flagged=flagged, c1=c1, c2=c2)


def track_lyapunov(config: RunConfig, kappa: Optional[float] = None):
    """Run deterministically and emit (record, LyapunovTrace), the record's
    lyapunov column holding V^t. kappa defaults to the aggregator's
    configured robustness coefficient."""
    if kappa is None:
        kappa = config.aggregator.kappa
    if kappa is None:
        raise ConfigurationError(
            "track_lyapunov needs kappa (explicit, or from an oracle aggregator)"
        )
    _check_trackable(config)
    record = run(config)
    record.lyapunov_trace = lyapunov_trace(config, record, kappa)
    record.lyapunov[:] = record.lyapunov_trace.V
    return record, record.lyapunov_trace


# ---------------------------------------------------------------------------
# replicate-vectorized Monte Carlo for the two-worker Bernoulli family


def run_noise_floor_replicates(
    instance: ProblemInstance,
    kappa: float,
    schedule: ScheduleSpec,
    T: int,
    replicates: int,
    seed: int = 0,
    x0: float = 0.0,
) -> dict:
    """Vectorized replicate runs of plain robust SGD (beta = 0) on the
    two-worker Bernoulli construction under the noise-drift adversarial rule
    (the drift W is `noise_drift`, which the noise_c2 rule also subtracts).

    All replicates advance in lockstep as one numpy vector; coin flips come
    from a single generator keyed by `seed`, so a given (seed, replicates, T)
    is exactly reproducible. Returns the replicate vectors of x^{T-1} and
    x^T plus summary statistics of (x^{T-1})^2.
    """
    if instance.construction != "noise":
        raise ConfigurationError(
            "run_noise_floor_replicates applies to the two-worker Bernoulli "
            "construction only"
        )
    if schedule.momentum != "zero":
        raise ConfigurationError("the vectorized noise-floor path is momentum-free")
    if replicates < 1 or T < 2:
        raise ConfigurationError("need replicates >= 1 and T >= 2")
    mu = instance.analytic.mu
    B = instance.analytic.B
    sigma = instance.noise.sigma
    if not sigma > 0:
        raise ConfigurationError("instance must carry Bernoulli noise with sigma > 0")
    sk = math.sqrt(kappa)
    a1 = (1.0 + B) * mu
    a2 = (1.0 - B) * mu

    gen = RngStream(seed, worker=0, purpose="noise-floor-mc").generator
    x = np.full(replicates, float(x0))
    x_prev = x.copy()
    for t in range(1, T + 1):
        gamma, _ = schedules(t, schedule, T)
        xi = gen.integers(0, 2, size=(replicates, 2))
        s1 = sigma * (1.0 - 2.0 * xi[:, 0])
        s2 = sigma * (1.0 - 2.0 * xi[:, 1])
        gbar = 0.5 * ((a1 * x + s1) + (a2 * x + s2))
        if t == T:
            x_prev = x.copy()
        x = x - gamma * (gbar - sk * noise_drift(x, xi[:, 0], xi[:, 1], B, mu, sigma))
        if not np.all(np.isfinite(x)):
            raise NumericFailure(f"non-finite replicate iterate at iteration {t}")

    sq = x_prev**2
    mean_sq = float(sq.mean())
    se_sq = float(sq.std(ddof=1) / math.sqrt(replicates)) if replicates > 1 else 0.0
    return {
        "x_last_minus_1": x_prev,
        "x_last": x,
        "mean_sq": mean_sq,
        "se_sq": se_sq,
        "mean_x": float(x_prev.mean()),
        "se_x": float(x_prev.std(ddof=1) / math.sqrt(replicates))
        if replicates > 1
        else 0.0,
    }
