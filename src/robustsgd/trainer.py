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
to drawing it step by step. A classification step's minibatch gradients
take one batched softmax pass for the honest workers and one for the
Byzantine ones. DenseVector appears only at the API boundary (x0,
RunRecord.final_x) and where an OracleContext or AdversaryView needs the
model x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .aggregators import AggregatorSpec, OracleContext, aggregate
from .attacks import AdversaryView, AttackSpec, alie, label_flip, sign_flip
from .core import (
    ConfigurationError,
    DenseVector,
    NumericFailure,
    RngStream,
    RunConfig,
)
from .problems import ProblemInstance
# the loop does not call the per-worker honest oracle; perfbench's tracer
# looks it up under this name
from .problems import stochastic_gradient  # noqa: F401

STEPSIZE_KINDS = ("constant", "invsqrt", "pl_piecewise", "cosine")
MOMENTUM_KINDS = ("zero", "constant", "tied")


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
    c_beta: float = 36.0

    def __post_init__(self):
        if self.stepsize not in STEPSIZE_KINDS:
            raise ConfigurationError(f"unknown stepsize schedule {self.stepsize!r}")
        if self.momentum not in MOMENTUM_KINDS:
            raise ConfigurationError(f"unknown momentum schedule {self.momentum!r}")
        if self.stepsize == "pl_piecewise":
            if self.s0 is None or self.alpha1 is None:
                raise ConfigurationError("pl_piecewise requires s0 and alpha1")
            if not self.s0 > 2:
                raise ConfigurationError(f"pl_piecewise requires s0 > 2, got {self.s0}")
            if not self.alpha1 > 0:
                raise ConfigurationError("pl_piecewise requires alpha1 > 0")
            implied = 2.0 / (self.alpha1 * self.s0)
            if self.gamma0 is None:
                object.__setattr__(self, "gamma0", implied)
            elif abs(self.gamma0 - implied) > 1e-9 * implied:
                raise ConfigurationError(
                    f"pl_piecewise requires gamma0 = 2/(alpha1*s0) = {implied:.12g}, "
                    f"got {self.gamma0:.12g}"
                )
        else:
            if self.gamma0 is None or not self.gamma0 > 0:
                raise ConfigurationError("schedule requires gamma0 > 0")
        if self.stepsize == "cosine" and (self.T_max is None or self.T_max < 1):
            raise ConfigurationError("cosine schedule requires T_max >= 1")
        if self.momentum == "constant" and not 0.0 <= self.beta < 1.0:
            raise ConfigurationError("constant momentum requires 0 <= beta < 1")
        if self.momentum == "tied" and not self.c_beta > 0:
            raise ConfigurationError("tied momentum requires c_beta > 0")


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
                f"got gamma_t * L = {gamma * L:.6g}"
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
    s0 = float(math.ceil(lower))
    if s0 <= lower:
        s0 += 1.0
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
    lower = max(2.0, 72.0 * L / alpha4)
    s0 = float(math.ceil(lower))
    if s0 <= lower:
        s0 += 1.0
    return ScheduleSpec(
        stepsize="pl_piecewise", s0=s0, alpha1=alpha4, momentum="tied", c_beta=36.0
    )


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
    floor_window: float = 0.1

    @property
    def T(self) -> int:
        return self.t.size

    @property
    def final_x(self) -> DenseVector:
        return DenseVector(self.xs[-1])

    def floor_estimate(self, window_fraction: Optional[float] = None) -> float:
        return measure_floor(self, window_fraction or self.floor_window)

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


def measure_floor(record: RunRecord, window_fraction: float = 0.1) -> float:
    """Mean grad_norm_sq over the trailing window: the error-floor estimate."""
    if not 0 < window_fraction <= 1:
        raise ConfigurationError("window_fraction must lie in (0, 1]")
    k = max(1, int(round(window_fraction * record.T)))
    return float(record.grad_norm_sq[-k:].mean())


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
    byz = attack.byzantine_ids
    if byz and byz != inst.pop.byzantine_ids:
        raise ConfigurationError(
            "attack byzantine_ids must match the population's Byzantine set"
        )
    if attack.kind == "label_flip" and inst.task is None:
        raise ConfigurationError("label_flip requires a classification task")
    if config.schedule.momentum == "tied":
        # every schedule here is nonincreasing in t, so gamma_1 is the max
        gamma1, _ = schedules(1, config.schedule, config.T, L=inst.analytic.L)
        bound = 1.0 / config.schedule.c_beta
        if gamma1 * inst.analytic.L > bound + 1e-15:
            raise ConfigurationError(
                f"tied momentum requires gamma_t * L <= 1/c_beta = {bound:.6g}; "
                f"got gamma_1 * L = {gamma1 * inst.analytic.L:.6g}"
            )


def _poisoned_instance(inst: ProblemInstance, byz_ids) -> ProblemInstance:
    """Copy of a classification instance with the Byzantine workers' labels
    flipped y -> (C-1) - y; honest shards untouched."""
    task = inst.task
    C = task.n_classes
    labels = []
    for w in range(inst.pop.n):
        if w in byz_ids:
            flipped = np.array(
                [label_flip((None, int(y)), C)[1] for y in task.labels[w]],
                dtype=np.int64,
            )
            flipped.setflags(write=False)
            labels.append(flipped)
        else:
            labels.append(task.labels[w])
    return replace(inst, task=replace(task, labels=tuple(labels)))


def _byzantine_honest_style(
    oracle: ProblemInstance, x: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Honest-style minibatch gradients of the Byzantine workers on a
    classification task, one batched pass per step: row r is the gradient
    over the r-th Byzantine worker's minibatch idx[r], drawn from that
    worker's own stream and read from `oracle`'s shards, which are
    label-poisoned under label_flip. Other noise models take every worker's
    row from ProblemInstance.grads plus its own noise. This stays a function
    of its own so that perfbench's tracer (`attacks.byzantine_oracle`) can
    time the Byzantine oracle apart from the honest one."""
    return oracle.task.minibatch_grads(x, idx)


# Steps of noise drawn at a time: a run holds at most this many steps of
# perturbations or minibatch indices, whatever its horizon.
_NOISE_BLOCK = 1024


def _noise_block(noise, streams: dict, steps: int, n: int, d: int,
                 task=None) -> np.ndarray:
    """The next `steps` noise draws of every worker, (steps, n, ...).

    gaussian and bernoulli_pm: (steps, n, d) gradient perturbations; slice
    [:, w] holds sigma/sqrt(d) times worker w's draws from its own stream,
    standard normals (gaussian) or signs 1 - 2*xi with xi in {0, 1}
    (bernoulli_pm). minibatch: (steps, n, m) indices into the task's
    concatenated shards; slice [:, w] holds worker w's samples, drawn
    uniformly with replacement from its own shard. One (steps, k) draw
    equals `steps` draws of size k, bit for bit. Workers without a stream
    get zero slices."""
    if noise.kind == "minibatch":
        _, _, starts, sizes, _ = task.shards
        out = np.zeros((steps, n, noise.m), dtype=np.int64)
        for w, stream in streams.items():
            out[:, w] = starts[w] + stream.generator.integers(
                0, sizes[w], size=(steps, noise.m))
        return out
    out = np.zeros((steps, n, d))
    s = noise.sigma / math.sqrt(d)
    for w, stream in streams.items():
        gen = stream.generator
        if noise.kind == "gaussian":
            out[:, w] = s * gen.standard_normal((steps, d))
        else:
            out[:, w] = s * (1.0 - 2.0 * gen.integers(0, 2, size=(steps, d)))
    return out


def _row_mean(rows: np.ndarray) -> np.ndarray:
    """Mean of the rows of a (k, d) array, or of each (k, d) slice of a
    stack, summed in row order from zero and then divided, as
    ProblemInstance.grad_f_H does. cumsum adds strictly in order where sum
    may pair terms; adding 0.0 turns an all-(-0.0) sum into the +0.0 that a
    zero start gives."""
    return (np.cumsum(rows, axis=-2)[..., -1, :] + 0.0) / rows.shape[-2]


def run(config: RunConfig, _force_honest_mean: bool = False) -> RunRecord:
    """Execute T iterations of the aggregation loop and record metrics.

    The loop keeps every worker's momentum as the rows of one (n, d)
    matrix. One call of ProblemInstance.grads per step, at the new iterate,
    gives the metrics of that iterate and the next step's exact gradients
    (for a classification task, one softmax pass over the concatenated
    shards). Each worker's noise comes from blocks drawn ahead from its own
    (seed, worker, "noise") stream, bitwise the draws a per-step oracle
    would make: perturbations added to the exact gradients, or, under
    minibatch noise, sample indices whose gradients take one batched pass
    for the honest workers and one (_byzantine_honest_style) for the
    Byzantine ones. A DenseVector is built only where an OracleContext or
    AdversaryView needs the model x (oracle rules, ALIE) and at the API
    boundary (x0, RunRecord.final_x).

    Byzantine behavior by attack kind:

      none        Byzantine workers behave honestly (own data, own streams)
      sign_flip   they maintain an honest-style momentum and submit its
                  negation
      label_flip  they run on label-poisoned copies of their own shards
      alie        every Byzantine slot submits the common crafted vector

    Every step checks the new iterate and its metrics; the first non-finite
    value raises NumericFailure naming the iteration and the column. The
    lyapunov column stays NaN; track_lyapunov fills it from the record.
    """
    _validate(config)
    inst: ProblemInstance = config.problem
    agg: AggregatorSpec = config.aggregator
    attack: AttackSpec = config.attack
    sched: ScheduleSpec = config.schedule
    pop = inst.pop
    n, d, T = pop.n, inst.dim, config.T
    honest = pop.honest_sorted()
    byz = sorted(pop.byzantine_ids)
    L = inst.analytic.L
    noise = inst.noise
    minibatch = noise.kind == "minibatch"
    if inst.is_quadratic and minibatch:
        raise ConfigurationError("minibatch noise requires a classification task")

    crafted = bool(byz) and attack.kind == "alie"
    streams = {}
    if not noise.deterministic:
        # every worker but ALIE's slots draws its own gradients
        streams = {w: RngStream(config.seed, w, "noise")
                   for w in (honest if crafted else range(n))}
    # the shards every worker reads, label-poisoned for the Byzantine ones
    # under label_flip; its honest rows are inst's, so its grads give f_H's too
    oracle = (
        _poisoned_instance(inst, set(byz)) if attack.kind == "label_flip" else inst
    )
    byz_rows = bool(byz) and not crafted
    needs_x = crafted or agg.honest_aware
    x_star = inst.analytic.x_star

    x = config.x0.values.copy()
    m = np.zeros((n, d))

    f_star = None
    if x_star is not None:
        f_star = inst.f_H(x_star)
    ref = inst.analytic.x_F_star
    if ref is None:
        ref = x_star

    t_arr = np.arange(1, T + 1)
    grad_ns = np.empty(T)
    f_gap = np.full(T, np.nan)
    dist = np.full(T, np.nan)
    gammas = np.empty(T)
    betas = np.empty(T)
    xs = np.empty((T + 1, d))
    xs[0] = x
    # the columns a step must leave finite; the others stay NaN
    checked = [(name, col) for name, col, defined in (
        ("grad_norm_sq", grad_ns, True),
        ("f_gap", f_gap, f_star is not None),
        ("dist_to_ref", dist, ref is not None),
    ) if defined]

    G = None if minibatch else oracle.grads(x)  # exact gradients at x^{t-1}

    t = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(1, T + 1):
                gamma, beta = schedules(t, sched, T, L=L)
                X = context = None
                if needs_x:
                    X = DenseVector(x)
                    context = OracleContext(x=X, x_star=x_star, instance=inst)

                if streams:
                    k = (t - 1) % _NOISE_BLOCK
                    if k == 0:
                        block = _noise_block(
                            noise, streams, min(_NOISE_BLOCK, T - t + 1), n, d,
                            oracle.task,
                        )
                if minibatch:
                    g = np.empty((n, d))
                    g[honest] = oracle.task.minibatch_grads(x, block[k, honest])
                    if byz_rows:
                        g[byz] = _byzantine_honest_style(oracle, x, block[k, byz])
                elif streams:
                    g = G + block[k]
                else:
                    g = G
                if crafted:
                    m[honest] = beta * m[honest] + (1.0 - beta) * g[honest]
                else:
                    m = beta * m + (1.0 - beta) * g

                U = m
                agg_out = None
                if crafted:
                    view = AdversaryView(
                        honest_updates=m[honest], honest_ids=honest, aggregator=agg,
                        x=X, n=n, context=context,
                    )
                    U = m.copy()
                    U[byz] = alie(view, attack.candidate_alphas)
                    # alie's probe already aggregated exactly this input
                    agg_out = view.server_output
                elif byz and attack.kind == "sign_flip":
                    U = m.copy()
                    U[byz] = sign_flip(m[byz])

                if _force_honest_mean:
                    agg_out = m[honest].mean(axis=0)
                elif agg_out is None:
                    agg_out = aggregate(
                        agg, U,
                        honest_ids=honest if agg.honest_aware else None,
                        context=context,
                    )

                x = x - gamma * agg_out
                xs[t] = x
                G = oracle.grads(x)
                gH = _row_mean(G[honest])
                grad_ns[t - 1] = float(np.dot(gH, gH))
                if f_star is not None:
                    f_gap[t - 1] = inst.f_H(x) - f_star
                if ref is not None:
                    r = x - ref.values
                    dist[t - 1] = math.sqrt(float(np.dot(r, r)))
                gammas[t - 1] = gamma
                betas[t - 1] = beta

                if not np.isfinite(x).all():
                    raise NumericFailure("non-finite iterate")
                for name, col in checked:
                    if not math.isfinite(col[t - 1]):
                        raise NumericFailure(f"non-finite {name}")
    except NumericFailure as exc:
        raise NumericFailure(f"{exc} at iteration {t}") from None

    return RunRecord(
        t=t_arr, grad_norm_sq=grad_ns, f_gap=f_gap, dist_to_ref=dist,
        lyapunov=np.full(T, np.nan), gamma=gammas, beta=betas, xs=xs,
    )


def run_honest_baseline(config: RunConfig) -> RunRecord:
    """The same loop with the aggregator replaced by the honest mean — an
    oracle baseline for attack/rule comparisons."""
    return run(config, _force_honest_mean=True)


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
    if sched.momentum != "tied" or sched.c_beta != 36.0:
        raise ConfigurationError(
            "lyapunov tracking requires tied momentum with c_beta = 36"
        )
    if inst.analytic.G is None or inst.analytic.B is None:
        raise ConfigurationError("lyapunov tracking needs declared (G, B)")
    if inst.analytic.x_star is None:
        raise ConfigurationError("lyapunov tracking needs a known minimizer")
    if not inst.is_quadratic:
        raise ConfigurationError("lyapunov tracking needs a quadratic objective")


def lyapunov_trace(config: RunConfig, record: RunRecord, kappa: float) -> LyapunovTrace:
    """V^t and the per-transition descent bound of a finished run.

        V^t = 2 (f_H(x^{t-1}) - f*) + c1 ||mean_H m^t - grad f_H(x^{t-1})||^2
              + c2 Gamma_H^{t-1},   c1 = 1/(8L),  c2 = kappa/(2L),

    with Gamma_H^{t-1} the honest momenta's dispersion. rhs[t-1] bounds
    V^{t+1}; a step whose V^{t+1} exceeds it is flagged. The run must be
    deterministic (sigma = 0) on a quadratic with tied momentum, c_beta =
    36: the honest momenta then replay exactly from record.xs and
    record.beta, and the gap and ||grad f_H||^2 at x^{t-1} are the record's
    own columns. The first non-finite V^t raises NumericFailure.
    """
    _check_trackable(config)
    inst: ProblemInstance = config.problem
    L, G, B = inst.analytic.L, inst.analytic.G, inst.analytic.B
    sigma = inst.noise.sigma
    honest = inst.pop.honest_sorted()
    T = record.T
    c1 = 1.0 / (8.0 * L)
    c2 = kappa / (2.0 * L)

    # row t-1 of each: honest grad f_i(x^{t-1}), grad f_H(x^{t-1}), its squared
    # norm and f_H(x^{t-1}) - f*, the last two from the record for t >= 2
    A, C = inst._coefficients
    grads = (A * record.xs[:-1, None, :] + C)[:, honest]
    gHs = _row_mean(grads)
    gnorms = np.concatenate(([float(np.dot(gHs[0], gHs[0]))], record.grad_norm_sq[:-1]))
    gaps = np.concatenate((
        [inst.f_H(record.xs[0]) - inst.f_H(inst.analytic.x_star)], record.f_gap[:-1]))
    m = np.zeros(grads.shape[1:])
    V = np.empty(T)
    rhs = np.empty(max(T - 1, 0))
    flagged: list = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            gap = gaps[t - 1]
            centered = m - m.mean(axis=0)
            disp_prev = float((centered**2).sum(axis=1).mean())  # Gamma_H^{t-1}
            beta = record.beta[t - 1]
            m = beta * m + (1.0 - beta) * grads[t - 1]
            delta = m.mean(axis=0) - gHs[t - 1]
            delta_sq = float(np.dot(delta, delta))
            V[t - 1] = 2.0 * gap + c1 * delta_sq + c2 * disp_prev
            if not math.isfinite(V[t - 1]):
                raise NumericFailure(f"non-finite lyapunov at iteration {t}")
            if t >= 2 and V[t - 1] > rhs[t - 2]:
                flagged.append(t - 1)
            if t <= T - 1:
                gamma = record.gamma[t - 1]
                rhs[t - 1] = (
                    gamma * (-3.0 / 8.0 + 21.0 * kappa * B * B) * gnorms[t - 1]
                    + 2.0 * gap
                    + (1.0 - gamma * L) * (c1 * delta_sq + c2 * disp_prev)
                    + gamma * gamma
                    * (162.0 * L / inst.pop.h + 756.0 * kappa * L)
                    * sigma * sigma
                    + 21.0 * gamma * kappa * G * G
                )
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
    two-worker Bernoulli construction under the noise-drift adversarial rule.

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
        same = xi[:, 0] == xi[:, 1]
        W = np.where(
            same,
            B * mu * x,
            np.where(xi[:, 0] == 1, -B * mu * x + sigma, B * mu * x + sigma),
        )
        if t == T:
            x_prev = x.copy()
        x = x - gamma * (gbar - sk * W)
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
