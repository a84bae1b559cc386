"""The distributed training loop with local momentum, schedules, metrics,
and the Lyapunov descent tracker.

One iteration: broadcast x^{t-1}; every honest worker draws a stochastic
gradient and updates its momentum m_i^t = beta_t m_i^{t-1} + (1-beta_t) g_i^t
(m_i^0 = 0); Byzantine slots are filled by the attack; the server aggregates
and steps x^t = x^{t-1} - gamma_t g^t. beta_t = 0 throughout reduces to plain
robust distributed SGD.
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
from .problems import ProblemInstance, stochastic_gradient

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
    history x^0..x^T. The lyapunov column is NaN unless tracking was on
    (the value in row t is V^t, which by definition reads x^{t-1})."""

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

    def x_at(self, t: int) -> DenseVector:
        """Iterate x^t, t in [0, T]."""
        return DenseVector(self.xs[t])

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
    inst: ProblemInstance, worker: int, x: DenseVector, stream: RngStream
) -> DenseVector:
    """Honest-style stochastic gradient of a Byzantine worker's own local
    objective, drawn from the worker's own stream (the pre-attack value).
    Mirrors the honest oracle, without its honest-membership contract."""
    noise = inst.noise
    if inst.task is not None:
        if noise.kind == "minibatch":
            m_avail = inst.task.labels[worker].size
            idx = stream.generator.integers(0, m_avail, size=noise.m)
            _, g = inst.task.loss_grad(worker, x.values, idx=idx)
        else:
            _, g = inst.task.loss_grad(worker, x.values)
        return DenseVector(g)
    g = inst.locals[worker].grad(x.values)
    if noise.kind == "none" or noise.sigma == 0.0:
        return DenseVector(g)
    dd = g.size
    if noise.kind == "gaussian":
        pert = noise.sigma / math.sqrt(dd) * stream.generator.standard_normal(dd)
    else:
        xi = stream.generator.integers(0, 2, size=dd)
        pert = noise.sigma / math.sqrt(dd) * (1.0 - 2.0 * xi)
    return DenseVector(g + pert)


def run(
    config: RunConfig,
    lyapunov_kappa: Optional[float] = None,
    _force_honest_mean: bool = False,
) -> RunRecord:
    """Execute T iterations of the aggregation loop and record metrics.

    Honest worker i draws from its own (seed, worker, purpose) stream, so a
    run is bitwise-reproducible and independent of evaluation order.
    Byzantine behavior by attack kind:

      none        Byzantine workers behave honestly (own data, own streams)
      sign_flip   they maintain an honest-style momentum and submit its
                  negation
      label_flip  they run on label-poisoned copies of their own shards
      alie        every Byzantine slot submits the common crafted vector

    With lyapunov_kappa set, the run must be deterministic (sigma = 0) and
    use tied momentum with c_beta = 36; the record then carries V^t and a
    LyapunovTrace holding the per-transition descent bound and any steps
    that exceeded it.
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

    track = lyapunov_kappa is not None
    if track:
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
        c1 = 1.0 / (8.0 * L)
        c2 = lyapunov_kappa / (2.0 * L)
        V = np.full(T, np.nan)
        rhs = np.full(max(T - 1, 0), np.nan)
        flagged: list = []

    streams = {i: RngStream(config.seed, i, "noise") for i in range(n)}
    poisoned = (
        _poisoned_instance(inst, set(byz)) if attack.kind == "label_flip" else None
    )
    x = config.x0.values.copy()
    m = np.zeros((n, d))

    f_star = None
    if inst.analytic.x_star is not None:
        f_star = inst.f_H(inst.analytic.x_star)
    ref = inst.analytic.x_F_star
    if ref is None:
        ref = inst.analytic.x_star

    t_arr = np.arange(1, T + 1)
    grad_ns = np.empty(T)
    f_gap = np.full(T, np.nan)
    dist = np.full(T, np.nan)
    gammas = np.empty(T)
    betas = np.empty(T)
    lyap_col = np.full(T, np.nan)
    xs = np.empty((T + 1, d))
    xs[0] = x

    for t in range(1, T + 1):
        gamma, beta = schedules(t, sched, T, L=L)
        X = DenseVector(x)
        if track:
            centered = m[honest] - m[honest].mean(axis=0)
            disp_prev = float((centered**2).sum(axis=1).mean())  # Gamma_H^{t-1}

        for i in honest:
            g = stochastic_gradient(inst, i, X, streams[i])
            m[i] = beta * m[i] + (1.0 - beta) * g.values

        updates = [None] * n
        for i in honest:
            updates[i] = DenseVector(m[i])

        agg_out = None
        if byz:
            if attack.kind == "alie":
                view = AdversaryView(
                    honest_updates=[updates[i] for i in honest],
                    honest_ids=honest,
                    aggregator=agg,
                    x=X,
                    n=n,
                    context=OracleContext(
                        x=X, x_star=inst.analytic.x_star, instance=inst
                    ),
                )
                crafted = alie(view, attack.candidate_alphas)
                for j in byz:
                    updates[j] = crafted
                # alie's probe already aggregated exactly this input
                agg_out = view.server_output
            else:
                for j in byz:
                    src = poisoned if attack.kind == "label_flip" else inst
                    g = _byzantine_honest_style(src, j, X, streams[j])
                    m[j] = beta * m[j] + (1.0 - beta) * g.values
                    if attack.kind == "sign_flip":
                        updates[j] = sign_flip(DenseVector(m[j]))
                    else:
                        updates[j] = DenseVector(m[j])

        if track:
            mH_bar = m[honest].mean(axis=0)
            gH = inst.grad_f_H(X).values
            delta_t = mH_bar - gH
            delta_sq = float(np.dot(delta_t, delta_t))
            gap_prev = inst.f_H(X) - f_star
            V_t = 2.0 * gap_prev + c1 * delta_sq + c2 * disp_prev
            V[t - 1] = V_t
            lyap_col[t - 1] = V_t
            if t >= 2 and V_t > rhs[t - 2]:
                flagged.append(t - 1)
            if t <= T - 1:
                G_, B_ = inst.analytic.G, inst.analytic.B
                gnorm = float(np.dot(gH, gH))
                sigma = inst.noise.sigma
                rhs[t - 1] = (
                    gamma * (-3.0 / 8.0 + 21.0 * lyapunov_kappa * B_ * B_) * gnorm
                    + 2.0 * gap_prev
                    + (1.0 - gamma * L) * (c1 * delta_sq + c2 * disp_prev)
                    + gamma * gamma
                    * (162.0 * L / pop.h + 756.0 * lyapunov_kappa * L)
                    * sigma * sigma
                    + 21.0 * gamma * lyapunov_kappa * G_ * G_
                )

        if _force_honest_mean:
            agg_out = m[honest].mean(axis=0)
        elif agg_out is None:
            context = OracleContext(x=X, x_star=inst.analytic.x_star, instance=inst)
            agg_out = aggregate(
                agg,
                updates,
                honest_ids=honest if agg.honest_aware else None,
                context=context,
            ).values
        if not np.all(np.isfinite(agg_out)):
            raise NumericFailure(f"non-finite aggregate at iteration {t}")

        x = x - gamma * agg_out
        if not np.all(np.isfinite(x)):
            raise NumericFailure(f"non-finite iterate at iteration {t}")
        xs[t] = x

        Xn = DenseVector(x)
        gH_new = inst.grad_f_H(Xn).values
        grad_ns[t - 1] = float(np.dot(gH_new, gH_new))
        if f_star is not None:
            f_gap[t - 1] = inst.f_H(Xn) - f_star
        if ref is not None:
            dist[t - 1] = float(np.linalg.norm(x - ref.values))
        gammas[t - 1] = gamma
        betas[t - 1] = beta

    record = RunRecord(
        t=t_arr, grad_norm_sq=grad_ns, f_gap=f_gap, dist_to_ref=dist,
        lyapunov=lyap_col, gamma=gammas, beta=betas, xs=xs,
    )
    if track:
        record.lyapunov_trace = LyapunovTrace(
            V=V, rhs=rhs, flagged=flagged, c1=c1, c2=c2
        )
    return record


def run_honest_baseline(config: RunConfig) -> RunRecord:
    """The same loop with the aggregator replaced by the honest mean — an
    oracle baseline for attack/rule comparisons."""
    return run(config, _force_honest_mean=True)


def track_lyapunov(config: RunConfig, kappa: Optional[float] = None):
    """Run deterministically and emit (record, LyapunovTrace). kappa
    defaults to the aggregator's configured robustness coefficient."""
    if kappa is None:
        kappa = config.aggregator.kappa
    if kappa is None:
        raise ConfigurationError(
            "track_lyapunov needs kappa (explicit, or from an oracle aggregator)"
        )
    record = run(config, lyapunov_kappa=kappa)
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
