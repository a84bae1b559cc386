"""The per-worker training loop that trainer.run replaced, kept verbatim as
a reference implementation.

`reference_run` is the loop as it stood before the engine moved to stacked
(n, d) arrays: one DenseVector per worker and step, one stochastic-gradient
call per worker, and metrics recomputed through grad_f_H and f_H.
test_reference_loop.py checks that trainer.run reproduces it byte for byte.
Only the function names differ from the original, and the honest-mean
aggregation switch it once had is gone with the engine's.

The per-worker gradient helpers it called have since become row reads of
ProblemInstance.grads. Their old bodies are kept below, verbatim apart from
their names (and `self` read as `inst`), so that this loop still computes
every gradient the old way:
reference_quadratic_grad (QuadraticLocal.grad), reference_local_grad
(ProblemInstance.local_grad), reference_grad_f_H (ProblemInstance.grad_f_H)
and reference_stochastic_gradient (problems.stochastic_gradient).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from robustsgd.aggregators import AggregatorSpec, OracleContext, aggregate
from robustsgd.attacks import AdversaryView, AttackSpec, alie, sign_flip
from robustsgd.core import (
    ConfigurationError,
    ContractViolation,
    DenseVector,
    NumericFailure,
    RngStream,
    RunConfig,
)
from robustsgd.problems import ProblemInstance
from robustsgd.trainer import (
    LyapunovTrace,
    RunRecord,
    ScheduleSpec,
    _poisoned_instance,
    _validate,
    schedules,
)


def reference_quadratic_grad(loc, x: np.ndarray) -> np.ndarray:
    return loc.a * x + loc.c


def reference_local_grad(inst: ProblemInstance, worker: int, x: DenseVector) -> DenseVector:
    """Exact gradient of f_worker at x."""
    if inst.task is not None:
        _, g = inst.task.loss_grad(worker, x.values)
        return DenseVector(g)
    return DenseVector(reference_quadratic_grad(inst.locals[worker], x.values))


def reference_grad_f_H(inst: ProblemInstance, x: DenseVector) -> DenseVector:
    ids = inst.pop.honest_sorted()
    acc = np.zeros(inst.dim)
    for i in ids:
        acc += reference_local_grad(inst, i, x).values
    return DenseVector(acc / len(ids))


def reference_stochastic_gradient(
    instance: ProblemInstance, worker: int, x: DenseVector, rng: RngStream
) -> DenseVector:
    """Unbiased gradient draw for an honest worker.

    kind=none returns the exact gradient; gaussian/bernoulli_pm perturb it
    with total second moment sigma^2; minibatch averages m per-sample
    gradients of the classification task (sampled with replacement).
    """
    if worker not in instance.pop.honest_ids:
        raise ContractViolation(
            f"worker {worker} is not honest; Byzantine outputs come from the attacks module"
        )
    noise = instance.noise
    if noise.kind == "minibatch":
        if instance.task is None:
            raise ConfigurationError("minibatch noise requires a classification task")
        m_avail = instance.task.labels[worker].size
        idx = rng.generator.integers(0, m_avail, size=noise.m)
        _, g = instance.task.loss_grad(worker, x.values, idx=idx)
        return DenseVector(g)
    g = reference_local_grad(instance, worker, x).values
    if noise.kind == "none" or noise.sigma == 0.0:
        return DenseVector(g)
    d = g.size
    if noise.kind == "gaussian":
        pert = noise.sigma / math.sqrt(d) * rng.generator.standard_normal(d)
    else:  # bernoulli_pm: xi=0 -> +sigma, xi=1 -> -sigma (per coordinate)
        xi = rng.generator.integers(0, 2, size=d)
        pert = noise.sigma / math.sqrt(d) * (1.0 - 2.0 * xi)
    return DenseVector(g + pert)


def reference_byzantine_honest_style(
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
            return DenseVector(g)
        _, g = inst.task.loss_grad(worker, x.values)
    else:
        g = reference_quadratic_grad(inst.locals[worker], x.values)
    if noise.kind == "none" or noise.sigma == 0.0:
        return DenseVector(g)
    dd = g.size
    if noise.kind == "gaussian":
        pert = noise.sigma / math.sqrt(dd) * stream.generator.standard_normal(dd)
    else:
        xi = stream.generator.integers(0, 2, size=dd)
        pert = noise.sigma / math.sqrt(dd) * (1.0 - 2.0 * xi)
    return DenseVector(g + pert)


def reference_run(
    config: RunConfig,
    lyapunov_kappa: Optional[float] = None,
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
            g = reference_stochastic_gradient(inst, i, X, streams[i])
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
                    g = reference_byzantine_honest_style(src, j, X, streams[j])
                    m[j] = beta * m[j] + (1.0 - beta) * g.values
                    if attack.kind == "sign_flip":
                        updates[j] = sign_flip(DenseVector(m[j]))
                    else:
                        updates[j] = DenseVector(m[j])

        if track:
            mH_bar = m[honest].mean(axis=0)
            gH = reference_grad_f_H(inst, X).values
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

        if agg_out is None:
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
        gH_new = reference_grad_f_H(inst, Xn).values
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


