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
(ProblemInstance.local_grad, since deleted), reference_grad_f_H
(ProblemInstance.grad_f_H) and reference_stochastic_gradient
(problems.stochastic_gradient).

dissimilarity_gap is problems.dissimilarity_gap as it stood when it left
the package, where nothing but tests called it: the gap at one point, read
off honest_grads.

The softmax kernel of SyntheticClassificationTask before it computed in
place is kept the same way: reference_probs, reference_residual and
reference_reduce (its _probs, _residual and _reduce) and the three entry
points built on them, reference_loss_grad, reference_minibatch_grads and
reference_task_grads (loss_grad, minibatch_grads and grads), with `self`
read as `task`. reference_poisoned_instance is the label-poisoned copy
(trainer._poisoned_instance then, ProblemInstance._poisoned now) as it
stood with its per-sample label_flip loop, and the loop below poisons its
shards with it. reference_alie is attacks.alie as it stood with its Python
scoring loop and list-indexed probe stack, and the loop crafts its ALIE
submissions with it.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional, Sequence, Union

import numpy as np

from robustsgd.aggregators import AggregatorSpec, OracleContext, aggregate
from robustsgd.attacks import (
    DEFAULT_ALIE_CANDIDATES,
    AdversaryView,
    AttackSpec,
    label_flip,
    sign_flip,
)
from robustsgd.core import (
    ConfigurationError,
    ContractViolation,
    DenseVector,
    NumericFailure,
    RngStream,
    RunConfig,
    as_matrix,
)
from robustsgd.problems import ProblemInstance, _row_mean
from robustsgd.trainer import (
    LyapunovTrace,
    RunRecord,
    ScheduleSpec,
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


def dissimilarity_gap(instance: ProblemInstance, G: float, B: float, x: DenseVector) -> float:
    """LHS - RHS of the dissimilarity inequality at a single point; the
    squared deviations are summed in honest order from zero, then divided."""
    rows = instance.honest_grads(x.values)
    gH = _row_mean(rows)
    diff = rows - gH
    lhs = (np.cumsum(np.vecdot(diff, diff))[-1] + 0.0) / rows.shape[0]
    return float(lhs - (G * G + B * B * np.vecdot(gH, gH)))


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


def reference_probs(task, x: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Softmax class probabilities of the samples X (..., k, dim) under
    the flat parameters x, (..., k, n_classes), or under each row of a
    stack x (K, d), (K, ..., k, n_classes). The logits of each (k, dim)
    slice take one matmul, so a stack of batches or of parameters gives
    every slice bitwise as a call on that batch and parameter alone."""
    W = x.reshape(*x.shape[:-1], *(1,) * (X.ndim - 2), task.n_classes, task.dim + 1)
    z = X @ np.swapaxes(W[..., :-1], -1, -2) + W[..., None, :, -1]
    z = z - z.max(axis=-1, keepdims=True)
    expz = np.exp(z)
    return expz / expz.sum(axis=-1, keepdims=True)


def reference_residual(p: np.ndarray, y: np.ndarray, m) -> np.ndarray:
    """(p - onehot(y)) / m in place: the gradient of each batch's mean
    cross-entropy with respect to its logits, from the probabilities p
    (..., k, n_classes) of samples with labels y, (..., k) or any shape
    that broadcasts to it. m is the batch size, or an array that
    broadcasts against p."""
    rows = p.reshape(-1, p.shape[-1])
    rows[np.arange(rows.shape[0]), np.broadcast_to(y, p.shape[:-1]).reshape(-1)] -= 1.0
    p /= m
    return p


def reference_reduce(r: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Flat parameter gradients, (..., param_dim), from the logit
    gradients r (..., k, n_classes) of the samples X (..., k, dim):
    weights r^T X and biases summed over the batch."""
    gW = np.swapaxes(r, -1, -2) @ X
    gb = r.sum(axis=-2)
    return np.concatenate([gW, gb[..., None]], axis=-1).reshape(
        *r.shape[:-2], r.shape[-1] * (X.shape[-1] + 1))


def reference_loss_grad(task, worker: int, x: np.ndarray, idx: Optional[np.ndarray] = None):
    """Cross-entropy loss and exact gradient on worker data (or the
    subset `idx`), as (loss, flat_grad)."""
    X = task.features[worker]
    y = task.labels[worker]
    if idx is not None:
        X, y = X[idx], y[idx]
    p = reference_probs(task, x, X)
    m = X.shape[0]
    loss = float(-np.mean(np.log(p[np.arange(m), y] + 1e-300)))
    return loss, reference_reduce(reference_residual(p, y, m), X)


def reference_minibatch_grads(task, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Gradients of a stack of minibatches in one pass, (k, param_dim):
    row r is the mean cross-entropy gradient over the samples idx[r]
    (indices into the concatenated shards), bitwise what loss_grad
    gives for the same samples of one worker."""
    X, y = task.shards[0][idx], task.shards[1][idx]
    return reference_reduce(reference_residual(reference_probs(task, x, X), y, idx.shape[-1]), X)


def reference_task_grads(task, x: np.ndarray) -> np.ndarray:
    """Full-shard gradient of every worker, (n, param_dim), in one pass
    over the concatenated shards: row w is loss_grad(w, x)[1] bitwise.
    The logits of all samples take one matmul, except that a one-sample
    shard takes its own (1, dim) product, as loss_grad does; each
    worker's gradient then reduces its own segment.

    A stack of points x (K, d) gives (K, n, param_dim) in one pass,
    slice k bitwise grads(x[k]): every product is the call that point
    alone makes, repeated over the stack."""
    X, y, starts, sizes, per_sample = task.shards
    p = reference_probs(task, x, X)
    single = starts[sizes == 1]
    if single.size:
        p[..., single, :] = reference_probs(task, x, X[single, None])[..., 0, :]
    r = reference_residual(p, y, per_sample)
    return np.stack([reference_reduce(r[..., s:s + k, :], X[s:s + k])
                     for s, k in zip(starts, sizes)], axis=-2)


def reference_poisoned_instance(inst: ProblemInstance, byz_ids) -> ProblemInstance:
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


def reference_alie(
    view: AdversaryView, candidate_alphas: Optional[Sequence[float]] = None
) -> Union[DenseVector, np.ndarray]:
    """Craft the common Byzantine submission mu + alpha*sigma_dev, where mu
    is the honest mean, sigma_dev = sqrt(sum_H ||x_i - mu||^2) (total squared
    deviation over honest workers, not averaged), and the scalar
    alpha*sigma_dev is added to every coordinate.

    alpha is chosen greedily by one probe of the server's actual rule: the
    (len(candidates), n, d) stack holding the honest updates and, in every
    Byzantine slot, one candidate vector per row is aggregated in a single
    call, and the candidate maximizing ||A(...) - mu|| wins. Ties go to the
    first candidate in listed order. The winning row of that call is the
    server's output on the crafted input; it is recorded as
    view.server_output. With zero honest dispersion every candidate
    collapses to mu, the attack is inert and nothing is recorded.

    The crafted vector comes back as a (d,) array when the honest updates
    are an (h, d) array, and as a DenseVector otherwise.
    """
    cands = tuple(candidate_alphas) if candidate_alphas is not None else DEFAULT_ALIE_CANDIDATES
    if not cands:
        raise ConfigurationError("alie needs a nonempty candidate set")
    view.server_output = None
    honest = view.honest_updates
    stacked = isinstance(honest, np.ndarray)
    if len(honest) == 0:
        raise ConfigurationError("alie needs at least one honest update")
    box = np.asarray if stacked else DenseVector
    hmat = np.ascontiguousarray(honest, dtype=np.float64) if stacked else as_matrix(honest)
    mu = hmat.mean(axis=0)
    sigma_dev = math.sqrt(float(((hmat - mu) ** 2).sum()))
    if sigma_dev == 0.0:
        return box(mu)

    honest_ids = [int(i) for i in view.honest_ids]
    byz_ids = sorted(set(range(view.n)) - set(honest_ids))
    spec = view.aggregator
    probes = mu + np.asarray(cands, dtype=np.float64)[:, None] * sigma_dev
    if not np.all(np.isfinite(probes)):
        raise NumericFailure("alie candidate submissions must be finite")
    stack = np.empty((len(cands), view.n, hmat.shape[1]))
    stack[:, honest_ids] = hmat
    stack[:, byz_ids] = probes[:, None, :]
    outs = aggregate(
        spec,
        stack,
        honest_ids=honest_ids if spec.honest_aware else None,
        context=view.context,
    )
    best = 0
    best_score = -1.0
    for r, out in enumerate(outs):
        dev = out - mu
        score = math.sqrt(float(np.dot(dev, dev)))
        if score > best_score:
            best_score = score
            best = r
    view.server_output = outs[best]
    return box(probes[best])


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
        reference_poisoned_instance(inst, set(byz)) if attack.kind == "label_flip" else None
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
                crafted = reference_alie(view, attack.candidate_alphas)
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


