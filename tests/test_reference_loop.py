"""trainer.run against the per-worker reference loop, byte for byte.

The reference (reference_loop.py) is the loop trainer.run replaced, with
Lyapunov tracking still inside it; the engine side tracks with the
lyapunov_trace pass over the finished record. Every RunRecord column and
the LyapunovTrace must match the reference exactly over random
populations, rules, attacks, noise models, momentum schedules and seeds.
The one intended difference: a run whose iterate or metrics turn
non-finite raises NumericFailure instead of recording inf.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustsgd.trainer as trainer
from reference_loop import reference_run
from robustsgd.aggregators import AggregatorSpec
from robustsgd.attacks import AttackSpec
from robustsgd.core import DenseVector, NumericFailure, RngStream, RunConfig
from robustsgd.problems import (
    NoiseModel,
    build_classification_task,
    build_hetero_lower_bound,
    build_noise_lower_bound,
    build_random_quadratic_family,
    with_noise,
)
from robustsgd.trainer import ScheduleSpec, _check_trackable, lyapunov_trace, run

COLUMNS = ("t", "grad_norm_sq", "f_gap", "dist_to_ref", "lyapunov", "gamma", "beta", "xs")
RULE_CHOICES = ("average", "krum", "multi_krum", "cwm", "cwtm", "gm",
                "variance_sign", "hetero_c1", "noise_c2")


def _instance(draw, rule, n, b, d, noise_kind, attack, track):
    """A population fit for the drawn rule: each oracle variant gets its own
    construction, minibatch noise and label_flip a classification task,
    everything else a random quadratic. A tracked run gets a deterministic
    instance that declares (G, B) and its minimizer."""
    sigma = draw(st.sampled_from([0.0, 0.3, 1.0]))
    if track:
        noise_kind = "none"
        attack = "sign_flip" if attack == "label_flip" else attack
    if rule in ("hetero_c1", "noise_c2") and attack == "label_flip":
        attack = "sign_flip"
    if rule == "hetero_c1":
        inst = build_hetero_lower_bound(mu=1.0, G=draw(st.sampled_from([0.0, 1.0])),
                                        B=0.5, d=d)
        if noise_kind != "minibatch":
            inst = with_noise(inst, NoiseModel(noise_kind, sigma=sigma))
        return inst, attack
    if rule == "noise_c2":
        return build_noise_lower_bound(mu=1.0, B=0.5, sigma=max(sigma, 0.3)), attack
    if rule != "variance_sign" and (noise_kind == "minibatch" or attack == "label_flip"):
        inst = build_classification_task(
            n_workers=n, b=b, n_classes=3, dim=2, samples_per_class=4 * n,
            seed=draw(st.integers(0, 3)), minibatch=draw(st.integers(1, 4)))
        if noise_kind != "minibatch":
            inst = with_noise(inst, NoiseModel(noise_kind, sigma=sigma))
        return inst, attack
    if attack == "label_flip":
        attack = "sign_flip"
    if noise_kind == "minibatch":
        noise_kind = "gaussian"
    inst = build_random_quadratic_family(
        n=n, d=d, rng=RngStream(draw(st.integers(0, 99)), 0, "reference"), b=b,
        shared_curvature=track or draw(st.booleans()))
    return with_noise(inst, NoiseModel(noise_kind, sigma=sigma)), attack


@st.composite
def run_cases(draw):
    n = draw(st.integers(1, 12))
    b = draw(st.integers(0, (n - 1) // 2))
    d = draw(st.integers(1, 12))
    rule = draw(st.sampled_from(RULE_CHOICES))
    attack = draw(st.sampled_from(["none", "sign_flip", "label_flip", "alie"]))
    noise_kind = draw(st.sampled_from(["none", "gaussian", "bernoulli_pm", "minibatch"]))
    momentum = draw(st.sampled_from(["zero", "constant", "tied"]))
    if rule in ("krum", "multi_krum"):
        n = max(n, b + 2)
    if rule == "cwtm":
        n = max(n, 2 * b + 1, 3)
    track = momentum == "tied" and rule != "noise_c2" and draw(st.booleans())
    inst, attack = _instance(draw, rule, n, b, d, noise_kind, attack, track)
    n, b = inst.pop.n, inst.pop.b

    kw = {}
    if rule == "multi_krum":
        kw["q"] = draw(st.integers(1, n))
    elif rule == "cwtm":
        kw["q"] = draw(st.integers(1, (n - 1) // 2))
    elif rule in ("variance_sign", "hetero_c1", "noise_c2"):
        kw = {"kappa": draw(st.sampled_from([0.0, 0.1, 0.5])), "variant": rule}
        rule = "oracle_adversarial"
    if kw.get("variant") == "noise_c2":
        momentum = "zero"  # its coin reconstruction reads plain gradient draws
    agg = AggregatorSpec(rule=rule, n=n, b=b, **kw)

    L = inst.analytic.L
    if momentum == "tied":
        sched = ScheduleSpec(stepsize="constant", momentum="tied",
                             gamma0=draw(st.sampled_from([0.25, 0.8, 1.0])) / (36.0 * L))
    else:
        sched = ScheduleSpec(
            stepsize=draw(st.sampled_from(["constant", "cosine"])),
            gamma0=draw(st.sampled_from([0.01, 0.05, 0.2])) / max(L, 1.0), T_max=8,
            momentum=momentum, beta=draw(st.sampled_from([0.3, 0.6, 0.9])))
    alphas = draw(st.sampled_from([(-2.0, -1.0, -0.5, 0.5, 1.0, 2.0), (1.0,), (-50.0, 50.0)]))
    attack_spec = AttackSpec(kind=attack, byzantine_ids=inst.pop.byzantine_ids,
                             candidate_alphas=alphas)
    if draw(st.booleans()):
        x0 = DenseVector(np.full(inst.dim, draw(st.sampled_from([-1.5, 0.0, 1.0]))))
    else:
        x0 = DenseVector(np.random.default_rng(draw(st.integers(0, 99))).normal(size=inst.dim))
    cfg = RunConfig(problem=inst, aggregator=agg, attack=attack_spec, schedule=sched,
                    T=draw(st.integers(1, 8)), x0=x0, seed=draw(st.integers(0, 2**16)))

    opts = {"_force_honest_mean": draw(st.booleans())}
    if track:
        opts["lyapunov_kappa"] = draw(st.sampled_from([0.05, 0.3]))
    return cfg, opts


def _defined_columns_finite(record) -> bool:
    cols = [record.xs, record.grad_norm_sq] + [
        c for c in (record.f_gap, record.dist_to_ref, record.lyapunov)
        if not np.isnan(c).all()]
    return all(np.isfinite(c).all() for c in cols)


def engine_run(cfg, lyapunov_kappa=None, _force_honest_mean=False):
    """trainer.run, then the Lyapunov post-pass when the case tracks, as
    track_lyapunov composes them."""
    if lyapunov_kappa is None:
        return run(cfg, _force_honest_mean=_force_honest_mean)
    _check_trackable(cfg)
    record = run(cfg, _force_honest_mean=_force_honest_mean)
    record.lyapunov_trace = lyapunov_trace(cfg, record, lyapunov_kappa)
    record.lyapunov[:] = record.lyapunov_trace.V
    return record


def assert_matches_reference(cfg, **opts):
    try:
        want = reference_run(cfg, **opts)
    except Exception as exc:  # the engine must refuse the same input the same way
        with pytest.raises(type(exc)):
            engine_run(cfg, **opts)
        return
    if not _defined_columns_finite(want):
        with pytest.raises(NumericFailure, match="at iteration"):
            engine_run(cfg, **opts)
        return
    got = engine_run(cfg, **opts)
    for col in COLUMNS:
        assert getattr(got, col).tobytes() == getattr(want, col).tobytes(), col
    if want.lyapunov_trace is None:
        assert got.lyapunov_trace is None
    else:
        a, b = got.lyapunov_trace, want.lyapunov_trace
        assert a.V.tobytes() == b.V.tobytes()
        assert a.rhs.tobytes() == b.rhs.tobytes()
        assert (a.flagged, a.c1, a.c2) == (b.flagged, b.c1, b.c2)


@given(run_cases(), st.integers(1, 4))
@settings(max_examples=250, deadline=None, derandomize=True)
def test_run_matches_per_worker_reference(case, noise_block):
    cfg, opts = case
    # a short noise block makes every few steps cross a block boundary
    with mock.patch.object(trainer, "_NOISE_BLOCK", noise_block):
        assert_matches_reference(cfg, **opts)


@pytest.mark.parametrize("attack", ["none", "alie"])
def test_run_longer_than_a_noise_block_matches_reference(attack):
    inst = with_noise(build_random_quadratic_family(n=5, d=2, rng=RngStream(3, 0, "r"), b=1),
                      NoiseModel("gaussian", sigma=0.5))
    cfg = RunConfig(problem=inst, aggregator=AggregatorSpec(rule="cwm", n=5, b=1),
                    attack=AttackSpec(kind=attack, byzantine_ids=inst.pop.byzantine_ids),
                    schedule=ScheduleSpec(gamma0=0.05, momentum="constant", beta=0.5),
                    T=trainer._NOISE_BLOCK + 5, x0=DenseVector([1.0, -1.0]), seed=4)
    assert_matches_reference(cfg)


@pytest.mark.parametrize("attack", ["label_flip", "sign_flip"])
def test_classification_run_across_an_index_block_matches_reference(attack):
    # minibatch indices are drawn in blocks of _NOISE_BLOCK steps
    inst = build_classification_task(n_workers=5, b=1, n_classes=3, dim=2,
                                     samples_per_class=6, seed=2, minibatch=3)
    cfg = RunConfig(problem=inst, aggregator=AggregatorSpec(rule="cwtm", n=5, b=1, q=1),
                    attack=AttackSpec(kind=attack, byzantine_ids=inst.pop.byzantine_ids),
                    schedule=ScheduleSpec(gamma0=0.05, momentum="constant", beta=0.5),
                    T=trainer._NOISE_BLOCK + 5, x0=DenseVector(np.zeros(inst.dim)), seed=9)
    assert_matches_reference(cfg)


@given(st.integers(0, 2**32), st.integers(0, 11), st.integers(1, 40), st.integers(1, 12),
       st.integers(1, 30), st.integers(1, 8))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_noise_blocks_equal_per_step_draws(seed, worker, T, d, m_avail, m):
    def gen():
        return RngStream(seed, worker, "noise").generator

    per_step, block = gen(), gen()
    assert (np.stack([per_step.standard_normal(d) for _ in range(T)]).tobytes()
            == block.standard_normal((T, d)).tobytes())
    per_step, block = gen(), gen()
    assert (np.stack([per_step.integers(0, 2, size=d) for _ in range(T)]).tobytes()
            == block.integers(0, 2, size=(T, d)).tobytes())
    # minibatch indices, as a classification oracle draws them
    per_step, block = gen(), gen()
    assert (np.stack([per_step.integers(0, m_avail, size=m) for _ in range(T)]).tobytes()
            == block.integers(0, m_avail, size=(T, m)).tobytes())

    # the engine's block: sigma/sqrt(d) times each worker's own draws
    n = worker + 1
    for kind in ("gaussian", "bernoulli_pm"):
        noise = NoiseModel(kind, sigma=0.7)
        out = trainer._noise_block(noise, {worker: RngStream(seed, worker, "noise")}, T, n, d)
        g = gen()
        for t in range(T):
            if kind == "gaussian":
                want = noise.sigma / math.sqrt(d) * g.standard_normal(d)
            else:
                want = noise.sigma / math.sqrt(d) * (1.0 - 2.0 * g.integers(0, 2, size=d))
            assert out[t, worker].tobytes() == want.tobytes()
        assert not out[:, :worker].any()
