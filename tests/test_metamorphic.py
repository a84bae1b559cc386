"""Metamorphic relations of the training loop: two runs that must agree bit
for bit, with no closed form needed.

(a) Power-of-two scaling. Multiplying every a_i, c_i, L, mu, G, sigma and
    gm's smoothing floor nu by 2^k, and gamma0 by 2^-k (for pl_piecewise:
    alpha1 by 2^k, which makes the derived gamma0 = 2/(alpha1*s0) and every
    later step 2^-k times as large), leaves every iterate and every
    momentum coefficient beta unchanged: each product, square root and sum
    scales exactly by a power of two. Every step size then scales by 2^-k,
    grad_norm_sq by 4^k, f_gap and the Lyapunov terms by 2^k, and the
    flagged steps stay the same.
(b) Without Byzantine workers, plain averaging is the variance_sign oracle
    at kappa = 0, which aggregates the honest mean.
(c) Relabelling the honest workers. Without Byzantine workers or noise,
    permuting the workers' local objectives leaves every iterate of cwm,
    cwtm, krum and multi_krum unchanged: they sort, or select and then
    reduce in an order that does not depend on the labels. average, gm and
    variance_sign sum in worker order, so a permutation can move the last
    bits of their iterates (up to 4.4e-16 measured on this family); a gate
    for them needs a tolerance derived from a rounding argument and is not
    made here.
(d) Reflection. Without noise, negating every c_i, x0 and x* negates every
    iterate: each gradient a*x + c, sum, median, distance and sign flip
    commutes with negation.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustsgd.aggregators import AggregatorSpec
from robustsgd.attacks import AttackSpec
from robustsgd.core import DenseVector, RngStream, RunConfig
from robustsgd.problems import (
    NoiseModel,
    QuadraticLocal,
    build_random_quadratic_family,
    with_noise,
)
from robustsgd.trainer import ScheduleSpec, lyapunov_trace, run

RULES = {
    "average": {}, "krum": {}, "multi_krum": {"q": 3}, "cwm": {}, "cwtm": {"q": 2},
    "gm": {}, "variance_sign": {"kappa": 0.3, "variant": "variance_sign"},
}
T = 120  # also the cosine schedule's T_max
STEPSIZES = ("constant", "invsqrt", "cosine", "pl_piecewise")


def _scaled(inst, s):
    """The instance with every a_i, c_i, L, mu, G and sigma times s."""
    an = inst.analytic
    return replace(
        inst,
        locals=tuple(QuadraticLocal(s * loc.a, s * loc.c) for loc in inst.locals),
        noise=replace(inst.noise, sigma=s * inst.noise.sigma),
        analytic=replace(an, L=s * an.L, mu=s * an.mu,
                         G=None if an.G is None else s * an.G),
    )


def _case(rule, data, noise, momentum):
    """A run of `rule` on a random quadratic with shared curvature, so (G, B)
    is declared and a deterministic tied-momentum run can be tracked."""
    oracle = rule == "variance_sign"
    # derandomised draws repeat for every rule, so each rule starts the
    # list of stepsize kinds at another place
    i = sorted(RULES).index(rule)
    stepsize = data.draw(st.sampled_from(STEPSIZES[i % 4:] + STEPSIZES[:i % 4]))
    n = data.draw(st.integers(5, 9))
    b = 0 if oracle else data.draw(st.integers(0, 2))
    inst = build_random_quadratic_family(
        n=n, d=data.draw(st.integers(1, 3)), b=b, shared_curvature=True,
        rng=RngStream(data.draw(st.integers(0, 99)), 0, "meta"))
    if noise != "none":
        inst = with_noise(inst, NoiseModel(noise, sigma=0.7))
    gamma0 = data.draw(st.sampled_from([0.3, 0.9])) / (36.0 * inst.analytic.L)
    if stepsize == "pl_piecewise":
        sched = ScheduleSpec(stepsize=stepsize, s0=3.0, alpha1=2.0 / (3.0 * gamma0),
                             momentum=momentum, beta=0.6)
    else:
        sched = ScheduleSpec(stepsize=stepsize, gamma0=gamma0, T_max=T,
                             momentum=momentum, beta=0.6)
    agg = AggregatorSpec(rule="oracle_adversarial" if oracle else rule, n=n, b=b, **RULES[rule])
    attack = "none" if oracle or b == 0 else data.draw(st.sampled_from(["none", "sign_flip", "alie"]))
    return RunConfig(problem=inst, aggregator=agg,
                     attack=AttackSpec(kind=attack),
                     schedule=sched, T=T, x0=DenseVector(np.linspace(-1.5, 2.0, inst.dim)),
                     seed=data.draw(st.integers(0, 2**16)))


def _scaled_run(cfg, k):
    """The run of cfg with the problem scaled by 2^k and the step sizes by
    2^-k."""
    s = 2.0**k
    agg = cfg.aggregator
    if agg.rule == "gm":
        agg = replace(agg, nu=s * agg.nu)
    sched = cfg.schedule
    if sched.stepsize == "pl_piecewise":
        sched = replace(sched, alpha1=s * sched.alpha1, gamma0=None)
    else:
        sched = replace(sched, gamma0=sched.gamma0 / s)
    return replace(cfg, problem=_scaled(cfg.problem, s), aggregator=agg, schedule=sched)


powers = st.sampled_from([-3, -2, -1, 1, 2, 3])


@pytest.mark.parametrize("rule", sorted(RULES))
@given(st.data(), st.sampled_from(["none", "gaussian", "bernoulli_pm"]),
       st.sampled_from(["zero", "constant", "tied"]), powers)
@settings(max_examples=6, deadline=None, derandomize=True)
def test_power_of_two_scaling_leaves_the_iterates_unchanged(rule, data, noise, momentum, k):
    cfg = _case(rule, data, noise, momentum)
    scaled = _scaled_run(cfg, k)
    a, b = run(cfg), run(scaled)
    assert a.xs.tobytes() == b.xs.tobytes()
    assert (a.gamma / 2.0**k).tobytes() == b.gamma.tobytes()
    assert a.beta.tobytes() == b.beta.tobytes()
    assert (a.grad_norm_sq * 4.0**k).tobytes() == b.grad_norm_sq.tobytes()
    assert (a.f_gap * 2.0**k).tobytes() == b.f_gap.tobytes()
    assert a.dist_to_ref.tobytes() == b.dist_to_ref.tobytes()


@pytest.mark.parametrize("rule", sorted(RULES))
@given(st.data(), powers, st.sampled_from([0.0, 0.3]))
@settings(max_examples=3, deadline=None, derandomize=True)
def test_power_of_two_scaling_keeps_the_lyapunov_flags(rule, data, k, kappa):
    # kappa = 0 claims a perfectly robust rule, so attacked runs get flags
    cfg = _case(rule, data, "none", "tied")
    scaled = _scaled_run(cfg, k)
    a, b = lyapunov_trace(cfg, run(cfg), kappa), lyapunov_trace(scaled, run(scaled), kappa)
    assert (a.V * 2.0**k).tobytes() == b.V.tobytes()
    assert (a.rhs * 2.0**k).tobytes() == b.rhs.tobytes()
    assert a.flagged == b.flagged


@given(st.integers(2, 8), st.integers(1, 4), st.sampled_from(["none", "gaussian", "bernoulli_pm"]),
       st.sampled_from(["zero", "constant"]), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_average_equals_the_kappa_zero_oracle_without_byzantines(n, d, noise, momentum, seed):
    inst = build_random_quadratic_family(n=n, d=d, rng=RngStream(seed, 0, "avg"))
    if noise != "none":
        inst = with_noise(inst, NoiseModel(noise, sigma=0.5))
    cfg = RunConfig(problem=inst, aggregator=AggregatorSpec(rule="average", n=n),
                    attack=AttackSpec(),
                    schedule=ScheduleSpec(gamma0=0.1, momentum=momentum, beta=0.6),
                    T=30, x0=DenseVector(np.full(d, 1.5)), seed=seed)
    oracle = replace(cfg, aggregator=AggregatorSpec(
        rule="oracle_adversarial", n=n, kappa=0.0, variant="variance_sign"))
    a, b = run(cfg), run(oracle)
    for col in ("xs", "grad_norm_sq", "f_gap", "dist_to_ref"):
        assert getattr(a, col).tobytes() == getattr(b, col).tobytes(), col


@pytest.mark.parametrize("rule", ["cwm", "cwtm", "krum", "multi_krum"])
@given(st.integers(5, 9), st.integers(1, 3), st.sampled_from(["zero", "constant", "tied"]),
       st.integers(0, 99), st.randoms(use_true_random=False))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_relabelling_the_honest_workers_leaves_the_iterates_unchanged(
        rule, n, d, momentum, seed, random):
    inst = build_random_quadratic_family(n=n, d=d, rng=RngStream(seed, 0, "relabel"))
    order = list(range(n))
    random.shuffle(order)
    relabelled = replace(inst, locals=tuple(inst.locals[i] for i in order))
    sched = ScheduleSpec(gamma0=0.9 / (36.0 * inst.analytic.L), momentum=momentum, beta=0.6)
    agg = AggregatorSpec(rule=rule, n=n, **RULES[rule])
    cfg = RunConfig(problem=inst, aggregator=agg, attack=AttackSpec(), schedule=sched,
                    T=200, x0=DenseVector(np.linspace(-1.5, 2.0, d)), seed=seed)
    assert run(cfg).xs.tobytes() == run(replace(cfg, problem=relabelled)).xs.tobytes()


# cwtm is left out: its trimmed sum runs over the sorted order, which a
# reflection reverses, so the last bit can move (2.2e-16 measured); gm under
# alie moves by up to 1.1e-16. Both need a tolerance derived from a rounding
# argument. average under alie is left out for a property of the attack:
# its +alpha and -alpha candidates tie against the mean in exact arithmetic,
# rounding breaks the tie, and the mirrored run can break it the other way.
# The same tie makes cwm, krum and multi_krum under alie lose the relation
# at other sizes: where the rule's outputs for +alpha and -alpha mirror
# each other about the mean, as the median of an even count of 6 = 4 honest
# + 2 Byzantine values does (measured: cwm at n = 6, b = 2; krum and
# multi_krum at n = 9, b = 4; multi_krum at n = 5, b = 1). At n = 7, b = 2
# the median is the 4th of 7 values, h4 or h2 of the 5 honest ones, which do
# not mirror; no run there met a tie (12 seeds x 2 momentum kinds measured).
# gm runs 5 Weiszfeld rounds instead of 50, to keep the time down: every
# round commutes with negation, so the count does not change the relation.
REFLECTED = [
    ("average", "none"), ("average", "sign_flip"), ("gm", "none"), ("gm", "sign_flip"),
    *[(rule, attack) for rule in ("cwm", "krum", "multi_krum")
      for attack in ("none", "sign_flip", "alie")],
    ("variance_sign", "none"),
]


@pytest.mark.parametrize("rule,attack", REFLECTED)
def test_reflection_negates_the_iterates(rule, attack):
    oracle = rule == "variance_sign"
    b = 0 if oracle else 2
    for seed in range(6):
        inst = build_random_quadratic_family(n=7, d=1 + seed % 3, b=b,
                                             rng=RngStream(seed, 0, "reflect"))
        mirrored = replace(
            inst, locals=tuple(QuadraticLocal(loc.a, -loc.c) for loc in inst.locals),
            analytic=replace(inst.analytic, x_star=DenseVector(-inst.analytic.x_star.values)))
        agg = AggregatorSpec(rule="oracle_adversarial" if oracle else rule, n=7, b=b,
                             **(RULES[rule] if rule != "gm" else {"iters": 5}))
        x0 = np.linspace(-1.5, 2.0, inst.dim)
        for momentum in ("zero", "tied"):
            sched = ScheduleSpec(gamma0=0.9 / (36.0 * inst.analytic.L), momentum=momentum)
            cfg = RunConfig(problem=inst, aggregator=agg,
                            attack=AttackSpec(kind=attack),
                            schedule=sched, T=200, x0=DenseVector(x0), seed=seed)
            reflected = replace(cfg, problem=mirrored, x0=DenseVector(-x0))
            assert (-run(cfg).xs).tobytes() == run(reflected).xs.tobytes(), (seed, momentum)
