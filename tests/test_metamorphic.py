"""Metamorphic relations of the training loop: two runs that must agree bit
for bit, with no closed form needed.

(a) Power-of-two scaling. Multiplying every a_i, c_i, L, mu, G, sigma and
    gm's smoothing floor nu by 2^k, and gamma0 by 2^-k, leaves every
    iterate unchanged: each product, square root and sum scales exactly by
    a power of two. grad_norm_sq then scales by 4^k, f_gap and the
    Lyapunov terms by 2^k, and the flagged steps stay the same.
(b) Without Byzantine workers, plain averaging is the variance_sign oracle
    at kappa = 0, which aggregates the honest mean.
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
    n = data.draw(st.integers(5, 9))
    b = 0 if oracle else data.draw(st.integers(0, 2))
    inst = build_random_quadratic_family(
        n=n, d=data.draw(st.integers(1, 3)), b=b, shared_curvature=True,
        rng=RngStream(data.draw(st.integers(0, 99)), 0, "meta"))
    if noise != "none":
        inst = with_noise(inst, NoiseModel(noise, sigma=0.7))
    frac = data.draw(st.sampled_from([0.3, 0.9]))
    sched = ScheduleSpec(gamma0=frac / (36.0 * inst.analytic.L), momentum=momentum, beta=0.6)
    agg = AggregatorSpec(rule="oracle_adversarial" if oracle else rule, n=n, b=b, **RULES[rule])
    attack = "none" if oracle or b == 0 else data.draw(st.sampled_from(["none", "sign_flip", "alie"]))
    return RunConfig(problem=inst, aggregator=agg,
                     attack=AttackSpec(kind=attack, byzantine_ids=inst.pop.byzantine_ids),
                     schedule=sched, T=120, x0=DenseVector(np.linspace(-1.5, 2.0, inst.dim)),
                     seed=data.draw(st.integers(0, 2**16)))


def _scaled_run(cfg, k):
    """The run of cfg with the problem scaled by 2^k and gamma0 by 2^-k."""
    s = 2.0**k
    agg = cfg.aggregator
    if agg.rule == "gm":
        agg = replace(agg, nu=s * agg.nu)
    return replace(cfg, problem=_scaled(cfg.problem, s), aggregator=agg,
                   schedule=replace(cfg.schedule, gamma0=cfg.schedule.gamma0 / s))


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
