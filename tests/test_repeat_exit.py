"""trainer.run's exit at the first exact repeat of its state (x, m).

A run without noise whose stepsize is constant or invsqrt stops stepping
once (x^t, m^t) repeats a state of the last few steps, and fills the rest
of its record from the cycle. Every RunRecord column must still equal, byte
for byte, the per-worker reference loop, which steps all T. Counting the
calls of trainer.schedules shows where the exit fired, and that a run whose
step map changes with t never takes it.
"""

import math

import numpy as np
import pytest

import robustsgd.trainer as trainer
from reference_loop import reference_run
from robustsgd.aggregators import AggregatorSpec
from robustsgd.attacks import AttackSpec
from robustsgd.core import DenseVector, RngStream, RunConfig
from robustsgd.problems import (
    NoiseModel,
    build_classification_task,
    build_random_quadratic_family,
    build_synthetic_family,
    with_noise,
)
from robustsgd.trainer import ScheduleSpec

COLUMNS = ("t", "grad_norm_sq", "f_gap", "dist_to_ref", "lyapunov", "gamma", "beta", "xs")


def _synthetic(kappa, b_sq, T, **schedule):
    """The floor instance of verify's floor_formula_synthetic and of the
    criterion-5 sweep's cells, under the variance_sign oracle rule."""
    inst = build_synthetic_family(n=20, k=7, a=1.0, G=1.0, B=math.sqrt(b_sq))
    agg = AggregatorSpec(rule="oracle_adversarial", n=20, b=0, kappa=kappa,
                         variant="variance_sign")
    return RunConfig(problem=inst, aggregator=agg, attack=AttackSpec(),
                     schedule=ScheduleSpec(**schedule), T=T, x0=DenseVector([1.0]))


def _quadratic(rule, attack, schedule, T, n=7, b=2, d=2, seed=0, **rule_kw):
    inst = build_random_quadratic_family(n=n, d=d, rng=RngStream(seed, 0, "r"), b=b,
                                         shared_curvature=d == 1)
    return RunConfig(problem=inst, aggregator=AggregatorSpec(rule=rule, n=n, b=b, **rule_kw),
                     attack=AttackSpec(kind=attack),
                     schedule=schedule, T=T, x0=DenseVector(np.full(d, 1.0)))


def _tied_average():
    # beta = 1 - 36 * 0.025 = 0.1: x settles a few steps before m does
    inst = build_random_quadratic_family(n=3, d=1, rng=RngStream(2, 0, "r"), b=0,
                                         shared_curvature=True)
    gamma0 = 0.9 / (36.0 * inst.analytic.L)
    return _quadratic("average", "none", ScheduleSpec(gamma0=gamma0, momentum="tied"),
                      1400, n=3, b=0, d=1, seed=2)


CASES = {
    # period 1: the criterion-5 cell kappa = 0.1, B^2 = 2.0, gamma0 = 0.1
    "period1_cell": lambda: _synthetic(0.1, 2.0, 40, gamma0=0.1),
    # period 2: floor_formula_synthetic at kappa = 0.2, B^2 = 1.0
    "period2_floor": lambda: _synthetic(0.2, 1.0, 100, gamma0=0.2),
    # period 4 in x: the cell kappa = 0.05, B^2 = 2.0, gamma0 = 0.1
    "period4_cell": lambda: _synthetic(0.05, 2.0, 60, gamma0=0.1),
    "constant_momentum_alie_gm": lambda: _quadratic(
        "gm", "alie", ScheduleSpec(gamma0=0.1, momentum="constant", beta=0.5), 260),
    # gamma = 4 / sqrt(400) = 0.2 settles on a cycle of period 5
    "invsqrt_sign_flip_krum": lambda: _quadratic(
        "krum", "sign_flip", ScheduleSpec(stepsize="invsqrt", gamma0=4.0), 400),
    "tied_average": _tied_average,
}


def run_counting(monkeypatch, cfg):
    """trainer.run(cfg) and the number of trainer.schedules calls it made."""
    calls = []
    schedules = trainer.schedules

    def counting(t, *args, **kwargs):
        calls.append(t)
        return schedules(t, *args, **kwargs)

    monkeypatch.setattr(trainer, "schedules", counting)
    return trainer.run(cfg), len(calls)


def _steps(cfg, calls):
    """Loop steps among the schedules calls: _validate also checks the tied
    step bound, once for a constant or invsqrt stepsize."""
    return calls - (cfg.schedule.momentum == "tied")


def _first_repeat(xs) -> int:
    """The first t with x^t = x^{t-1} byte for byte, or 0."""
    return next((t for t in range(1, len(xs)) if xs[t].tobytes() == xs[t - 1].tobytes()), 0)


@pytest.mark.parametrize("case", CASES)
def test_an_exiting_run_matches_the_full_step_reference(case, monkeypatch):
    cfg = CASES[case]()
    got, calls = run_counting(monkeypatch, cfg)
    want = reference_run(cfg)
    assert _steps(cfg, calls) < cfg.T
    for col in COLUMNS:
        assert getattr(got, col).tobytes() == getattr(want, col).tobytes(), col


def _first_state_repeat(cfg, xs, betas) -> int:
    """The first t whose state (x^t, m^t) equals, byte for byte, one of the
    _REPEAT_WINDOW states before it, or 0. m replays from the iterates as
    the loop updates it, from every worker's exact gradient (attack none)."""
    m = np.zeros((cfg.problem.pop.n, cfg.problem.dim))
    states = [xs[0].tobytes() + m.tobytes()]
    for t in range(1, len(xs)):
        beta = float(betas[t - 1])
        m *= beta
        m += (1.0 - beta) * cfg.problem.grads(xs[t - 1])
        key = xs[t].tobytes() + m.tobytes()
        if key in states[-trainer._REPEAT_WINDOW:]:
            return t
        states.append(key)
    return 0


@pytest.mark.parametrize("case", ["period1_cell", "period2_floor", "period4_cell",
                                  "tied_average"])
def test_a_run_exits_at_the_first_repeat_of_its_state(case, monkeypatch):
    cfg = CASES[case]()
    want = reference_run(cfg)
    t = _first_state_repeat(cfg, want.xs, want.beta)
    assert 0 < t < cfg.T
    _, calls = run_counting(monkeypatch, cfg)
    assert _steps(cfg, calls) == t


@pytest.mark.parametrize("case", ["tied_average", "constant_momentum_alie_gm"])
def test_an_iterate_repeating_before_its_momentum_keeps_stepping(case, monkeypatch):
    cfg = CASES[case]()
    record, calls = run_counting(monkeypatch, cfg)
    t = _first_repeat(record.xs)
    assert t > 0
    # x^t = x^{t-1} alone would have exited at step t + 1; m had not settled
    assert _steps(cfg, calls) > t + 1


def _cycle_with_noise(kind):
    """period1_cell with noise so small that its draws round away: the
    iterates repeat as in the deterministic run, but the noise stays."""
    cfg = CASES["period1_cell"]()
    return RunConfig(problem=with_noise(cfg.problem, NoiseModel(kind, sigma=1e-300)),
                     aggregator=cfg.aggregator, attack=cfg.attack,
                     schedule=cfg.schedule, T=cfg.T, x0=cfg.x0, seed=3)


def _cycle_with_schedule(**schedule):
    return _synthetic(0.1, 2.0, 40, **schedule)


def _minibatch():
    inst = build_classification_task(n_workers=4, b=0, n_classes=3, dim=2,
                                     samples_per_class=8, seed=0, minibatch=2)
    return RunConfig(problem=inst, aggregator=AggregatorSpec(rule="average", n=4, b=0),
                     attack=AttackSpec(), schedule=ScheduleSpec(gamma0=0.1),
                     T=20, x0=DenseVector(np.zeros(inst.dim)), seed=1)


STEPPING = {
    # gamma_t rounds to gamma0 at every t <= 40 when T_max is this long
    "cosine": lambda: _cycle_with_schedule(stepsize="cosine", gamma0=0.1, T_max=10**12),
    # gamma0 = 2/(alpha1*s0) = 0.1 up to t = 20, then the second phase
    "pl_piecewise": lambda: _cycle_with_schedule(stepsize="pl_piecewise", s0=4.0, alpha1=5.0),
    "gaussian": lambda: _cycle_with_noise("gaussian"),
    "bernoulli_pm": lambda: _cycle_with_noise("bernoulli_pm"),
    "minibatch": _minibatch,
}


@pytest.mark.parametrize("case", STEPPING)
def test_a_run_whose_map_changes_with_t_steps_all_T(case, monkeypatch):
    cfg = STEPPING[case]()
    record, calls = run_counting(monkeypatch, cfg)
    assert calls == cfg.T
    if case != "minibatch":
        # its iterates repeat, so only the kind of run keeps the exit away
        assert _first_repeat(record.xs) > 0
