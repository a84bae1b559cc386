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
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustsgd.trainer as trainer
from reference_loop import reference_run
from robustsgd.aggregators import AggregatorSpec
from robustsgd.attacks import AttackSpec
from robustsgd.core import DenseVector, NumericFailure, RngStream, RunConfig, WorkerPopulation
from robustsgd.problems import (
    Analytic,
    NoiseModel,
    ProblemInstance,
    QuadraticLocal,
    SyntheticClassificationTask,
    build_classification_task,
    build_hetero_lower_bound,
    build_noise_lower_bound,
    build_random_quadratic_family,
    build_synthetic_family,
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
    attack_spec = AttackSpec(kind=attack, candidate_alphas=alphas)
    if draw(st.booleans()):
        x0 = DenseVector(np.full(inst.dim, draw(st.sampled_from([-1.5, 0.0, 1.0]))))
    else:
        x0 = DenseVector(np.random.default_rng(draw(st.integers(0, 99))).normal(size=inst.dim))
    cfg = RunConfig(problem=inst, aggregator=agg, attack=attack_spec, schedule=sched,
                    T=draw(st.integers(1, 8)), x0=x0, seed=draw(st.integers(0, 2**16)))

    opts = {}
    if track:
        opts["lyapunov_kappa"] = draw(st.sampled_from([0.05, 0.3]))
    return cfg, opts


def _defined_columns_finite(record) -> bool:
    cols = [record.xs, record.grad_norm_sq] + [
        c for c in (record.f_gap, record.dist_to_ref, record.lyapunov)
        if not np.isnan(c).all()]
    return all(np.isfinite(c).all() for c in cols)


def engine_run(cfg, lyapunov_kappa=None):
    """trainer.run, then the Lyapunov post-pass when the case tracks, as
    track_lyapunov composes them."""
    if lyapunov_kappa is None:
        return run(cfg)
    _check_trackable(cfg)
    record = run(cfg)
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
                    attack=AttackSpec(kind=attack),
                    schedule=ScheduleSpec(gamma0=0.05, momentum="constant", beta=0.5),
                    T=trainer._NOISE_BLOCK + 5, x0=DenseVector([1.0, -1.0]), seed=4)
    assert_matches_reference(cfg)


@pytest.mark.parametrize("rule,extra", [
    ("average", {}), ("krum", {}), ("multi_krum", {"q": 3}), ("cwm", {}), ("cwtm", {"q": 1}),
    ("gm", {}), ("oracle_adversarial", {"kappa": 0.3, "variant": "variance_sign"}),
])
def test_inert_alie_run_matches_reference(rule, extra):
    # shared curvature and one linear term: every honest momentum is equal,
    # so ALIE submits the honest mean and its one probe is the server's input
    inst = build_random_quadratic_family(n=5, d=2, rng=RngStream(8, 0, "r"), b=1,
                                         shared_curvature=True)
    inst = replace(inst, locals=tuple(QuadraticLocal(loc.a, np.full(2, 0.3))
                                      for loc in inst.locals))
    cfg = RunConfig(problem=inst, aggregator=AggregatorSpec(rule=rule, n=5, b=1, **extra),
                    attack=AttackSpec(kind="alie"),
                    schedule=ScheduleSpec(gamma0=0.05, momentum="constant", beta=0.5),
                    T=30, x0=DenseVector([1.0, -1.0]))
    spreads = []
    real_alie = trainer.alie

    def spread_alie(view, cands):
        spreads.append(np.ptp(view.honest_updates, axis=0).max())
        return real_alie(view, cands)

    with mock.patch.object(trainer, "alie", spread_alie):
        assert_matches_reference(cfg)
    assert spreads and max(spreads) == 0.0


@pytest.mark.parametrize("attack", ["label_flip", "sign_flip"])
def test_classification_run_across_an_index_block_matches_reference(attack):
    # minibatch indices are drawn in blocks of _NOISE_BLOCK steps
    inst = build_classification_task(n_workers=5, b=1, n_classes=3, dim=2,
                                     samples_per_class=6, seed=2, minibatch=3)
    cfg = RunConfig(problem=inst, aggregator=AggregatorSpec(rule="cwtm", n=5, b=1, q=1),
                    attack=AttackSpec(kind=attack),
                    schedule=ScheduleSpec(gamma0=0.05, momentum="constant", beta=0.5),
                    T=trainer._NOISE_BLOCK + 5, x0=DenseVector(np.zeros(inst.dim)), seed=9)
    assert_matches_reference(cfg)


def _recording_task_grads():
    """A stand-in for SyntheticClassificationTask.grads that records the
    shape of every point or stack of points it is called on."""
    original = SyntheticClassificationTask.grads
    shapes = []

    def grads(self, x):
        shapes.append(x.shape)
        return original(self, x)
    return grads, shapes


def _minibatch_config(attack, T, seed=9):
    inst = build_classification_task(n_workers=6, b=1, n_classes=4, dim=3,
                                     samples_per_class=7, seed=seed, minibatch=3)
    return RunConfig(problem=inst, aggregator=AggregatorSpec(rule="cwm", n=6, b=1),
                     attack=AttackSpec(kind=attack),
                     schedule=ScheduleSpec(gamma0=0.05, momentum="constant", beta=0.5),
                     T=T, x0=DenseVector(np.zeros(inst.dim)), seed=seed)


def test_minibatch_run_evaluates_the_honest_gradients_per_block_in_chunks():
    # T = 1100: one full block of 1024 rows, then 76 rows, so the metric
    # pass stacks chunks of 64 iterates and a last partial one of 12; no
    # step evaluates an exact gradient
    cfg = _minibatch_config("label_flip", T=1100)
    grads, shapes = _recording_task_grads()
    with mock.patch.object(SyntheticClassificationTask, "grads", grads):
        run(cfg)
    assert trainer._NOISE_BLOCK == 1024 and trainer._METRICS_CHUNK == 64
    assert shapes == [(64, cfg.problem.dim)] * 17 + [(12, cfg.problem.dim)]
    assert_matches_reference(cfg)


@pytest.mark.parametrize("attack, oracle", [("alie", "honest_grads"), ("sign_flip", "grads")])
def test_a_step_evaluates_the_exact_gradients_at_its_own_iterate(attack, oracle):
    # T = 1100 spans two noise blocks, and the noise keeps the run from a
    # repeat exit: the oracle is called at a single point once per step, at
    # x^{t-1}, and the metrics pass (honest_grads on stacks) runs once
    inst = with_noise(build_random_quadratic_family(n=6, d=2, rng=RngStream(5, 0, "r"), b=1),
                      NoiseModel("gaussian", sigma=0.5))
    cfg = RunConfig(problem=inst, aggregator=AggregatorSpec(rule="cwm", n=6, b=1),
                    attack=AttackSpec(kind=attack), schedule=ScheduleSpec(gamma0=0.05),
                    T=1100, x0=DenseVector([1.0, -1.0]), seed=3)
    original = getattr(ProblemInstance, oracle)
    points = []

    def counting(self, x):
        points.append(np.ndim(x))
        return original(self, x)

    with mock.patch.object(ProblemInstance, oracle, counting), \
            mock.patch.object(trainer, "fill_metrics", wraps=trainer.fill_metrics) as metrics:
        run(cfg)
    assert points.count(1) == cfg.T
    assert metrics.call_count == 1


@pytest.mark.parametrize("exc, text", [
    (NumericFailure("boom"), "boom at iteration 17$"),
    (RuntimeError("boom"), "boom$"),
])
def test_a_minibatch_run_failing_at_the_first_step_of_a_block_calls_no_oracle(exc, text):
    # blocks of 16: step 17 raises before anything of its block is recorded,
    # so the one metric pass fills rows 1-16 and evaluates no iterate of
    # step 17's block
    cfg = _minibatch_config("sign_flip", T=40)
    grads, shapes = _recording_task_grads()
    with mock.patch.object(trainer, "_NOISE_BLOCK", 16), \
            mock.patch.object(trainer, "aggregate", _raising_on_call(17, exc)), \
            mock.patch.object(SyntheticClassificationTask, "grads", grads):
        with pytest.raises(type(exc), match=text):
            run(cfg)
    assert shapes == [(16, cfg.problem.dim)]


def test_run_longer_than_a_metric_block_fills_every_column_as_the_reference():
    # x_F* differs from x*, so f_gap and dist_to_ref are both defined and
    # read different points; the metric pass walks the rows a block at a time
    inst = build_synthetic_family(n=6, k=2, a=1.0, G=1.0, B=0.5, d=2)
    cfg = RunConfig(problem=inst,
                    aggregator=AggregatorSpec(rule="oracle_adversarial", n=6, kappa=0.2,
                                              variant="variance_sign"),
                    attack=AttackSpec(), schedule=ScheduleSpec(gamma0=0.05),
                    T=trainer._NOISE_BLOCK + 5, x0=DenseVector([1.0, -2.0]))
    record = run(cfg)
    assert np.isfinite(record.f_gap).all() and np.isfinite(record.dist_to_ref).all()
    assert_matches_reference(cfg)


# ---- divergence: where the engine stops, against the reference ---------------


def _line(a: float, x_star=True, x_F_star=False, n=3) -> ProblemInstance:
    """n workers sharing f(x) = (a/2) x^2 in one dimension. Its minimizer
    defines f_gap, and dist_to_ref reads x_F* = 0 if given, else x*."""
    zero = DenseVector([0.0])
    return ProblemInstance(
        locals=(QuadraticLocal([a], [0.0]),) * n, pop=WorkerPopulation(n=n, b=0),
        noise=NoiseModel("none"),
        analytic=Analytic(L=a, mu=a, G=0.0, B=0.0, x_star=zero if x_star else None,
                          x_F_star=zero if x_F_star else None))


def _diverging(inst, T, x0, growth=10.0):
    """Plain averaged gradient descent with gamma * a = 1 + growth, so each
    step multiplies x by -growth: x*x overflows ~154 decades before x does."""
    gamma = (1.0 + growth) / inst.analytic.L
    return RunConfig(problem=inst, aggregator=AggregatorSpec(rule="average", n=inst.pop.n),
                     attack=AttackSpec(), schedule=ScheduleSpec(gamma0=gamma), T=T,
                     x0=DenseVector([x0]))


def reference_failure(cfg):
    """(t, column) of the first step at which the per-worker reference loop
    raises (column None) or records a non-finite value in a defined column.
    The reference records inf and runs on where the engine stops, so this
    replays its prefixes: under a constant step size the first T' steps of
    a run do not depend on T."""
    assert cfg.schedule.stepsize == "constant"
    inst = cfg.problem
    defined = {"grad_norm_sq": True, "f_gap": inst.analytic.x_star is not None,
               "dist_to_ref": (inst.analytic.x_star or inst.analytic.x_F_star) is not None}
    for T in range(1, cfg.T + 1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                record = reference_run(replace(cfg, T=T))
        except NumericFailure:
            return T, None
        for name in ("grad_norm_sq", "f_gap", "dist_to_ref"):
            if defined[name] and not math.isfinite(getattr(record, name)[-1]):
                return T, name
    return None


def assert_fails_as_reference(cfg, want):
    t, column = want
    text = f"non-finite {column} at iteration {t}" if column else f"at iteration {t}$"
    with pytest.raises(NumericFailure, match=text) as info:
        run(cfg)
    # the failure names where it happened and carries every row before it,
    # as the reference records them over the first t - 1 steps
    exc = info.value
    assert exc.iteration == t
    if column:
        assert exc.column == column
    assert exc.record.T == t - 1
    if t > 1:
        prefix = reference_run(replace(cfg, T=t - 1))
        for col in COLUMNS:
            assert getattr(exc.record, col).tobytes() == getattr(prefix, col).tobytes(), col


@pytest.mark.parametrize("a, x_star, x_F_star, column", [
    (1.0, True, False, "grad_norm_sq"),
    (1e-10, True, False, "f_gap"),       # grad_norm_sq stays finite
    (1e-10, False, True, "dist_to_ref"),  # f_gap undefined
])
def test_metric_turns_non_finite_while_the_iterate_stays_finite(a, x_star, x_F_star, column):
    # x*x first overflows at step 8, mid-block; the iterate stays finite to
    # step ~160 and the run stops at T = 40
    cfg = _diverging(_line(a, x_star, x_F_star), T=40, x0=1e147)
    want = reference_failure(cfg)
    assert want == (8, column)
    with mock.patch.object(trainer, "_NOISE_BLOCK", 16):
        assert_fails_as_reference(cfg, want)


def test_earlier_metric_failure_wins_over_a_later_iterate_failure():
    # row 3's grad_norm_sq is inf; the iterate overflows ~155 steps later in
    # the same block, and the run must still name row 3
    cfg = _diverging(_line(1.0), T=200, x0=1e152)
    assert reference_failure(replace(cfg, T=10)) == (3, "grad_norm_sq")
    with pytest.raises(NumericFailure, match="non-finite grad_norm_sq at iteration 3$"):
        run(cfg)
    # with no metric failure first, the iterate's own failure stands: x^1 =
    # -1e250 has ||grad||^2 = 1e300, and x^2 overflows
    cfg = _diverging(_line(1e-100, x_star=False), T=20, x0=1e100, growth=1e150)
    assert reference_failure(cfg) == (2, None)
    with pytest.raises(NumericFailure, match="non-finite iterate at iteration 2$") as info:
        run(cfg)
    assert info.value.column == "iterate"


def test_failure_in_the_last_partial_block():
    # blocks of 16 over T = 37: rows 33-37 are the metric pass's last,
    # partial block
    cfg = _diverging(_line(1.0), T=37, x0=1e119)
    want = reference_failure(cfg)
    assert want == (36, "grad_norm_sq")
    with mock.patch.object(trainer, "_NOISE_BLOCK", 16):
        assert_fails_as_reference(cfg, want)


def _raising_on_call(k, exc):
    """trainer.aggregate, except that its k-th call raises exc."""
    calls = {"n": 0}
    original = trainer.aggregate

    def aggregate(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == k:
            raise exc
        return original(*args, **kwargs)
    return aggregate


@pytest.mark.parametrize("exc, text", [
    (NumericFailure("stacked updates entries must be finite"),
     "stacked updates entries must be finite at iteration 11$"),
    (RuntimeError("aggregator crashed"), "aggregator crashed$"),
])
def test_aggregate_raising_mid_block(exc, text):
    # step 11 of a 16-step block raises; with every earlier row finite the
    # step's own error leaves the run, with its iteration if it is numeric
    inst = with_noise(build_random_quadratic_family(n=5, d=3, rng=RngStream(1, 0, "r"), b=1),
                      NoiseModel("gaussian", sigma=0.5))
    cfg = RunConfig(problem=inst, aggregator=AggregatorSpec(rule="cwm", n=5, b=1),
                    attack=AttackSpec(kind="sign_flip"),
                    schedule=ScheduleSpec(gamma0=0.05), T=40, x0=DenseVector([1.0, 0.0, -1.0]))
    with mock.patch.object(trainer, "_NOISE_BLOCK", 16), \
            mock.patch.object(trainer, "aggregate", _raising_on_call(11, exc)):
        with pytest.raises(type(exc), match=text) as info:
            run(cfg)
    if isinstance(exc, NumericFailure):
        assert (info.value.iteration, info.value.column, info.value.record.T) == (11, None, 10)


@pytest.mark.parametrize("exc", [NumericFailure("boom"), RuntimeError("boom")])
def test_earlier_metric_failure_wins_over_an_aggregate_raising_mid_block(exc):
    cfg = _diverging(_line(1.0), T=40, x0=1e150)
    want = reference_failure(cfg)
    assert want == (5, "grad_norm_sq")
    with mock.patch.object(trainer, "_NOISE_BLOCK", 16), \
            mock.patch.object(trainer, "aggregate", _raising_on_call(11, exc)):
        assert_fails_as_reference(cfg, want)


@given(st.integers(1, 40), st.integers(100, 154), st.sampled_from([1.0, 1e-10]),
       st.booleans(), st.booleans(), st.integers(1, 12))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_divergence_stops_where_the_reference_first_fails(T, decade, a, x_star, x_F_star, block):
    cfg = _diverging(_line(a, x_star, x_F_star, n=2), T=T, x0=10.0**decade)
    want = reference_failure(cfg)
    with mock.patch.object(trainer, "_NOISE_BLOCK", block):
        if want is None:
            assert_matches_reference(cfg)
        else:
            assert_fails_as_reference(cfg, want)


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
        out = noise.draw({worker: RngStream(seed, worker, "noise")}, T, n, d)
        g = gen()
        for t in range(T):
            if kind == "gaussian":
                want = noise.sigma / math.sqrt(d) * g.standard_normal(d)
            else:
                want = noise.sigma / math.sqrt(d) * (1.0 - 2.0 * g.integers(0, 2, size=d))
            assert out[t, worker].tobytes() == want.tobytes()
        assert not out[:, :worker].any()
