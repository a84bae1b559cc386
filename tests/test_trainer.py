import csv
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robustsgd.trainer as trainer
from robustsgd.aggregators import AggregatorSpec
from robustsgd.attacks import AttackSpec
from robustsgd.core import (
    ConfigurationError,
    DenseVector,
    NumericFailure,
    RngStream,
    RunConfig,
    WorkerPopulation,
)
from robustsgd.problems import (
    NoiseModel,
    QuadraticLocal,
    SyntheticClassificationTask,
    build_classification_task,
    build_hetero_lower_bound,
    build_noise_lower_bound,
    build_random_quadratic_family,
    with_noise,
)
from robustsgd.trainer import (
    STEPSIZE_KINDS,
    ScheduleSpec,
    pl_schedule_for_momentum,
    pl_schedule_for_plain,
    run,
    run_noise_floor_replicates,
    schedules,
    track_lyapunov,
)
from robustsgd.verify import noise_floor_exact_moments


def _cfg(problem, rule="average", T=50, x0=1.0, seed=0, sched=None, attack=None,
         **agg_kw):
    agg = AggregatorSpec(rule=rule, n=problem.pop.n, b=problem.pop.b, **agg_kw)
    if sched is None:
        sched = ScheduleSpec(stepsize="constant", gamma0=0.1)
    x = DenseVector(np.full(problem.dim, x0)) if np.isscalar(x0) else DenseVector(x0)
    return RunConfig(problem=problem, aggregator=agg,
                     attack=attack or AttackSpec(), schedule=sched, T=T, x0=x,
                     seed=seed)


def _honest_mean_cfg(problem, **kw):
    """The honest-mean baseline: the variance_sign oracle at kappa = 0
    aggregates the honest momenta's mean and ignores the Byzantine rows."""
    return _cfg(problem, rule="oracle_adversarial", kappa=0.0, variant="variance_sign", **kw)


# ---- schedules --------------------------------------------------------------


class TestSchedules:
    def test_constant(self):
        spec = ScheduleSpec(stepsize="constant", gamma0=0.3)
        assert schedules(1, spec, 10) == (0.3, 0.0)
        assert schedules(10, spec, 10) == (0.3, 0.0)

    def test_invsqrt_is_horizon_scaled_constant(self):
        spec = ScheduleSpec(stepsize="invsqrt", gamma0=0.1)
        for t in (1, 50, 100):
            gamma, _ = schedules(t, spec, 100)
            assert gamma == pytest.approx(0.01, rel=1e-15)

    def test_pl_piecewise_formula(self):
        spec = ScheduleSpec(stepsize="pl_piecewise", alpha1=1.0, s0=4.0)
        assert spec.gamma0 == pytest.approx(0.5)
        T = 10
        got = [schedules(t, spec, T)[0] for t in range(1, T + 1)]
        half = T // 2
        want = [
            0.5 if t < half else 2.0 / (1.0 * (4.0 + t - half))
            for t in range(1, T + 1)
        ]
        assert got == pytest.approx(want, rel=1e-15)
        # nonincreasing with ratio >= 2/3 everywhere (the descent-lemma regime)
        ratios = [b / a for a, b in zip(got, got[1:])]
        assert all(r <= 1.0 + 1e-15 for r in ratios)
        assert min(ratios) >= 2.0 / 3.0 - 1e-15

    def test_pl_piecewise_gamma0_must_be_consistent(self):
        with pytest.raises(ConfigurationError, match="gamma0 = 2/"):
            ScheduleSpec(stepsize="pl_piecewise", alpha1=1.0, s0=4.0, gamma0=0.4)
        # the implied value itself is fine
        ScheduleSpec(stepsize="pl_piecewise", alpha1=1.0, s0=4.0, gamma0=0.5)

    def test_cosine(self):
        spec = ScheduleSpec(stepsize="cosine", gamma0=0.2, T_max=100)
        g1, _ = schedules(1, spec, 100)
        g100, _ = schedules(100, spec, 100)
        assert g1 == pytest.approx(0.2 * (1 + math.cos(math.pi / 100)) / 2)
        assert g100 == pytest.approx(0.0, abs=1e-17)

    def test_t_outside_horizon_rejected(self):
        spec = ScheduleSpec(stepsize="constant", gamma0=0.1)
        with pytest.raises(ConfigurationError, match="t must be in"):
            schedules(0, spec, 10)
        with pytest.raises(ConfigurationError, match="t must be in"):
            schedules(11, spec, 10)

    def test_tied_momentum_needs_L(self):
        spec = ScheduleSpec(stepsize="constant", gamma0=0.01, momentum="tied")
        with pytest.raises(ConfigurationError, match="smoothness constant"):
            schedules(1, spec, 10)
        gamma, beta = schedules(1, spec, 10, L=2.0)
        assert beta == pytest.approx(1.0 - 36.0 * 0.01 * 2.0)

    def test_tied_momentum_violation_raises(self):
        spec = ScheduleSpec(stepsize="constant", gamma0=0.05, momentum="tied")
        with pytest.raises(ConfigurationError, match="gamma_t \\* L <= 1/c_beta"):
            schedules(1, spec, 10, L=1.0)

    def test_tied_momentum_exact_boundary_clamps_to_zero(self):
        spec = ScheduleSpec(stepsize="constant", gamma0=1.0 / 36.0, momentum="tied")
        _, beta = schedules(1, spec, 10, L=1.0)
        assert beta == 0.0

    @given(st.sampled_from(STEPSIZE_KINDS),
           st.one_of(st.floats(0.5, 1.5), st.sampled_from([1.0 - 2.5e-10, 1.0 + 2.5e-10])),
           st.integers(1, 60), st.integers(1, 30), st.sampled_from([36.0, 10.0, 1e4]),
           st.sampled_from([0.0, -5e-10, 5e-10]))
    @example("cosine", 0.0196 * 36.0 * (1.0 + math.sqrt(3.0) / 4.0), 25, 10, 36.0, 0.0)
    @example("pl_piecewise", 1.0 + 2.5e-10, 10, 1, 36.0, -5e-10)
    @example("constant", 1.0 + 1e-13, 5, 1, 36.0, 0.0)
    @example("constant", 1.0 + 5e-13, 5, 1, 36.0, 0.0)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_a_tied_schedule_that_validates_runs_every_step(self, kind, ratio, T, T_max,
                                                            c_beta, rel):
        # cosine climbs back to gamma0 at t = 2*T_max, and pl_piecewise's
        # second phase starts at 2/(alpha1*s0), which gamma0 may undercut by
        # 1e-9: the load-time check must bound the largest step, not gamma_1.
        # The cosine example is hetero's defaults (L = 1 + sqrt(3)/4) with
        # gamma0 = 0.0196 and T_max = 10, which used to fail at step 20; the
        # pl_piecewise one starts its second phase 2.5e-10 past the bound.
        # The other way round, a schedule whose every step runs must load:
        # the constant examples run all 5 steps but were refused at load.
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5)
        L = inst.analytic.L
        gamma0 = ratio / (c_beta * L)
        if kind == "pl_piecewise":
            spec = ScheduleSpec(stepsize=kind, s0=3.0, alpha1=2.0 / (3.0 * gamma0),
                                gamma0=gamma0 * (1.0 + rel), momentum="tied", c_beta=c_beta)
        else:
            spec = ScheduleSpec(stepsize=kind, gamma0=gamma0, T_max=T_max,
                                momentum="tied", c_beta=c_beta)
        try:
            trainer._validate(_cfg(inst, T=T, sched=spec))
            validates = True
        except ConfigurationError:
            validates = False
        try:
            for t in range(1, T + 1):
                schedules(t, spec, T, L=L)
            runs = True
        except ConfigurationError:
            runs = False
        assert validates == runs

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(stepsize="step"), "unknown stepsize"),
            (dict(momentum="nesterov", gamma0=0.1), "unknown momentum"),
            (dict(stepsize="pl_piecewise", alpha1=1.0), "requires s0 and alpha1"),
            (dict(stepsize="pl_piecewise", alpha1=1.0, s0=2.0), "s0 > 2"),
            (dict(stepsize="cosine", gamma0=0.1), "T_max"),
            (dict(gamma0=-0.1), "gamma0 > 0"),
            (dict(gamma0=0.1, momentum="constant", beta=1.0), "0 <= beta < 1"),
            (dict(gamma0=0.1, momentum="tied", c_beta=0.0), "c_beta > 0"),
        ],
    )
    def test_spec_validation(self, kwargs, msg):
        with pytest.raises(ConfigurationError, match=msg):
            ScheduleSpec(**kwargs)

    @pytest.mark.parametrize("spec,kwargs,field", [
        (AggregatorSpec, dict(rule="oracle_adversarial", n=3, variant="variance_sign",
                              kappa=math.nan), "kappa"),
        (AggregatorSpec, dict(rule="oracle_adversarial", n=3, variant="variance_sign",
                              kappa=math.inf), "kappa"),
        (AggregatorSpec, dict(rule="gm", n=3, nu=math.inf), "nu"),
        (ScheduleSpec, dict(gamma0=math.inf), "gamma0"),
        (ScheduleSpec, dict(gamma0=0.1, momentum="tied", c_beta=math.inf), "c_beta"),
        (ScheduleSpec, dict(stepsize="pl_piecewise", s0=math.inf, alpha1=1.0), "s0"),
        (ScheduleSpec, dict(stepsize="pl_piecewise", s0=5.0, alpha1=math.inf), "alpha1"),
    ])
    def test_non_finite_fields_refused_at_construction(self, spec, kwargs, field):
        # config text refuses inf and nan as it parses; the Python API here
        with pytest.raises(ConfigurationError, match=rf"\b{field} .*finite"):
            spec(**kwargs)


class TestTheoremSchedules:
    def test_plain_schedule_frozen_values(self):
        # noise instance (mu=1, B=0.5, sigma=1), kappa=0.1, delta=0.1:
        #   alpha1 = 2*(1/2 - 1/5 - 0.025*0.6) = 0.57
        #   2L/(delta*alpha1) = 3/0.057 = 52.63..., so s0 = 53
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0, kappa=0.1)
        sched = pl_schedule_for_plain(inst, kappa=0.1)
        assert sched.alpha1 == pytest.approx(0.57, rel=1e-14)
        assert sched.s0 == 53.0
        assert sched.gamma0 == pytest.approx(2.0 / (0.57 * 53.0), rel=1e-14)
        assert sched.momentum == "zero"
        # the derived step obeys both smallness constraints of the theorem
        L, delta, alpha1 = 1.5, 0.1, 0.57
        assert sched.gamma0 < min(1.0 / alpha1, delta / L)

    def test_plain_schedule_admissibility_gate(self):
        inst = build_noise_lower_bound(mu=1.0, B=1.0, sigma=1.0)
        # kappa*B^2 = 0.5 >= (1-0.4)/(1.2) = 0.5 -> rejected
        with pytest.raises(ConfigurationError, match="kappa\\*B\\^2"):
            pl_schedule_for_plain(inst, kappa=0.5)

    def test_plain_schedule_delta_range(self):
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0)
        for bad in (0.0, 0.25, 0.4):
            with pytest.raises(ConfigurationError, match="delta"):
                pl_schedule_for_plain(inst, kappa=0.1, delta=bad)

    def test_momentum_schedule_construction(self):
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5, kappa=0.01)
        sched = pl_schedule_for_momentum(inst, kappa=0.01)
        alpha4 = (3.0 / 8.0 - 21.0 * 0.01 * 0.25) * 1.0
        assert sched.alpha1 == pytest.approx(alpha4, rel=1e-14)
        lower = 72.0 * inst.analytic.L / alpha4
        assert sched.s0 == float(math.ceil(lower)) or sched.s0 == float(math.ceil(lower)) + 1
        assert sched.s0 > lower
        assert sched.momentum == "tied" and sched.c_beta == 36.0
        # derived gamma0 satisfies the tied-momentum step bound
        assert sched.gamma0 * inst.analytic.L <= 1.0 / 36.0

    def test_s0_on_an_integer_bound_is_the_next_integer(self):
        # mu = 1, B = 0 make L = 1 and both lower bounds exact integers:
        #   plain, delta = 1/8: alpha1 = 2*(1/2 - 1/4) = 1/2, 2L/(delta*alpha1) = 32
        #   momentum: alpha4 = 3/8, 72L/alpha4 = 192
        # s0 must lie strictly above the bound, so an integer bound moves up one
        inst = build_noise_lower_bound(mu=1.0, B=0.0, sigma=1.0)
        assert pl_schedule_for_plain(inst, kappa=0.1, delta=0.125).s0 == 33.0
        assert pl_schedule_for_momentum(inst, kappa=0.1).s0 == 193.0

    def test_momentum_schedule_gate(self):
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=1.0)
        with pytest.raises(ConfigurationError, match="1/56"):
            pl_schedule_for_momentum(inst, kappa=0.05)


# ---- reductions and closed forms -------------------------------------------


class TestReductions:
    def test_zero_momentum_equals_constant_beta_zero(self):
        inst = with_noise(
            build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5),
            NoiseModel("gaussian", sigma=0.4),
        )
        a = run(_cfg(inst, T=60, seed=3,
                     sched=ScheduleSpec(stepsize="constant", gamma0=0.05,
                                        momentum="zero")))
        b = run(_cfg(inst, T=60, seed=3,
                     sched=ScheduleSpec(stepsize="constant", gamma0=0.05,
                                        momentum="constant", beta=0.0)))
        assert np.array_equal(a.xs, b.xs)

    def test_average_rule_reproduces_gradient_descent(self):
        # G = B = 0: both locals are (mu/2)x^2, so the loop is exact GD and
        # x^t = (1 - gamma*mu)^t * x0
        inst = build_hetero_lower_bound(mu=1.0, G=0.0, B=0.0)
        gamma = 0.07
        rec = run(_cfg(inst, T=40, sched=ScheduleSpec(stepsize="constant",
                                                      gamma0=gamma)))
        expect = (1.0 - gamma) ** np.arange(41)
        assert rec.xs[:, 0] == pytest.approx(expect, rel=1e-12)

    def test_hetero_oracle_matches_affine_recursion(self):
        # aggregate = mu*x - sqrt(kappa)*(delta*x + eps) exactly
        kappa, gamma, T = 0.1, 0.1, 200
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5, kappa=kappa)
        rec = run(_cfg(inst, rule="oracle_adversarial", T=T, kappa=kappa,
                       variant="hetero_c1",
                       sched=ScheduleSpec(stepsize="constant", gamma0=gamma)))
        delta, eps, sk = inst.params["delta"], inst.params["eps"], math.sqrt(kappa)
        x = 1.0
        xs = [x]
        for _ in range(T):
            x = x - gamma * (1.0 * x - sk * (delta * x + eps))
            xs.append(x)
        assert rec.xs[:, 0] == pytest.approx(xs, abs=1e-13)

    def test_scalar_loop_matches_vectorized_noise_path(self):
        # the one-replicate vectorized MC and a manual scalar replay of its
        # update rule agree exactly
        kappa, T = 0.1, 60
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0, kappa=kappa)
        sched = ScheduleSpec(stepsize="constant", gamma0=0.05)
        out = run_noise_floor_replicates(inst, kappa, sched, T=T, replicates=1,
                                         seed=9, x0=0.3)
        gen = RngStream(9, 0, "noise-floor-mc").generator
        mu, B, sigma, sk = 1.0, 0.5, 1.0, math.sqrt(kappa)
        x = 0.3
        for t in range(1, T + 1):
            xi = gen.integers(0, 2, size=(1, 2))
            x1, x2 = int(xi[0, 0]), int(xi[0, 1])
            g1 = (1 + B) * mu * x + sigma * (1 - 2 * x1)
            g2 = (1 - B) * mu * x + sigma * (1 - 2 * x2)
            if x1 == x2:
                W = B * mu * x
            elif x1 == 1:
                W = -B * mu * x + sigma
            else:
                W = B * mu * x + sigma
            if t == T:
                x_prev = x
            x = x - 0.05 * (0.5 * (g1 + g2) - sk * W)
        assert out["x_last"][0] == pytest.approx(x, abs=1e-15)
        assert out["x_last_minus_1"][0] == pytest.approx(x_prev, abs=1e-15)

    def test_run_with_noise_c2_rule_matches_manual_stream_replay(self):
        # the scalar trainer under the noise-drift oracle: replay with the
        # same per-worker streams and the same update algebra
        kappa, gamma, T, seed = 0.09, 0.04, 40, 21
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0, kappa=kappa)
        rec = run(_cfg(inst, rule="oracle_adversarial", T=T, x0=0.5, seed=seed,
                       kappa=kappa, variant="noise_c2",
                       sched=ScheduleSpec(stepsize="constant", gamma0=gamma)))
        streams = {i: RngStream(seed, i, "noise") for i in range(2)}
        mu, B, sigma, sk = 1.0, 0.5, 1.0, math.sqrt(kappa)
        x = 0.5
        xs = [x]
        for _ in range(T):
            draws = []
            grads = []
            for i, a in ((0, (1 + B) * mu), (1, (1 - B) * mu)):
                xi = int(streams[i].generator.integers(0, 2, size=1)[0])
                draws.append(xi)
                grads.append(a * x + sigma * (1 - 2 * xi))
            mean = 0.5 * (grads[0] + grads[1])
            if draws[0] == draws[1]:
                W = B * mu * x
            elif draws[0] == 1:
                W = -B * mu * x + sigma
            else:
                W = B * mu * x + sigma
            x = x - gamma * (mean - sk * W)
            xs.append(x)
        assert rec.xs[:, 0] == pytest.approx(xs, abs=1e-13)


# ---- reproducibility --------------------------------------------------------


class TestReproducibility:
    def test_same_seed_bitwise_identical(self):
        inst = with_noise(
            build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5),
            NoiseModel("gaussian", sigma=0.5),
        )
        a = run(_cfg(inst, T=80, seed=12))
        b = run(_cfg(inst, T=80, seed=12))
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.grad_norm_sq, b.grad_norm_sq)

    def test_different_seed_differs(self):
        inst = with_noise(
            build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5),
            NoiseModel("gaussian", sigma=0.5),
        )
        a = run(_cfg(inst, T=80, seed=12))
        b = run(_cfg(inst, T=80, seed=13))
        assert not np.array_equal(a.xs, b.xs)

    def test_a_repeated_run_builds_no_seed_sequence(self, monkeypatch):
        # the adversarial_quadratic benchmark's cwtm+alie config: the second
        # run takes every noise stream's seed words from the memo
        inst = with_noise(
            build_random_quadratic_family(n=20, d=10, rng=RngStream(3, 0, "instance"), b=4),
            NoiseModel("gaussian", sigma=0.5),
        )
        cfg = _cfg(inst, rule="cwtm", q=4, T=15, seed=3, attack=AttackSpec(kind="alie"))
        first = run(cfg)
        built = []
        seed_sequence = np.random.SeedSequence

        def counting(*args, **kwargs):
            built.append(args)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        second = run(cfg)
        assert built == []
        assert first.xs.tobytes() == second.xs.tobytes()

    def test_replicate_path_reproducible(self):
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0, kappa=0.1)
        sched = ScheduleSpec(stepsize="constant", gamma0=0.05)
        a = run_noise_floor_replicates(inst, 0.1, sched, T=50, replicates=64, seed=4)
        b = run_noise_floor_replicates(inst, 0.1, sched, T=50, replicates=64, seed=4)
        assert np.array_equal(a["x_last_minus_1"], b["x_last_minus_1"])


# ---- record, floors, CSV ----------------------------------------------------


class TestRunRecord:
    def test_shapes_and_iterate_access(self):
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5)
        rec = run(_cfg(inst, T=25))
        assert rec.T == 25
        assert rec.xs.shape == (26, 1)
        assert rec.xs[0].tolist() == [1.0]
        assert rec.final_x == DenseVector(rec.xs[-1])
        assert rec.t[0] == 1 and rec.t[-1] == 25

    def test_floor_window_arithmetic(self):
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5)
        rec = run(_cfg(inst, T=100))
        assert rec.floor_estimate(0.1) == pytest.approx(
            float(rec.grad_norm_sq[-10:].mean()), rel=0
        )
        assert rec.floor_estimate(1.0) == pytest.approx(
            float(rec.grad_norm_sq.mean()), rel=0
        )

    def test_floor_window_validation(self):
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5)
        rec = run(_cfg(inst, T=10))
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError, match="window_fraction"):
                rec.floor_estimate(bad)

    def test_floor_insensitive_to_window_on_converged_run(self):
        kappa = 0.1
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5, kappa=kappa)
        rec = run(_cfg(inst, rule="oracle_adversarial", T=2000, kappa=kappa,
                       variant="hetero_c1"))
        floors = [rec.floor_estimate(w) for w in (0.05, 0.1, 0.2)]
        base = floors[1]
        assert all(abs(f - base) <= 0.01 * base for f in floors)

    def test_csv_format(self, tmp_path):
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5)
        rec = run(_cfg(inst, T=7))
        path = tmp_path / "trace.csv"
        rec.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "grad_norm_sq", "f_gap", "dist_to_ref",
                           "lyapunov", "gamma", "beta"]
        assert len(rows) == 8
        # 17 significant digits: values survive a text round trip exactly
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i + 1
            assert float(row[1]) == rec.grad_norm_sq[i]
            assert float(row[5]) == rec.gamma[i]
        assert math.isnan(float(rows[1][4]))  # no tracking -> lyapunov column NaN

    def test_an_exiting_run_holds_its_record_and_one_chunk_of_the_metric_pass(self):
        # T = 200 000 rows, filled after the loop. A pass over all of them
        # at once builds f_H's (T, h) temporaries (77.8 MB under
        # tracemalloc). The run exits at step 2394: the cycle is copied into
        # the record's own rows, and the metric pass holds a few (chunk, h)
        # arrays at d = 1 (honest_grads' product and sum, its row mean,
        # f_H's terms). An index vector per remaining row peaked 3.05 MiB
        # over the 12.2 MiB record under tracemalloc
        inst = build_random_quadratic_family(n=20, d=1, rng=RngStream(0, 0, "r"))
        T, h = 200_000, inst.pop.h
        tracemalloc.start()
        try:
            rec = run(_cfg(inst, T=T, sched=ScheduleSpec(gamma0=0.01)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record = sum(getattr(rec, c).nbytes for c in (
            "t", "grad_norm_sq", "f_gap", "dist_to_ref", "lyapunov", "gamma", "beta", "xs"))
        chunk = 4 * trainer._METRICS_CHUNK * h * 8
        # the loop's last _REPEAT_WINDOW states and the interpreter's objects
        loop = 2**16
        assert peak < record + chunk + loop


# ---- validation and failure modes -------------------------------------------


class TestValidation:
    def test_aggregator_population_mismatch(self):
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5)
        agg = AggregatorSpec(rule="average", n=5)
        cfg = RunConfig(problem=inst, aggregator=agg, attack=AttackSpec(),
                        schedule=ScheduleSpec(stepsize="constant", gamma0=0.1),
                        T=5, x0=DenseVector([1.0]))
        with pytest.raises(ConfigurationError, match="does not match population"):
            run(cfg)

    def test_x0_dimension_mismatch(self):
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5, d=3)
        cfg = _cfg(inst, x0=np.ones(2))
        with pytest.raises(ConfigurationError, match="x0 dimension"):
            run(cfg)

    def test_label_flip_needs_classification_task(self):
        rng = RngStream(0, 0, "t")
        inst = build_random_quadratic_family(n=5, d=1, rng=rng, b=1)
        cfg = _cfg(inst, attack=AttackSpec(kind="label_flip"))
        with pytest.raises(ConfigurationError, match="classification task"):
            run(cfg)

    def test_tied_momentum_step_bound_checked_eagerly(self):
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5)
        cfg = _cfg(inst, sched=ScheduleSpec(stepsize="constant", gamma0=0.05,
                                            momentum="tied"))
        with pytest.raises(ConfigurationError, match="1/c_beta"):
            run(cfg)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_raises_numeric_failure(self):
        inst = build_hetero_lower_bound(mu=1.0, G=0.0, B=0.0)
        cfg = _cfg(inst, T=50, sched=ScheduleSpec(stepsize="constant", gamma0=1e200))
        with pytest.raises(NumericFailure, match="non-finite"):
            run(cfg)

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_first_gradient_fails_at_iteration_one(self):
        # mu * x0 overflows in the gradients at x^0, before the first step
        inst = build_hetero_lower_bound(mu=1e300, G=1.0, B=0.5)
        with pytest.raises(NumericFailure, match="must be finite") as exc:
            run(_cfg(inst, T=2, x0=1e300))
        assert exc.value.iteration == 1


# ---- attacks inside the loop -------------------------------------------------


class TestHonestShards:
    @pytest.mark.parametrize("samples_per_class", [2, 3, 8, 40])
    @pytest.mark.parametrize("honest", [(0, 1, 2, 3), (0, 2, 3, 5), (1, 2, 4, 5)])
    def test_honest_task_grads_equal_the_honest_rows_bitwise(self, samples_per_class, honest):
        # under minibatch noise the metrics read the honest exact gradients
        # from a pass over the honest shards alone; shards of one sample
        # take their own product in both passes
        inst = build_classification_task(n_workers=6, b=2, n_classes=3, dim=2,
                                         samples_per_class=samples_per_class, seed=3,
                                         alpha=0.3)
        ids = np.array(honest, dtype=np.intp)
        cut = replace(inst, pop=WorkerPopulation(n=6, b=2, honest_ids=honest))._honest_task
        for x in np.random.default_rng(samples_per_class).normal(size=(5, inst.dim)) * 3.0:
            assert cut.grads(x).tobytes() == inst.task.grads(x)[ids].tobytes()

    def test_a_long_minibatch_run_holds_one_chunk_of_the_metric_pass(self):
        # T = 2048 on the softmax benchmark's task (200 samples, 10 classes,
        # d = 90). A run that kept every step's honest gradients for its
        # block, (1024, 8, 90) floats, peaked at 14.2 MB under tracemalloc;
        # the metric pass evaluates at most _METRICS_CHUNK iterates at once
        inst = build_classification_task(n_workers=10, b=2, n_classes=10, dim=8, seed=0,
                                         minibatch=8)
        cfg = RunConfig(problem=inst, aggregator=AggregatorSpec(rule="cwm", n=10, b=2),
                        attack=AttackSpec(kind="label_flip"),
                        schedule=ScheduleSpec(gamma0=0.05), T=2048,
                        x0=DenseVector(np.zeros(inst.dim)), seed=0)
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14.2 * 2**20

    def test_two_runs_of_one_instance_build_each_derived_task_once(self, monkeypatch):
        # the honest-shard task and the label-poisoned copy are kept on the
        # instance: the first run builds one task each, the second none
        inst = build_classification_task(n_workers=6, b=2, n_classes=3, dim=2,
                                         samples_per_class=5, seed=1, minibatch=4)
        cfg = _cfg(inst, rule="cwm", T=3, x0=0.0,
                   attack=AttackSpec(kind="label_flip"))
        built = []
        check = SyntheticClassificationTask.__post_init__
        monkeypatch.setattr(SyntheticClassificationTask, "__post_init__",
                            lambda task: built.append(task) or check(task))
        first = run(cfg)
        assert len(built) == 2
        assert {id(t) for t in built} == {id(inst._honest_task), id(inst._poisoned.task)}
        second = run(cfg)
        assert len(built) == 2
        assert second.xs.tobytes() == first.xs.tobytes()


class TestAttackIntegration:
    def test_sign_flip_against_average_manual_step(self):
        rng = RngStream(42, 0, "t")
        inst = build_random_quadratic_family(n=3, d=1, rng=rng, b=1)
        gamma = 0.05
        cfg = _cfg(inst, T=1, x0=1.0,
                   sched=ScheduleSpec(stepsize="constant", gamma0=gamma),
                   attack=AttackSpec(kind="sign_flip"))
        rec = run(cfg)
        g = inst.grads(np.array([1.0]))[:, 0].tolist()
        agg = (g[0] + g[1] - g[2]) / 3.0
        assert rec.xs[1, 0] == pytest.approx(1.0 - gamma * agg, abs=1e-15)

    def test_alie_against_average_manual_step(self):
        rng = RngStream(43, 0, "t")
        inst = build_random_quadratic_family(n=4, d=1, rng=rng, b=1)
        gamma = 0.05
        cfg = _cfg(inst, T=1, x0=1.0,
                   sched=ScheduleSpec(stepsize="constant", gamma0=gamma),
                   attack=AttackSpec(kind="alie"))
        rec = run(cfg)
        g = inst.grads(np.array([1.0]))[:3, 0]
        mu_h = g.mean()
        sigma_dev = math.sqrt(((g - mu_h) ** 2).sum())
        # versus plain average the +/-2 candidates tie; -2 is listed first
        crafted = mu_h - 2.0 * sigma_dev
        agg = (g.sum() + crafted) / 4.0
        assert rec.xs[1, 0] == pytest.approx(1.0 - gamma * agg, abs=1e-14)

    def test_label_flip_poisons_byzantine_shards_only(self):
        inst = build_classification_task(n_workers=4, b=1, n_classes=5, dim=4,
                                         samples_per_class=8)
        poisoned = inst._poisoned
        for w in range(3):
            assert np.array_equal(poisoned.task.labels[w], inst.task.labels[w])
        assert np.array_equal(poisoned.task.labels[3],
                              4 - inst.task.labels[3])

    def test_label_flip_run_executes(self):
        inst = build_classification_task(n_workers=4, b=1, n_classes=5, dim=4,
                                         samples_per_class=8)
        cfg = _cfg(inst, rule="cwm", T=5, x0=np.zeros(inst.dim),
                   sched=ScheduleSpec(stepsize="constant", gamma0=0.05),
                   attack=AttackSpec(kind="label_flip"))
        rec = run(cfg)
        assert np.all(np.isfinite(rec.xs))

    @pytest.mark.parametrize("kind", ["gaussian", "bernoulli_pm"])
    @pytest.mark.parametrize("attack", ["none", "label_flip"])
    def test_byzantine_rows_carry_their_own_noise_on_classification(self, kind, attack):
        # every worker, Byzantine ones included, perturbs its full-shard
        # gradient with draws from its own (seed, worker, "noise") stream
        inst = with_noise(build_classification_task(n_workers=4, b=1, n_classes=3, dim=2,
                                                    samples_per_class=8),
                          NoiseModel(kind, sigma=1.0))
        src = inst._poisoned if attack == "label_flip" else inst
        gamma, seed = 0.1, 5
        x0 = np.linspace(-0.5, 0.5, inst.dim)
        cfg = _cfg(inst, T=1, x0=x0, seed=seed,
                   sched=ScheduleSpec(stepsize="constant", gamma0=gamma),
                   attack=AttackSpec(kind=attack))
        d = inst.dim
        rows = []
        for w in range(4):
            gen = RngStream(seed, w, "noise").generator
            draw = (gen.standard_normal(d) if kind == "gaussian"
                    else 1.0 - 2.0 * gen.integers(0, 2, size=d))
            rows.append(src.task.loss_grad(w, x0)[1] + draw / math.sqrt(d))
        want = x0 - gamma * np.mean(rows, axis=0)
        assert np.allclose(run(cfg).xs[1], want, rtol=0.0, atol=1e-12)

    def test_sign_flip_biases_the_average(self):
        rng = RngStream(44, 0, "t")
        inst = build_random_quadratic_family(n=5, d=2, rng=rng, b=1)
        attack = AttackSpec(kind="sign_flip")
        sched = ScheduleSpec(stepsize="constant", gamma0=0.05)
        clean = run(_honest_mean_cfg(inst, T=400, sched=sched))
        avg = run(_cfg(inst, T=400, sched=sched, attack=attack))
        assert avg.f_gap[-1] > clean.f_gap[-1] + 1e-6

    def test_krum_resists_large_crafted_outliers(self):
        # with near-clustered honest updates a far-away crafted vector drags
        # the mean a long way but never wins the Krum score
        rng = RngStream(45, 0, "t")
        inst = build_random_quadratic_family(n=5, d=2, rng=rng, b=1,
                                             shared_curvature=True)
        attack = AttackSpec(kind="alie", candidate_alphas=(-50.0, 50.0))
        sched = ScheduleSpec(stepsize="constant", gamma0=0.05)
        clean = run(_honest_mean_cfg(inst, T=400, sched=sched))
        avg = run(_cfg(inst, T=400, sched=sched, attack=attack))
        kr = run(_cfg(inst, rule="krum", T=400, sched=sched, attack=attack))
        assert avg.f_gap[-1] > clean.f_gap[-1] + 0.1
        assert kr.f_gap[-1] < avg.f_gap[-1] / 10.0


    def test_sign_flip_byzantine_keeps_its_own_momentum(self):
        # every worker, Byzantine included, runs m <- beta*m + (1-beta)*g on
        # its own gradient and noise stream; the Byzantine slot submits -m
        rng = RngStream(46, 0, "t")
        inst = with_noise(build_random_quadratic_family(n=4, d=2, rng=rng, b=1),
                          NoiseModel("gaussian", sigma=0.3))
        gamma, beta, T, seed = 0.05, 0.6, 12, 9
        cfg = _cfg(inst, T=T, seed=seed,
                   sched=ScheduleSpec(stepsize="constant", gamma0=gamma,
                                      momentum="constant", beta=beta),
                   attack=AttackSpec(kind="sign_flip"))
        rec = run(cfg)

        gens = [RngStream(seed, w, "noise").generator for w in range(4)]
        x = np.ones(2)
        m = np.zeros((4, 2))
        for t in range(1, T + 1):
            for w in range(4):
                loc = inst.locals[w]
                g = loc.a * x + loc.c + 0.3 / math.sqrt(2) * gens[w].standard_normal(2)
                m[w] = beta * m[w] + (1.0 - beta) * g
            x = x - gamma * (m[0] + m[1] + m[2] - m[3]) / 4.0
            assert rec.xs[t] == pytest.approx(x, rel=1e-12, abs=1e-14), t

    @pytest.mark.parametrize("rule,kw", [("gm", {}), ("krum", {}),
                                         ("multi_krum", {"q": 3}), ("cwtm", {"q": 1})])
    def test_alie_step_aggregates_once_and_reuses_the_probe(self, monkeypatch, rule, kw):
        import robustsgd.attacks as attacks_mod
        import robustsgd.trainer as trainer_mod

        rng = RngStream(47, 0, "t")
        inst = with_noise(build_random_quadratic_family(n=6, d=3, rng=rng, b=2),
                          NoiseModel("gaussian", sigma=0.5))
        T = 15
        cfg = _cfg(inst, rule=rule, T=T, sched=ScheduleSpec(stepsize="constant", gamma0=0.05),
                   attack=AttackSpec(kind="alie"), **kw)
        calls = []
        for mod in (attacks_mod, trainer_mod):
            original = mod.aggregate

            def counting(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(mod, "aggregate", counting)
        run(cfg)
        assert len(calls) == T

    def test_alie_with_zero_dispersion_still_aggregates_once(self, monkeypatch):
        import robustsgd.attacks as attacks_mod
        import robustsgd.trainer as trainer_mod

        rng = RngStream(48, 0, "t")
        inst = build_random_quadratic_family(n=5, d=2, rng=rng, b=1,
                                             shared_curvature=True)
        # shared curvature and one linear term: every honest momentum is equal
        inst = replace(inst, locals=tuple(QuadraticLocal(loc.a, np.full(2, 0.3))
                                          for loc in inst.locals))
        T = 6
        cfg = _cfg(inst, rule="cwm", T=T,
                   attack=AttackSpec(kind="alie"))
        calls = []
        for name, mod in (("attacks", attacks_mod), ("trainer", trainer_mod)):
            original = mod.aggregate

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(mod, "aggregate", counting)
        rec = run(cfg)
        assert calls == ["attacks"] * T
        assert np.all(np.isfinite(rec.xs))


# ---- lyapunov tracking -------------------------------------------------------


class TestLyapunovTracking:
    def _tracked_cfg(self, seed=0, T=200, frac=0.8, kappa=0.05):
        rng = RngStream(seed, 0, "lyap")
        inst = build_random_quadratic_family(n=5, d=3, rng=rng,
                                             shared_curvature=True)
        L = inst.analytic.L
        gamma = frac / (36.0 * L)
        sched = ScheduleSpec(stepsize="constant", gamma0=gamma, momentum="tied")
        return _cfg(inst, rule="oracle_adversarial", T=T, x0=2.0, sched=sched,
                    kappa=kappa, variant="variance_sign"), inst

    def test_descent_never_flagged_in_admissible_regime(self):
        for seed in range(5):
            cfg, _ = self._tracked_cfg(seed=seed)
            record, trace = track_lyapunov(cfg)
            assert trace.flagged == []
            assert np.all(trace.V >= 0.0)
            assert np.all(np.isfinite(trace.V))

    def test_descent_never_flagged_with_B_above_zero(self):
        # the bound's kappa*B^2 terms at work: kappa*B^2 = 0.0075 <= 1/112,
        # inside the admissible kappa*B^2 < 1/56
        kappa = 0.03
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5, kappa=kappa)
        sched = ScheduleSpec(stepsize="constant", gamma0=0.9 / (36.0 * inst.analytic.L),
                             momentum="tied")
        cfg = _cfg(inst, rule="oracle_adversarial", T=500, sched=sched, kappa=kappa,
                   variant="hetero_c1")
        _, trace = track_lyapunov(cfg)
        assert trace.flagged == []
        assert np.all(trace.V >= 0.0)

    def test_initial_value_bound(self):
        cfg, inst = self._tracked_cfg(seed=7)
        record, trace = track_lyapunov(cfg)
        gap0 = inst.f_H(cfg.x0) - inst.f_H(inst.analytic.x_star)
        assert trace.V[0] <= 2.25 * gap0 * (1 + 1e-12)

    def test_lyapunov_column_mirrors_trace(self):
        cfg, _ = self._tracked_cfg(seed=3, T=50)
        record, trace = track_lyapunov(cfg)
        assert np.array_equal(record.lyapunov, trace.V)

    def test_constants(self):
        cfg, inst = self._tracked_cfg(seed=1, T=10, kappa=0.02)
        _, trace = track_lyapunov(cfg)
        L = inst.analytic.L
        assert trace.c1 == pytest.approx(1.0 / (8.0 * L), rel=0)
        assert trace.c2 == pytest.approx(0.02 / (2.0 * L), rel=0)

    def test_refuses_stochastic_runs(self):
        cfg, inst = self._tracked_cfg(seed=2, T=10)
        noisy = with_noise(inst, NoiseModel("gaussian", sigma=0.1))
        cfg2 = _cfg(noisy, rule="oracle_adversarial", T=10,
                    sched=cfg.schedule, kappa=0.05, variant="variance_sign")
        with pytest.raises(ConfigurationError, match="deterministic"):
            track_lyapunov(cfg2)

    def test_refuses_untied_momentum(self):
        cfg, inst = self._tracked_cfg(seed=2, T=10)
        cfg2 = _cfg(inst, rule="oracle_adversarial", T=10,
                    sched=ScheduleSpec(stepsize="constant", gamma0=0.001),
                    kappa=0.05, variant="variance_sign")
        with pytest.raises(ConfigurationError, match="tied momentum"):
            track_lyapunov(cfg2)

    def test_kappa_defaults_to_aggregator(self):
        cfg, _ = self._tracked_cfg(seed=4, T=10)
        record, trace = track_lyapunov(cfg)       # kappa from the spec (0.05)
        record2, trace2 = track_lyapunov(cfg, kappa=0.05)
        assert np.array_equal(trace.V, trace2.V)

    def test_a_non_finite_value_names_its_iteration_and_column(self):
        cfg, _ = self._tracked_cfg(seed=5, T=10)
        record = run(cfg)
        record.f_gap[0] = math.inf  # the gap at x^1, read by V^2
        with pytest.raises(NumericFailure, match="non-finite lyapunov at iteration 2") as exc:
            trainer.lyapunov_trace(cfg, record, 0.05)
        assert (exc.value.iteration, exc.value.column) == (2, "lyapunov")

    def test_kappa_required_somewhere(self):
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5)
        L = inst.analytic.L
        cfg = _cfg(inst, sched=ScheduleSpec(stepsize="constant",
                                            gamma0=0.5 / (36 * L),
                                            momentum="tied"))
        with pytest.raises(ConfigurationError, match="needs kappa"):
            track_lyapunov(cfg)


# ---- the noise-floor Monte Carlo vs exact moments ---------------------------


class TestNoiseFloorStatistics:
    def test_mc_agrees_with_exact_recursion(self):
        kappa = 0.1
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0, kappa=kappa)
        sched = pl_schedule_for_plain(inst, kappa=kappa)
        T, R = 800, 3000
        mom = noise_floor_exact_moments(1.0, 0.5, 1.0, kappa, sched, T)
        mc = run_noise_floor_replicates(inst, kappa, sched, T=T, replicates=R,
                                        seed=77)
        se = math.sqrt(max(mom["var_of_sq"], 0.0) / R)
        assert abs(mc["mean_sq"] - mom["second"]) <= 3.0 * se

    def test_mean_attracted_to_drifted_fixed_point(self):
        kappa = 0.1
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0, kappa=kappa)
        x_F = float(inst.analytic.x_F_star.values[0])
        sched = pl_schedule_for_plain(inst, kappa=kappa)
        mc = run_noise_floor_replicates(inst, kappa, sched, T=800,
                                        replicates=3000, seed=5)
        assert abs(mc["mean_x"] - x_F) <= 3.0 * mc["se_x"]
        assert mc["mean_x"] >= x_F / 2.0

    def test_exact_second_moment_decreases_toward_floor(self):
        kappa = 0.1
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0, kappa=kappa)
        x_F_sq = float(inst.analytic.x_F_star.values[0]) ** 2
        seconds = []
        for T in (300, 1000, 3000):
            sched = pl_schedule_for_plain(inst, kappa=kappa)
            seconds.append(
                noise_floor_exact_moments(1.0, 0.5, 1.0, kappa, sched, T)["second"]
            )
        assert seconds[0] > seconds[1] > seconds[2] > x_F_sq

    @pytest.mark.parametrize("T, want", [
        # check_noise's fast suite
        (2000, ("0x1.5f9d652ccc3e1p-3", "0x1.f541fa93efc40p-6",
                "0x1.715111203f936p-8", "0x1.185d225f793cep-10")),
        # and its full suite
        (5000, ("0x1.5f9d652ccc3dap-3", "0x1.ea7ca5a23e616p-6",
                "0x1.5b30f4ab1ba4ap-8", "0x1.f27f0958eaf3cp-11")),
    ])
    def test_exact_moments_of_the_verify_horizons_are_pinned(self, T, want):
        kappa = 0.1
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0, kappa=kappa)
        sched = pl_schedule_for_plain(inst, kappa=kappa)
        mom = noise_floor_exact_moments(1.0, 0.5, 1.0, kappa, sched, T)
        assert tuple(mom[k].hex() for k in ("mean", "second", "third", "fourth")) == want

    def test_requires_the_noise_construction(self):
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5)
        sched = ScheduleSpec(stepsize="constant", gamma0=0.05)
        with pytest.raises(ConfigurationError, match="Bernoulli"):
            run_noise_floor_replicates(inst, 0.1, sched, T=10, replicates=4)

    def test_momentum_free_only(self):
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0, kappa=0.1)
        sched = ScheduleSpec(stepsize="constant", gamma0=0.001, momentum="tied")
        with pytest.raises(ConfigurationError, match="momentum-free"):
            run_noise_floor_replicates(inst, 0.1, sched, T=10, replicates=4)


# ---- momentum's effect on noise floors --------------------------------------


class TestMomentumSuppression:
    def test_tied_momentum_lowers_the_stochastic_floor(self):
        kappa = 0.5
        base = build_hetero_lower_bound(mu=1.0, G=0.0, B=0.0, kappa=kappa)
        inst = with_noise(base, NoiseModel("gaussian", sigma=0.5))
        gammas = (0.01, 0.02, 0.027)

        def best_floor(momentum):
            floors = []
            for g in gammas:
                sched = (ScheduleSpec(stepsize="constant", gamma0=g,
                                      momentum="tied")
                         if momentum else
                         ScheduleSpec(stepsize="constant", gamma0=g))
                rec = run(_cfg(inst, rule="oracle_adversarial", T=1200,
                               seed=8, kappa=kappa, variant="variance_sign",
                               sched=sched))
                floors.append(rec.floor_estimate())
            return min(floors)

        assert best_floor(True) < best_floor(False)
