import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustsgd.core import (
    ConfigurationError,
    ContractViolation,
    DataError,
    DenseVector,
    RngStream,
    WorkerPopulation,
)
from robustsgd.problems import (
    Analytic,
    NoiseModel,
    ProblemInstance,
    QuadraticLocal,
    SyntheticClassificationTask,
    _COLUMN_MAX_ROWS_PER_CLASS,
    build_classification_task,
    build_hetero_lower_bound,
    build_noise_lower_bound,
    build_random_quadratic_family,
    build_synthetic_family,
    certify_dissimilarity,
    stochastic_gradient,
    with_noise,
)
from reference_loop import (
    dissimilarity_gap,
    reference_grad_f_H,
    reference_local_grad,
    reference_loss_grad,
    reference_minibatch_grads,
    reference_poisoned_instance,
    reference_stochastic_gradient,
    reference_task_grads,
)

pos = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
nonneg = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


def _value(loc, x):
    """A quadratic local's value, as QuadraticLocal.value computed it."""
    return float(0.5 * np.dot(loc.a, x * x) + np.dot(loc.c, x))


# ---- two-worker heterogeneous family --------------------------------------


class TestHeteroFamily:
    def test_frozen_construction_values(self):
        # independently derived by hand for (mu, G, B, kappa) = (1, 1, 0.5, 0.1):
        #   delta = sqrt(3)/4, eps = 1/2,
        #   x_F*  = (sqrt(0.1)/2) / (1 - sqrt(0.1)*sqrt(3)/4)
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5, kappa=0.1)
        assert inst.params["delta"] == pytest.approx(0.4330127018922193, abs=1e-15)
        assert inst.analytic.L == pytest.approx(1.4330127018922193, abs=1e-15)
        assert float(inst.analytic.x_F_star.values[0]) == pytest.approx(
            0.18319950889480757, abs=1e-15
        )
        assert float(inst.analytic.x_star.values[0]) == 0.0

    @given(pos, nonneg, st.floats(0.0, 0.9), st.floats(-3.0, 3.0))
    @settings(max_examples=60)
    def test_honest_average_gradient_is_mu_x(self, mu, G, B, x):
        inst = build_hetero_lower_bound(mu=mu, G=G, B=B)
        got = inst.grad_f_H(DenseVector([x])).values[0]
        assert got == pytest.approx(mu * x, rel=1e-12, abs=1e-12)

    def test_dissimilarity_certificate_tight(self):
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5)
        res = certify_dissimilarity(inst, G=1.0, B=0.5)
        assert res.passed
        assert res.status == "tight"

    def test_dissimilarity_fails_below_declared(self):
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5)
        res = certify_dissimilarity(inst, G=0.5, B=0.5)
        assert not res.passed
        # the witness must be a genuine violation
        assert dissimilarity_gap(inst, 0.5, 0.5, res.witness) > 0

    def test_drift_denominator_must_stay_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            build_hetero_lower_bound(mu=1.0, G=1.0, B=2.0, kappa=4.0)

    def test_multidimensional_certificate_dimension_free(self):
        for d in (1, 3, 7):
            inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5, d=d)
            assert certify_dissimilarity(inst, 1.0, 0.5).passed


# ---- two-worker noisy family ----------------------------------------------


class TestNoiseFamily:
    def test_frozen_construction_values(self):
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0, kappa=0.1)
        assert inst.analytic.L == pytest.approx(1.5, abs=0)
        x_F = float(inst.analytic.x_F_star.values[0])
        assert x_F == pytest.approx(0.1716869262977801, abs=1e-15)
        assert x_F * x_F == pytest.approx(0.029476400661579374, rel=1e-14)

    def test_bernoulli_oracle_is_unbiased_and_bounded(self):
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=0.7)
        x = DenseVector([2.0])
        draws = [
            stochastic_gradient(inst, 0, x, RngStream(s, 0, "t")).values[0]
            for s in range(400)
        ]
        exact = inst.grads(x.values)[0, 0]
        # every draw is exact +/- sigma, and both signs occur
        offs = {round(v - exact, 12) for v in draws}
        assert offs == {0.7, -0.7}

    def test_curvatures(self):
        inst = build_noise_lower_bound(mu=2.0, B=0.5, sigma=1.0)
        assert inst.locals[0].a[0] == pytest.approx(3.0)
        assert inst.locals[1].a[0] == pytest.approx(1.0)


# ---- synthetic three-group family -----------------------------------------


class TestSyntheticFamily:
    def test_frozen_coefficients(self):
        # hand-derived for (n, k, a, G, B) = (20, 7, 1, 1, 1):
        #   c = sqrt(20/14), d_coef = 20/(sqrt(84) - 6)
        inst = build_synthetic_family(n=20, k=7, a=1.0, G=1.0, B=1.0)
        assert inst.params["c"] == pytest.approx(1.1952286093343936, abs=1e-15)
        assert inst.params["d_coef"] == pytest.approx(6.318813079129868, abs=1e-13)

    @given(
        st.integers(2, 6),
        pos,
        st.floats(0.0, 1.5),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=40)
    def test_equality_family_is_certified_tight(self, k, a, G, B):
        n = 2 * k + 3
        if B * B >= 2 * k / (n - 2 * k):
            return
        inst = build_synthetic_family(n=n, k=k, a=a, G=G, B=B)
        res = certify_dissimilarity(inst, G, B)
        assert res.passed

    def test_pointwise_equality_when_B_positive(self):
        inst = build_synthetic_family(n=20, k=7, a=1.0, G=1.0, B=0.8)
        for x in (-3.0, -0.5, 0.0, 1.0, 4.0):
            gap = dissimilarity_gap(inst, 1.0, 0.8, DenseVector([x]))
            assert gap == pytest.approx(0.0, abs=1e-10)

    def test_inadmissible_B_rejected(self):
        # 2k/(n-2k) = 14/6; B = 1.6 gives B^2 = 2.56 past the edge
        with pytest.raises(ConfigurationError, match="B\\^2 < 2k"):
            build_synthetic_family(n=20, k=7, a=1.0, G=1.0, B=1.6)

    def test_shape_constraint(self):
        with pytest.raises(ConfigurationError, match="0 < 2k < n"):
            build_synthetic_family(n=10, k=5, a=1.0, G=1.0, B=0.5)


# every numeric parameter of a constructive family, with legal values for
# the others
BUILDER_PARAMS = [
    (build, kwargs, name)
    for build, kwargs in (
        (build_hetero_lower_bound, dict(mu=1.0, G=1.0, B=0.5, kappa=0.1)),
        (build_noise_lower_bound, dict(mu=1.0, B=0.5, sigma=0.7, kappa=0.1)),
        (build_synthetic_family, dict(n=20, k=7, a=1.0, G=1.0, B=0.5)),
    )
    for name in kwargs if name not in ("n", "k")
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("build, kwargs, name", BUILDER_PARAMS,
                         ids=[f"{b.__name__}-{name}" for b, _, name in BUILDER_PARAMS])
def test_builders_refuse_a_parameter_not_finite_and_nonnegative(build, kwargs, name, bad):
    build(**kwargs)
    with pytest.raises(ConfigurationError, match=f"^{name} must be finite and >=? 0; got {name}="):
        build(**{**kwargs, name: bad})


@pytest.mark.parametrize("build, kwargs", [
    (build_hetero_lower_bound, dict(mu=0.0, G=1.0, B=0.5)),
    (build_noise_lower_bound, dict(mu=0.0, B=0.5, sigma=0.7)),
    (build_synthetic_family, dict(n=20, k=7, a=0.0, G=1.0, B=0.5)),
])
def test_builders_refuse_zero_curvature(build, kwargs):
    with pytest.raises(ConfigurationError, match="must be finite and > 0"):
        build(**kwargs)


# ---- random quadratic family ----------------------------------------------


class TestRandomQuadraticFamily:
    def test_declared_analytics_are_exact(self):
        rng = RngStream(3, 0, "t")
        inst = build_random_quadratic_family(n=6, d=4, rng=rng)
        xs = inst.analytic.x_star
        assert np.allclose(inst.grad_f_H(xs).values, 0.0, atol=1e-12)
        assert inst.analytic.L >= inst.analytic.mu > 0

    def test_shared_curvature_declares_valid_certificate(self):
        for k in range(8):
            rng = RngStream(11 + k, 0, "t")
            inst = build_random_quadratic_family(n=5, d=3, rng=rng, shared_curvature=True)
            G, B = inst.analytic.G, inst.analytic.B
            assert B == 0.0
            res = certify_dissimilarity(inst, G, B)
            assert res.passed

    def test_byzantine_slots_excluded_from_analytics(self):
        rng = RngStream(5, 0, "t")
        inst = build_random_quadratic_family(n=7, d=2, rng=rng, b=3)
        assert inst.pop.byzantine_ids == frozenset({4, 5, 6})
        ids = inst.pop.honest_sorted()
        A = np.stack([inst.locals[i].a for i in ids])
        assert inst.analytic.L >= float(A.max()) - 1e-15


# ---- certifier vs grid sampling -------------------------------------------


class TestCertifierGridEquivalence:
    def test_agreement_on_dense_grid(self):
        rng = RngStream(81, 0, "t")
        gen = rng.generator
        for k in range(30):
            inst = build_random_quadratic_family(
                n=int(gen.integers(2, 6)), d=1, rng=rng.spawn(f"g{k}")
            )
            G = float(gen.uniform(0, 1.5))
            B = float(gen.uniform(0, 1.2))
            exact = certify_dissimilarity(inst, G, B)
            worst = max(dissimilarity_gap(inst, G, B, DenseVector([x]))
                        for x in np.linspace(-60, 60, 2001))
            if exact.passed:
                assert worst <= 1e-9 * max(1.0, G * G)
            else:
                assert dissimilarity_gap(inst, G, B, exact.witness) > 0

    def test_certifier_refuses_nonquadratic(self):
        task = build_classification_task(n_workers=3, n_classes=3, dim=4,
                                         samples_per_class=6)
        with pytest.raises(ConfigurationError, match="quadratic"):
            certify_dissimilarity(task, 1.0, 0.5)


# ---- noise overrides and oracles ------------------------------------------


class TestStochasticOracles:
    def test_with_noise_preserves_everything_else(self):
        base = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5, kappa=0.1)
        noisy = with_noise(base, NoiseModel("gaussian", sigma=0.3))
        assert noisy.noise.kind == "gaussian"
        assert noisy.analytic is base.analytic
        assert noisy.locals is base.locals

    def test_kind_none_stores_no_sigma(self):
        # a model that adds no noise has no noise scale for the descent
        # bound's sigma^2 term to read
        assert NoiseModel("none", sigma=0.3).sigma == 0.0
        assert NoiseModel("none", sigma=0.3) == NoiseModel("none")
        with pytest.raises(ConfigurationError, match="sigma must be >= 0"):
            NoiseModel("none", sigma=-1.0)

    @pytest.mark.parametrize("kind,sigma", [("gaussian", math.nan),
                                            ("bernoulli_pm", math.inf)])
    def test_sigma_not_finite_is_refused(self, kind, sigma):
        # nan compared false with 0 and passed; inf made every draw infinite
        with pytest.raises(ConfigurationError, match="sigma must be >= 0 and finite"):
            NoiseModel(kind, sigma=sigma)

    def test_zero_sigma_returns_exact_gradient(self):
        inst = with_noise(
            build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5),
            NoiseModel("gaussian", sigma=0.0),
        )
        x = DenseVector([1.5])
        g = stochastic_gradient(inst, 0, x, RngStream(0, 0, "t"))
        assert g.values.tobytes() == inst.grads(x.values)[0].tobytes()

    def test_gaussian_noise_total_second_moment(self):
        # sigma^2 is split across coordinates: E||g - grad||^2 = sigma^2
        inst = with_noise(
            build_hetero_lower_bound(mu=1.0, G=0.0, B=0.0, d=4),
            NoiseModel("gaussian", sigma=2.0),
        )
        x = DenseVector(np.zeros(4))
        exact = inst.grads(x.values)[0]
        gen_draws = [
            stochastic_gradient(inst, 0, x, RngStream(s, 0, "mm")).values
            for s in range(3000)
        ]
        sq = np.mean([np.sum((g - exact) ** 2) for g in gen_draws])
        assert sq == pytest.approx(4.0, rel=0.1)

    def test_byzantine_worker_has_no_honest_oracle(self):
        rng = RngStream(5, 0, "t")
        inst = build_random_quadratic_family(n=5, d=2, rng=rng, b=2)
        with pytest.raises(ContractViolation, match="not honest"):
            stochastic_gradient(inst, 4, DenseVector([0.0, 0.0]), RngStream(0, 4, "t"))


# ---- classification task ---------------------------------------------------


class TestClassificationTask:
    def test_every_worker_gets_data(self):
        inst = build_classification_task(n_workers=6, n_classes=4, dim=5,
                                         samples_per_class=15, alpha=0.5)
        for w in range(6):
            assert inst.task.labels[w].size >= 1
            assert set(np.unique(inst.task.labels[w])) <= set(range(4))

    def test_loss_grad_finite_and_correct_shape(self):
        inst = build_classification_task(n_workers=3, n_classes=3, dim=4,
                                         samples_per_class=8)
        x = DenseVector(np.zeros(inst.dim))
        v, g = inst.task.loss_grad(0, x.values)
        assert math.isfinite(v)
        assert g.shape == (inst.dim,)
        # at x = 0 the softmax is uniform: loss = log(n_classes)
        assert v == pytest.approx(math.log(3.0), rel=1e-12)

    def test_minibatch_oracle_uses_rng(self):
        inst = build_classification_task(n_workers=3, n_classes=3, dim=4,
                                         samples_per_class=8, minibatch=2)
        x = DenseVector(np.ones(inst.dim) * 0.1)
        a = stochastic_gradient(inst, 0, x, RngStream(1, 0, "mb"))
        b = stochastic_gradient(inst, 0, x, RngStream(1, 0, "mb"))
        c = stochastic_gradient(inst, 0, x, RngStream(2, 0, "mb"))
        assert a == b
        assert a != c

    def test_deterministic_rebuild(self):
        a = build_classification_task(n_workers=4, n_classes=3, dim=4,
                                      samples_per_class=10, seed=7)
        b = build_classification_task(n_workers=4, n_classes=3, dim=4,
                                      samples_per_class=10, seed=7)
        for w in range(4):
            assert np.array_equal(a.task.features[w], b.task.features[w])
            assert np.array_equal(a.task.labels[w], b.task.labels[w])


# ---- the stacked gradient oracle ---------------------------------------------


class TestGrads:
    @pytest.mark.parametrize("b", [0, 2])
    def test_quadratic_rows_equal_local_gradients_bitwise(self, b):
        inst = build_random_quadratic_family(n=6, d=4, rng=RngStream(5, 0, "g"), b=b)
        x = np.array([0.3, -1.7, 2.0, 1e-3])
        G = inst.grads(x)
        assert G.shape == (6, 4)
        for i in range(6):
            assert G[i].tobytes() == reference_local_grad(inst, i, DenseVector(x)).values.tobytes()

    def test_classification_rows_equal_local_gradients_bitwise(self):
        inst = build_classification_task(n_workers=4, b=1, n_classes=3, dim=2,
                                         samples_per_class=8)
        x = np.linspace(-1.0, 1.0, inst.dim)
        G = inst.grads(x)
        assert G.shape == (4, inst.dim)
        for i in range(4):
            assert G[i].tobytes() == reference_local_grad(inst, i, DenseVector(x)).values.tobytes()

    @given(st.integers(1, 12), st.integers(0, 5), st.integers(1, 12), st.integers(0, 99))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_f_H_sums_per_worker_values_in_order(self, n, b, d, seed):
        # the training loop's f_gap column depends on this exact order:
        # one np.dot per worker, summed in honest order, then divided
        b = min(b, (n - 1) // 2)
        inst = build_random_quadratic_family(n=n, d=d, rng=RngStream(seed, 0, "f"), b=b)
        x = np.random.default_rng(seed).normal(size=d)
        ids = inst.pop.honest_sorted()
        want = sum(_value(inst.locals[i], x) for i in ids) / len(ids)
        assert inst.f_H(x) == want

    def test_f_H_sums_every_worker_of_shared_locals(self):
        # the synthetic family shares 3 QuadraticLocal objects among 20
        # workers: f_H sums all 20 values in honest order
        inst = build_synthetic_family(n=20, k=7, a=1.0, G=1.0, B=0.5, d=3)
        x = np.array([0.5, -0.25, 2.0])
        ids = inst.pop.honest_sorted()
        want = sum(_value(inst.locals[i], x) for i in ids) / len(ids)
        assert inst.f_H(x).hex() == want.hex()
        assert [v.hex() for v in inst.f_H(np.stack([x, -x]))] == [
            want.hex(), (sum(_value(inst.locals[i], -x) for i in ids) / len(ids)).hex()]

    def test_f_H_takes_an_array_or_a_dense_vector(self):
        inst = build_synthetic_family(n=9, k=3, a=1.0, G=1.0, B=0.5, d=3)
        x = np.array([0.5, -0.25, 2.0])
        assert inst.f_H(x) == inst.f_H(DenseVector(x))

    @given(st.integers(1, 12), st.integers(0, 5), st.integers(1, 12), st.integers(0, 9),
           st.integers(0, 99))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_f_H_of_stacked_points_equals_per_worker_sums_bitwise(self, n, b, d, K, seed):
        b = min(b, (n - 1) // 2)
        inst = build_random_quadratic_family(n=n, d=d, rng=RngStream(seed, 0, "f"), b=b)
        gen = np.random.default_rng(seed)
        X = gen.normal(size=(K, d)) * 10.0 ** gen.integers(-3, 4, size=(K, 1))
        ids = inst.pop.honest_sorted()
        want = [sum(_value(inst.locals[i], x) for i in ids) / len(ids) for x in X]
        got = inst.f_H(X)
        assert got.shape == (K,)
        assert [v.hex() for v in got] == [w.hex() for w in want]

    def test_f_H_of_an_all_negative_zero_sum_is_positive_zero(self):
        # every honest value is -0.0: Python's sum starts from the integer 0
        # and gives +0.0, which the stacked path must reproduce
        # (a one-term dot keeps the sign of -1 * 0; longer ones start from +0.0)
        neg = QuadraticLocal([-1.0], [-3.0])
        inst = replace(build_synthetic_family(n=5, k=1, a=1.0, G=1.0, B=0.5, d=1),
                       locals=(neg,) * 5)
        X = np.zeros((3, 1))
        assert _value(neg, X[0]) == 0.0 and math.copysign(1.0, _value(neg, X[0])) == -1.0
        want = sum(_value(neg, x) for x in X[:1] for _ in range(5)) / 5
        assert want.hex() == "0x0.0p+0"
        assert [v.hex() for v in inst.f_H(X)] == [want.hex()] * 3
        assert inst.f_H(X[0]).hex() == want.hex()

    @given(st.integers(1, 9), st.integers(0, 4), st.integers(1, 6), st.integers(0, 6),
           st.integers(0, 99))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_quadratic_grads_of_stacked_points_equal_per_point_bitwise(self, n, b, d, K, seed):
        inst = build_random_quadratic_family(n=n, d=d, rng=RngStream(seed, 0, "s"),
                                             b=min(b, (n - 1) // 2))
        X = np.random.default_rng(seed).normal(size=(K, d))
        G = inst.grads(X)
        assert G.shape == (K, n, d)
        assert G.tobytes() == b"".join(inst.grads(x).tobytes() for x in X)


class TestHonestGrads:
    """honest_grads is the honest rows of grads, byte for byte, at a point
    (h, d) and at a (K, d) stack (K, h, d); K = 64 and 65 straddle the
    metrics pass's chunk."""

    @given(st.integers(1, 9), st.integers(0, 4), st.integers(1, 5),
           st.sampled_from([None, 1, 2, 64, 65]), st.integers(0, 99))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_quadratic_rows_in_honest_order(self, n, b, d, K, seed):
        # the honest ids are a random subset, mostly not a prefix
        b = min(b, (n - 1) // 2)
        gen = np.random.default_rng(seed)
        honest = sorted(gen.choice(n, size=n - b, replace=False).tolist())
        inst = replace(build_random_quadratic_family(n=n, d=d, rng=RngStream(seed, 0, "h")),
                       pop=WorkerPopulation(n=n, b=b, honest_ids=honest))
        x = gen.normal(size=d if K is None else (K, d))
        want = inst.grads(x)[..., honest, :]
        got = inst.honest_grads(x)
        assert got.shape == want.shape == x.shape[:-1] + (n - b, d)
        assert got.tobytes() == want.tobytes()

    @given(st.sampled_from([(0, 1, 2, 3), (0, 2, 3, 5), (1, 2, 4, 5)]),
           st.sampled_from([2, 3, 8]), st.sampled_from([None, 1, 2, 64, 65]),
           st.integers(0, 9))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_classification_rows_equal_the_poisoned_instances_honest_rows(
            self, honest, samples_per_class, K, seed):
        # the label-poisoned copy that a label_flip run steps on keeps the
        # honest shards, so its honest rows are the honest oracle's
        inst = build_classification_task(n_workers=6, b=2, n_classes=3, dim=2,
                                         samples_per_class=samples_per_class, seed=seed,
                                         alpha=0.3)
        inst = replace(inst, pop=WorkerPopulation(n=6, b=2, honest_ids=honest))
        gen = np.random.default_rng(seed)
        x = 3.0 * gen.normal(size=inst.dim if K is None else (K, inst.dim))
        want = inst._poisoned.grads(x)[..., list(honest), :]
        got = inst.honest_grads(x)
        assert got.shape == want.shape == x.shape[:-1] + (4, inst.dim)
        assert got.tobytes() == want.tobytes()


def _instance(kind, seed, scale):
    """One instance of each family the gradient helpers serve."""
    rng = RngStream(seed, 0, "oracle")
    if kind == "random":
        return build_random_quadratic_family(n=5, d=3, rng=rng, b=seed % 2)
    if kind == "hetero":
        return build_hetero_lower_bound(mu=scale, G=scale, B=0.5, d=2)
    if kind == "synthetic":
        return build_synthetic_family(n=9, k=3, a=scale, G=scale, B=0.5, d=2)
    return build_classification_task(n_workers=4, b=1, n_classes=3, dim=2,
                                     samples_per_class=5, seed=seed)


def _old_dissimilarity_gap(instance, G, B, x):
    """dissimilarity_gap as it was: one local_grad per honest worker."""
    ids = instance.pop.honest_sorted()
    gH = reference_grad_f_H(instance, x).values
    lhs = 0.0
    for i in ids:
        diff = reference_local_grad(instance, i, x).values - gH
        lhs += float(np.dot(diff, diff))
    lhs /= len(ids)
    return lhs - (G * G + B * B * float(np.dot(gH, gH)))


class TestRowReads:
    """The rows of grads(x), grad_f_H, dissimilarity_gap (a test copy in
    reference_loop.py reading honest_grads) and stochastic_gradient must
    equal the old per-worker bodies (kept in reference_loop.py) byte for
    byte."""

    @given(st.sampled_from(["random", "hetero", "synthetic", "classification"]),
           st.integers(0, 99), st.integers(-2, 2))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_exact_helpers_equal_the_per_worker_code(self, kind, seed, k):
        scale = 10.0 ** k
        inst = _instance(kind, seed, scale)
        x = DenseVector(scale * np.random.default_rng(seed).normal(size=inst.dim))
        G = inst.grads(x.values)
        for w in range(inst.pop.n):
            assert G[w].tobytes() == reference_local_grad(inst, w, x).values.tobytes()
        assert inst.grad_f_H(x).values.tobytes() == reference_grad_f_H(inst, x).values.tobytes()
        got = dissimilarity_gap(inst, scale, 0.5, x)
        assert got.hex() == _old_dissimilarity_gap(inst, scale, 0.5, x).hex()

    @given(st.sampled_from(["random", "hetero", "synthetic", "classification"]),
           st.integers(0, 99))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_grad_f_H_of_an_array_and_a_stack_equals_the_point_call(self, kind, seed):
        inst = _instance(kind, seed, 1.0)
        X = np.random.default_rng(seed).normal(size=(3, inst.dim))
        stacked = inst.grad_f_H(X)
        assert stacked.shape == X.shape
        for x, row in zip(X, stacked):
            want = inst.grad_f_H(DenseVector(x))
            assert isinstance(want, DenseVector)
            assert inst.grad_f_H(x).tobytes() == row.tobytes() == want.values.tobytes()

    @given(st.sampled_from(["none", "gaussian", "bernoulli_pm", "minibatch"]),
           st.integers(0, 99))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_stochastic_gradient_equals_the_per_worker_code(self, noise, seed):
        if noise == "minibatch":
            inst = _instance("classification", seed, 1.0)
        else:
            inst = with_noise(_instance("random", seed, 1.0), NoiseModel(noise, sigma=0.7))
        x = DenseVector(np.random.default_rng(seed).normal(size=inst.dim))
        for w in inst.pop.honest_sorted():
            got = stochastic_gradient(inst, w, x, RngStream(seed, w, "noise"))
            want = reference_stochastic_gradient(inst, w, x, RngStream(seed, w, "noise"))
            assert got.values.tobytes() == want.values.tobytes()


def test_vecdot_is_row_by_row_np_dot():
    # the metric columns, f_H and the Lyapunov pass rest on this: NumPy's
    # vecdot takes np.dot's inner loop, while @, einsum, inner and
    # (a*b).sum round differently from d = 2 up. (A zero result may differ
    # in sign at d = 1; squared norms and f_H's honest sum cannot show it.)
    rng = np.random.default_rng(0)
    for d in [*range(1, 70), 90, 128, 200, 513]:
        a, b = rng.normal(size=(2, 7, d))
        want = np.array([np.dot(a[i], b[i]) for i in range(7)])
        assert np.vecdot(a, b).tobytes() == want.tobytes(), d
        # broadcast against a stack of rows, as f_H evaluates them
        got = np.vecdot(a[None, :3], b[:, None])
        assert got.tobytes() == np.array(
            [[np.dot(a[j], b[i]) for j in range(3)] for i in range(7)]).tobytes(), d


# ---- the batched softmax oracle ----------------------------------------------


def _written_out_loss_grad(X, y, x, n_classes, dim):
    """The per-worker softmax loss and gradient as written before the batched
    kernel, a fixed reference for its arithmetic."""
    W = x.reshape(n_classes, dim + 1)
    z = X @ W[:, :-1].T + W[:, -1]
    z = z - z.max(axis=1, keepdims=True)
    expz = np.exp(z)
    p = expz / expz.sum(axis=1, keepdims=True)
    m = X.shape[0]
    loss = float(-np.mean(np.log(p[np.arange(m), y] + 1e-300)))
    p[np.arange(m), y] -= 1.0
    p /= m
    return loss, np.concatenate([p.T @ X, p.sum(axis=0)[:, None]], axis=1).reshape(-1)


@st.composite
def shard_tasks(draw):
    """A task with drawn shard sizes (1-30 samples), class count and feature
    dim, a point x, and a generator for minibatch draws."""
    n = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    C = draw(st.integers(2, 10))
    dim = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    task = SyntheticClassificationTask(
        features=tuple(3.0 * rng.standard_normal((k, dim)) for k in sizes),
        labels=tuple(rng.integers(0, C, size=k) for k in sizes),
        n_classes=C, dim=dim)
    x = rng.normal(scale=draw(st.sampled_from([0.1, 1.0, 5.0])), size=task.param_dim)
    return task, x, rng


class TestSoftmaxOracle:
    @given(shard_tasks(), st.integers(1, 8))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_minibatch_pass_equals_per_worker_loss_grad(self, case, m):
        task, x, rng = case
        _, _, starts, sizes, _ = task.shards
        local = np.stack([rng.integers(0, k, size=m) for k in sizes])
        got = task.minibatch_grads(x, starts[:, None] + local)
        assert got.shape == (sizes.size, task.param_dim)
        for w in range(sizes.size):
            loss, want = task.loss_grad(w, x, idx=local[w])
            assert got[w].tobytes() == want.tobytes()
            X, y = task.features[w][local[w]], task.labels[w][local[w]]
            ref_loss, ref = _written_out_loss_grad(X, y, x, task.n_classes, task.dim)
            assert want.tobytes() == ref.tobytes() and loss.hex() == ref_loss.hex()

    @given(shard_tasks())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_full_shard_pass_equals_per_worker_loss_grad(self, case):
        task, x, _ = case
        G = task.grads(x)
        assert G.shape == (len(task.labels), task.param_dim)
        for w in range(len(task.labels)):
            loss, want = task.loss_grad(w, x)
            assert G[w].tobytes() == want.tobytes()
            ref_loss, ref = _written_out_loss_grad(
                task.features[w], task.labels[w], x, task.n_classes, task.dim)
            assert want.tobytes() == ref.tobytes() and loss.hex() == ref_loss.hex()

    @given(shard_tasks(), st.sampled_from([0, 1, 63, 64, 65, 130]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_stacked_points_equal_one_pass_per_point(self, case, K):
        # slice k is grads(X[k]) byte for byte, one-sample shards included
        task, x, rng = case
        X = x * rng.normal(scale=2.0, size=(K, 1)) + rng.standard_normal((K, x.size))
        got = task.grads(X)
        assert got.shape == (K, len(task.labels), task.param_dim)
        want = [task.grads(p) for p in X]
        assert got.tobytes() == (np.stack(want) if K else np.empty(got.shape)).tobytes()

    @given(st.integers(1, 10), st.integers(0, 4), st.integers(0, 31))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_instance_grads_equal_the_per_worker_stack(self, n, b, seed):
        inst = build_classification_task(n_workers=n, b=min(b, (n - 1) // 2), n_classes=4,
                                         dim=3, samples_per_class=2 * n, seed=seed)
        x = np.random.default_rng(seed).normal(size=inst.dim)
        stack = np.stack([reference_local_grad(inst, w, DenseVector(x)).values
                          for w in range(n)])
        assert inst.grads(x).tobytes() == stack.tobytes()

    def test_shards_are_concatenated_on_first_use(self):
        inst = build_classification_task(n_workers=3, n_classes=3, dim=2,
                                         samples_per_class=6)
        x = np.zeros(inst.dim)
        inst.task.loss_grad(0, x)
        assert "shards" not in vars(inst.task)
        inst.grads(x)
        X, y, starts, sizes, _ = vars(inst.task)["shards"]
        for w in range(3):
            assert np.array_equal(X[starts[w]:starts[w] + sizes[w]], inst.task.features[w])
            assert np.array_equal(y[starts[w]:starts[w] + sizes[w]], inst.task.labels[w])


@st.composite
def kernel_cases(draw):
    """A classification instance with drawn class count (2-12), feature dim
    and shard sizes (one-sample shards likely), b Byzantine workers, and a
    point x scaled so that its largest logit magnitude is about 1, 50 or
    700: at 700 the unshifted exp overflows and the shifted one underflows."""
    n = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.one_of(st.just(1), st.integers(1, 30)), min_size=n, max_size=n))
    C = draw(st.integers(2, 12))
    dim = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    task = SyntheticClassificationTask(
        features=tuple(3.0 * rng.standard_normal((k, dim)) for k in sizes),
        labels=tuple(rng.integers(0, C, size=k) for k in sizes),
        n_classes=C, dim=dim)
    inst = ProblemInstance(locals=(), pop=WorkerPopulation(n=n, b=draw(st.integers(0, (n - 1) // 2))),
                           noise=NoiseModel("minibatch", m=8),
                           analytic=Analytic(L=1.0, mu=None, G=None, B=None), task=task)
    x = rng.standard_normal(task.param_dim)
    W = x.reshape(C, dim + 1)
    logits = np.concatenate(task.features) @ W[:, :-1].T + W[:, -1]
    x *= draw(st.sampled_from([1.0, 50.0, 700.0])) / np.abs(logits).max()
    return inst, x, rng


class TestKernelMatchesReference:
    """The in-place softmax kernel and the array label flip give the bytes
    of the kernel and per-sample flip they replaced (reference_loop.py)."""

    @given(kernel_cases(), st.sampled_from([1, 2, 15, 40]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_entry_points_equal_the_reference_kernel(self, case, K):
        inst, x, rng = case
        byz = set(inst.pop.byzantine_ids)
        poisoned, want = inst._poisoned, reference_poisoned_instance(inst, byz)
        for got_y, want_y in zip(poisoned.task.labels, want.task.labels):
            assert got_y.dtype == want_y.dtype and got_y.tobytes() == want_y.tobytes()
            assert got_y.flags.writeable == want_y.flags.writeable
        for task in (inst.task, poisoned.task):
            _, _, starts, sizes, _ = task.shards
            for m in (1, 8):
                idx = starts[:, None] + np.stack([rng.integers(0, k, size=m) for k in sizes])
                assert (task.minibatch_grads(x, idx).tobytes()
                        == reference_minibatch_grads(task, x, idx).tobytes())
            X = x * rng.normal(size=(K, 1)) + rng.normal(scale=np.abs(x).max(), size=(K, x.size))
            for point in (x, X):
                assert task.grads(point).tobytes() == reference_task_grads(task, point).tobytes()
            for w in range(sizes.size):
                for idx in (None, rng.integers(0, sizes[w], size=8)):
                    loss, g = task.loss_grad(w, x, idx)
                    ref_loss, ref = reference_loss_grad(task, w, x, idx)
                    assert loss.hex() == ref_loss.hex() and g.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_a_label_outside_the_classes_is_a_data_error(self, bad):
        # indexing would wrap -1 onto class 2 and fail on 3 only mid-run
        with pytest.raises(DataError, match=r"worker 1: labels must lie in \[0, 3\)"):
            SyntheticClassificationTask(
                features=(np.zeros((2, 1)), np.zeros((2, 1))),
                labels=(np.array([0, 2]), np.array([1, bad])), n_classes=3, dim=1)


@given(kernel_cases(), st.sampled_from([1, 2, 8]), st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
       st.integers(-1, 1))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_minibatch_rows_equal_a_call_on_any_subset_of_them(case, m, scale, offset):
    # trainer.run takes every worker's minibatch, honest and Byzantine, in
    # one minibatch_grads call; each row must keep the bytes of a call on
    # fewer rows. The row count K*m lands on both sides of the column-wise
    # maximum's threshold, near it and far from it.
    inst, x, rng = case
    C = inst.task.n_classes
    K = max(1, math.ceil(scale * _COLUMN_MAX_ROWS_PER_CLASS * C / m) + offset)
    for task in (inst.task, inst._poisoned.task):
        _, _, starts, sizes, _ = task.shards
        w = rng.integers(0, sizes.size, size=K)
        idx = starts[w, None] + np.floor(rng.random((K, m)) * sizes[w, None]).astype(np.int64)
        full = task.minibatch_grads(x, idx)
        subset = np.sort(rng.choice(K, size=rng.integers(1, K + 1), replace=False))
        for rows in (subset, rng.integers(0, K, size=1)):
            assert task.minibatch_grads(x, idx[rows]).tobytes() == full[rows].tobytes()
