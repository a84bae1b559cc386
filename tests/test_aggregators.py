import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from robustsgd.aggregators import (
    AggregatorSpec,
    OracleContext,
    aggregate,
    average,
    cwm,
    cwtm,
    estimate_kappa,
    geometric_median,
    krum,
    multi_krum,
    oracle_adversarial,
)
from robustsgd.attacks import DEFAULT_ALIE_CANDIDATES
from robustsgd.core import ConfigurationError, DenseVector, NumericFailure, RngStream
from robustsgd.problems import build_hetero_lower_bound, build_noise_lower_bound

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=64)


@st.composite
def update_family(draw, min_n=3, max_n=6, max_d=3):
    n = draw(st.integers(min_n, max_n))
    d = draw(st.integers(1, max_d))
    rows = draw(
        st.lists(
            st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n
        )
    )
    return [DenseVector(r) for r in rows]


def _specs_for(n):
    """Every honest-set-blind rule instantiated legally for n inputs."""
    out = [AggregatorSpec(rule="average", n=n)]
    b = (n - 1) // 2
    if n - b - 1 >= 1:
        out.append(AggregatorSpec(rule="krum", n=n, b=b))
        out.append(AggregatorSpec(rule="multi_krum", n=n, b=b, q=min(2, n)))
    if n - 2 >= 1:
        out.append(AggregatorSpec(rule="cwtm", n=n, q=1))
    out.append(AggregatorSpec(rule="cwm", n=n))
    out.append(AggregatorSpec(rule="gm", n=n))
    return out


def _assert_krum_choice_near_optimal(spec, mat, shift, out):
    """out, the krum/multi_krum output on the rows of mat + shift, is the
    mean of q of those rows whose exact scores on mat are within rounding of
    the q smallest.

    Both rules pick by floating-point scores, and a shift or a reordering
    moves near-equal scores across each other, so only this much is
    order- and shift-free. A computed score of the shifted rows differs from
    the exact score on mat by at most tol = 12 K^2 eps M^2, with K = (n-1) d
    terms in the score and M = max|x_i| + max|c|: the shifted difference of
    two coordinates is off by at most 2 eps M, its square (at most 4 M^2) by
    10 eps M^2, and summing K such terms adds at most 2 K^2 eps M^2. A
    square that falls among the subnormals is off by up to 2^-1075 more,
    whatever its size, so tol adds K 2^-1074. Every chosen row scores no
    more than every other row, up to rounding, so in exact scores it is
    within 2 tol of them. With q <= 2 the mean of the chosen rows does not
    depend on their order, so it is compared bitwise.
    """
    n, d = mat.shape
    q = spec.q if spec.rule == "multi_krum" else 1
    assert q <= 2
    exact = []
    for i in range(n):
        d2 = sorted(sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(mat[i], mat[j]))
                    for j in range(n) if j != i)
        exact.append(sum(d2[: n - spec.b - 1]))
    M = Fraction(float(np.abs(mat).max() + np.abs(shift).max()))
    K = (n - 1) * d
    tol = 2 * (12 * K ** 2 * Fraction(np.finfo(float).eps) * M * M + K * Fraction(2.0 ** -1074))
    lowest = sorted(exact)[:q]
    shifted = mat + shift
    for chosen in itertools.combinations(range(n), q):
        if not np.array_equal(shifted[list(chosen)].mean(axis=0), out):
            continue
        if all(s <= f + tol for s, f in zip(sorted(exact[i] for i in chosen), lowest)):
            return
    raise AssertionError(f"{spec.rule} output {out} is no near-optimal choice of rows")


class TestSharedProperties:
    @given(update_family())
    @settings(max_examples=60)
    def test_zero_dispersion_identity(self, ups):
        v = ups[0]
        same = [v] * len(ups)
        for spec in _specs_for(len(ups)):
            out = aggregate(spec, same)
            assert np.allclose(out.values, v.values, atol=1e-12), spec.rule

    @given(update_family(), st.lists(coord, min_size=3, max_size=3))
    @example(  # near-equal Krum scores swap order under the shift
        ups=[DenseVector([0.0]), DenseVector([100.0]), DenseVector([-99.99999999999999])],
        shift3=[-29.0, 0.0, 0.0])
    @settings(max_examples=60, derandomize=True)
    def test_translation_equivariance(self, ups, shift3):
        d = ups[0].dim
        shift = np.array(shift3[:d])
        shifted = [DenseVector(u.values + shift) for u in ups]
        for spec in _specs_for(len(ups)):
            b = aggregate(spec, shifted).values
            if spec.rule in ("krum", "multi_krum"):
                _assert_krum_choice_near_optimal(spec, np.stack([u.values for u in ups]),
                                                 shift, b)
                continue
            a = aggregate(spec, ups).values
            scale = 1.0 + np.abs(a).max() + np.abs(shift).max()
            assert np.allclose(b, a + shift, atol=1e-9 * scale), spec.rule

    @given(update_family(), st.randoms(use_true_random=False))
    @example(  # every computed score underflows to 0, the exact ones do not
        ups=[DenseVector([0.0]), DenseVector([3.31792457812625e-233]), DenseVector([0.0])],
        rnd=random.Random(1))
    @settings(max_examples=40)
    def test_permutation_invariance(self, ups, rnd):
        # krum/multi_krum break exact-score ties by input index, so only the
        # score-optimality of their output is order-free; the other rules
        # must commute with any reordering outright.
        perm = list(range(len(ups)))
        rnd.shuffle(perm)
        permuted = [ups[i] for i in perm]
        for spec in _specs_for(len(ups)):
            b = aggregate(spec, permuted).values
            if spec.rule in ("krum", "multi_krum"):
                _assert_krum_choice_near_optimal(spec, np.stack([u.values for u in permuted]),
                                                 np.zeros(ups[0].dim), b)
                continue
            a = aggregate(spec, ups).values
            assert np.allclose(a, b, atol=1e-9 * (1.0 + np.abs(a).max())), spec.rule

    @given(update_family(), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_krum_score_optimal_under_permutation(self, ups, rnd):
        n = len(ups)
        b = (n - 1) // 2
        assume(n - b - 1 >= 1)
        perm = list(range(n))
        rnd.shuffle(perm)
        permuted = [ups[i] for i in perm]
        mat = np.stack([u.values for u in ups])

        def score_of(v):
            dists = sorted(float(np.sum((v - mat[j]) ** 2)) for j in range(n))
            # drop the self-distance 0 entry, keep the n-b-1 nearest others
            return sum(dists[1 : n - b])

        best = min(score_of(mat[i]) for i in range(n))
        spec = AggregatorSpec(rule="krum", n=n, b=b)
        for family in (ups, permuted):
            out = aggregate(spec, family).values
            assert score_of(out) == pytest.approx(best, rel=1e-12, abs=1e-12)

    @given(update_family())
    @settings(max_examples=60)
    def test_coordinatewise_rules_stay_in_range(self, ups):
        mat = np.stack([u.values for u in ups])
        lo, hi = mat.min(axis=0), mat.max(axis=0)
        n = len(ups)
        outs = [cwm(mat)]
        if n - 2 >= 1:
            outs.append(cwtm(mat, q=1))
        for out in outs:
            assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


class TestKrum:
    def test_output_is_an_input(self):
        gen = np.random.default_rng(0)
        for _ in range(20):
            mat = gen.normal(size=(5, 2))
            out = krum(mat, b=1)
            assert any(np.array_equal(out, r) for r in mat)

    @given(update_family(min_n=3, max_n=6))
    @settings(max_examples=50)
    def test_matches_bruteforce_scores(self, ups):
        n = len(ups)
        b = (n - 1) // 2
        assume(n - b - 1 >= 1)
        mat = np.stack([u.values for u in ups])
        scores = []
        for i in range(n):
            dists = sorted(
                float(np.sum((mat[i] - mat[j]) ** 2)) for j in range(n) if j != i
            )
            scores.append(sum(dists[: n - b - 1]))
        expect = mat[int(np.argmin(scores))]
        assert np.array_equal(krum(mat, b), expect)

    def test_multi_krum_q1_is_krum(self):
        gen = np.random.default_rng(7)
        for _ in range(10):
            mat = gen.normal(size=(6, 3))
            assert np.array_equal(multi_krum(mat, b=2, q=1), krum(mat, b=2))

    def test_multi_krum_qn_b0_is_average(self):
        gen = np.random.default_rng(8)
        mat = gen.normal(size=(5, 2))
        got = multi_krum(mat, b=0, q=5)
        assert np.allclose(got, average(mat), atol=1e-12)

    def test_resists_planted_outliers(self):
        gen = np.random.default_rng(3)
        mat = np.vstack([gen.normal(size=(4, 2)), [1e6, -1e6]])
        out = krum(mat, b=1)
        assert np.max(np.abs(out)) < 10.0


class TestCoordinatewise:
    def test_cwm_even_count_midpoint(self):
        assert cwm(np.array([[1.0], [2.0], [10.0], [20.0]]))[0] == 6.0

    @given(st.integers(1, 21), st.sampled_from([(), (1,), (3,), (2, 2)]),
           st.integers(1, 6), st.integers(0, 2**16), st.booleans())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_cwm_is_bitwise_np_median(self, n, lead, d, seed, nonfinite):
        # values from a small pool make ties and mix +0.0 with -0.0; a
        # nonfinite stack also holds infinities and NaNs
        gen = np.random.default_rng(seed)
        pool = [-0.0, 0.0, 1.0, -1.0, 0.5, 2.0 ** -1074, 1e300, -3.25]
        if nonfinite:
            pool += [np.inf, -np.inf, np.nan]
        mat = gen.choice(pool, size=lead + (n, d))
        mat[gen.random(mat.shape) < 0.3] = gen.standard_normal()
        assert cwm(mat).tobytes() == np.median(mat, axis=-2).tobytes()

    def test_cwtm_drops_extremes(self):
        assert cwtm(np.array([[-1e9], [1.0], [2.0], [3.0], [1e9]]), q=1)[0] == 2.0

    def test_cwtm_trim_too_large_rejected(self):
        # the spec is the one place that checks the trim
        with pytest.raises(ConfigurationError, match="n - 2q >= 1"):
            AggregatorSpec(rule="cwtm", n=4, q=2)


class TestGeometricMedian:
    def test_matches_scalar_median_odd(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            pts = gen.normal(scale=3.0, size=7)
            out = geometric_median(pts[:, None])
            assert out[0] == pytest.approx(float(np.median(pts)), abs=1e-6)

    def test_outlier_insensitivity(self):
        out = geometric_median(np.array([[0.0, 0.0]] * 4 + [[1e8, 1e8]]))
        assert np.max(np.abs(out)) < 1.0

    def test_iteration_and_smoothing_validation(self):
        # the spec is the one place that checks iters and nu
        with pytest.raises(ConfigurationError, match="iters >= 1"):
            AggregatorSpec(rule="gm", n=3, iters=0)
        with pytest.raises(ConfigurationError, match="nu > 0"):
            AggregatorSpec(rule="gm", n=3, nu=0.0)


class TestOracleAdversarial:
    def test_variance_sign_ratio_is_exactly_kappa(self):
        gen = np.random.default_rng(11)
        for kappa in (0.0, 0.05, 0.3, 1.0):
            for _ in range(10):
                mat = gen.normal(size=(5, 3))
                ctx = OracleContext(
                    x=DenseVector(gen.normal(size=3)),
                    x_star=DenseVector(np.zeros(3)),
                )
                out = oracle_adversarial(mat, range(5), kappa, "variance_sign", ctx)
                mean = mat.mean(axis=0)
                disp = float(((mat - mean) ** 2).sum(axis=1).mean())
                dev = float(np.sum((out - mean) ** 2))
                assert dev == pytest.approx(kappa * disp, rel=1e-10, abs=1e-12)

    def test_variance_sign_pushes_away_from_x_star(self):
        mat = np.array([[1.0], [3.0]])
        ctx = OracleContext(x=DenseVector([0.5]), x_star=DenseVector([0.0]))
        out = oracle_adversarial(mat, [0, 1], 0.25, "variance_sign", ctx)
        # mean 2, dispersion 1, deviation -sqrt(0.25)*u with u = +1
        assert out[0] == pytest.approx(1.5, abs=1e-14)

    def test_variance_sign_at_optimum_uses_first_axis(self):
        mat = np.array([[1.0, 0.0], [3.0, 0.0]])
        ctx = OracleContext(x=DenseVector([0.0, 0.0]), x_star=DenseVector([0.0, 0.0]))
        out = oracle_adversarial(mat, [0, 1], 1.0, "variance_sign", ctx)
        assert out == pytest.approx([3.0, 0.0])

    def test_hetero_c1_drift_identity(self):
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5, kappa=0.1)
        x = DenseVector([0.7])
        mat = inst.grads(x.values)
        ctx = OracleContext(x=x, x_star=inst.analytic.x_star, instance=inst)
        out = oracle_adversarial(mat, [0, 1], 0.1, "hetero_c1", ctx)
        mean = 0.5 * (mat[0] + mat[1])
        expect = mean - math.sqrt(0.1) * (mat[0] - mean)
        assert out == pytest.approx(expect, abs=0)

    def test_hetero_c1_requires_its_construction(self):
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0)
        ctx = OracleContext(x=DenseVector([0.0]), instance=inst)
        with pytest.raises(ConfigurationError, match="heterogeneous construction"):
            oracle_adversarial(np.zeros((2, 1)), [0, 1], 0.1, "hetero_c1", ctx)

    def test_noise_c2_reconstructs_coins(self):
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0)
        x = DenseVector([0.4])
        mu, B, sigma = 1.0, 0.5, 1.0
        g1, g2 = inst.grads(x.values)[:, 0]
        ctx = OracleContext(x=x, instance=inst)
        # coins (0, 1): W = B*mu*x + sigma
        mat = np.array([[g1 + sigma], [g2 - sigma]])
        out = oracle_adversarial(mat, [0, 1], 0.09, "noise_c2", ctx)
        mean = 0.5 * (mat[0, 0] + mat[1, 0])
        expect = mean - 0.3 * (B * mu * 0.4 + sigma)
        assert out[0] == pytest.approx(expect, abs=1e-14)
        # coins (1, 1): W = B*mu*x
        mat = np.array([[g1 - sigma], [g2 - sigma]])
        out = oracle_adversarial(mat, [0, 1], 0.09, "noise_c2", ctx)
        mean = 0.5 * (mat[0, 0] + mat[1, 0])
        assert out[0] == pytest.approx(mean - 0.3 * B * mu * 0.4, abs=1e-14)

    def test_noise_c2_rejects_blended_submissions(self):
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0)
        x = DenseVector([0.4])
        ctx = OracleContext(x=x, instance=inst)
        with pytest.raises(ConfigurationError, match="reconstruct the coin"):
            oracle_adversarial(np.array([[0.123], [0.456]]), [0, 1], 0.09, "noise_c2", ctx)

    @pytest.mark.parametrize("x", [np.zeros(9), np.linspace(-1.0, 2.0, 9)],
                             ids=["at_x_star", "away"])
    def test_a_subset_array_answers_each_subset_as_alone(self, x):
        # h = 10 and d = 9 reach past NumPy's 8-wide pairwise unrolling
        spec = AggregatorSpec(rule="oracle_adversarial", n=12, b=2, kappa=0.3,
                              variant="variance_sign")
        mat = np.random.default_rng(12).normal(size=(12, 9)) * np.geomspace(1e-3, 1e3, 9)
        ctx = OracleContext(x=x, x_star=np.zeros(9))
        subsets = np.array(list(itertools.combinations(range(12), 10)), dtype=np.intp)
        out = aggregate(spec, mat, honest_ids=subsets, context=ctx)
        assert out.shape == (len(subsets), 9)
        for row, honest in zip(out, subsets):
            alone = aggregate(spec, [DenseVector(r) for r in mat], honest_ids=honest.tolist(),
                              context=ctx)
            assert row.tobytes() == alone.values.tobytes()

    @pytest.mark.parametrize("variant", ["hetero_c1", "noise_c2"])
    def test_construction_variants_refuse_a_subset_array(self, variant):
        # only variance_sign takes S honest subsets; here S = 2 = the count they need
        inst = (build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5) if variant == "hetero_c1"
                else build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0))
        ctx = OracleContext(x=DenseVector([0.4]), instance=inst)
        mat = inst.grads(np.array([0.4])) + np.array([[1.0], [-1.0]])
        with pytest.raises(ConfigurationError, match="two honest workers|two-worker instance"):
            oracle_adversarial(mat, np.array([[0, 1], [0, 1]]), 0.1, variant, ctx)


@st.composite
def stacked_case(draw):
    """An (R, n, d) stack with tied rows and tied coordinates mixed in, plus
    b and the q values of multi_krum and cwtm."""
    n = draw(st.integers(3, 12))
    d = draw(st.integers(1, 4))
    R = draw(st.integers(1, 4))
    pool = draw(st.lists(coord, min_size=1, max_size=3))
    entries = draw(st.lists(st.one_of(coord, st.sampled_from(pool)),
                            min_size=R * n * d, max_size=R * n * d))
    stack = np.array(entries, dtype=np.float64).reshape(R, n, d)
    for r in range(R):
        if draw(st.booleans()):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            stack[r, i] = stack[r, j]
    b = draw(st.integers(0, (n - 1) // 2))
    return stack, b, draw(st.integers(1, n)), draw(st.integers(1, (n - 1) // 2))


def _stacked_specs(n, b, q_krum, q_trim):
    """(spec, honest_ids) for every rule that takes arbitrary inputs."""
    return [
        (AggregatorSpec(rule="average", n=n, b=b), None),
        (AggregatorSpec(rule="krum", n=n, b=b), None),
        (AggregatorSpec(rule="multi_krum", n=n, b=b, q=q_krum), None),
        (AggregatorSpec(rule="cwm", n=n, b=b), None),
        (AggregatorSpec(rule="cwtm", n=n, b=b, q=q_trim), None),
        (AggregatorSpec(rule="gm", n=n, b=b), None),
        (AggregatorSpec(rule="oracle_adversarial", n=n, b=b, kappa=0.3,
                        variant="variance_sign"), list(range(n - b))),
    ]


def _assert_rows_match_single(spec, stack, honest_ids=None, ctx=None):
    """Each input of an (..., n, d) stack, aggregated alone from a list,
    gives the bytes of its row of the stacked output."""
    n, d = stack.shape[-2:]
    outs = aggregate(spec, stack, honest_ids=honest_ids, context=ctx)
    assert outs.shape == stack.shape[:-2] + (d,)
    for r, rows in enumerate(stack.reshape(-1, n, d)):
        single = aggregate(spec, [DenseVector(v) for v in rows],
                           honest_ids=honest_ids, context=ctx).values
        assert outs.reshape(-1, d)[r].tobytes() == single.tobytes(), (spec.rule, r)


class TestStackedInputs:
    @given(stacked_case(), st.sampled_from([0, 1]))
    @settings(max_examples=80, deadline=None)
    def test_rows_bitwise_equal_single_inputs(self, case, at_optimum):
        stack, b, q_krum, q_trim = case
        n, d = stack.shape[1:]
        x = np.zeros(d) if at_optimum else np.linspace(1.0, 2.0, d)
        ctx = OracleContext(x=DenseVector(x), x_star=DenseVector(np.zeros(d)))
        for spec, honest_ids in _stacked_specs(n, b, q_krum, q_trim):
            _assert_rows_match_single(spec, stack, honest_ids, ctx)

    @given(stacked_case(), st.sampled_from([np.inf, -np.inf, np.nan]))
    @settings(max_examples=30, deadline=None)
    def test_non_finite_entries_raise_on_both_paths(self, case, bad):
        stack, b, q_krum, q_trim = case
        n, d = stack.shape[1:]
        stack[-1, n - 1, d - 1] = bad
        ctx = OracleContext(x=DenseVector(np.ones(d)), x_star=DenseVector(np.zeros(d)))
        for spec, honest_ids in _stacked_specs(n, b, q_krum, q_trim):
            with pytest.raises(NumericFailure):
                aggregate(spec, stack, honest_ids=honest_ids, context=ctx)
            with pytest.raises(NumericFailure):
                aggregate(spec, [DenseVector(v) for v in stack[-1]],
                          honest_ids=honest_ids, context=ctx)

    @given(st.lists(st.lists(coord, min_size=2, max_size=2), min_size=1, max_size=4),
           st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_hetero_c1_rows_bitwise_equal_single_inputs(self, rows, kappa):
        inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5)
        spec = AggregatorSpec(rule="oracle_adversarial", n=2, kappa=kappa,
                              variant="hetero_c1")
        ctx = OracleContext(x=DenseVector([0.7]), x_star=inst.analytic.x_star,
                            instance=inst)
        stack = np.array(rows).reshape(len(rows), 2, 1)
        _assert_rows_match_single(spec, stack, [0, 1], ctx)

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=6),
           st.floats(0.0, 1.0), st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_noise_c2_rows_bitwise_equal_single_inputs(self, coins, kappa, x):
        sigma = 0.7
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=sigma)
        spec = AggregatorSpec(rule="oracle_adversarial", n=2, kappa=kappa,
                              variant="noise_c2")
        X = DenseVector([x])
        ctx = OracleContext(x=X, instance=inst)
        g = inst.grads(X.values)[:, 0]
        stack = np.array([[[g[0] + (-sigma if c0 else sigma)],
                           [g[1] + (-sigma if c1 else sigma)]] for c0, c1 in coins])
        _assert_rows_match_single(spec, stack, [0, 1], ctx)

    @pytest.mark.parametrize("x", [-1.3, 0.0, 0.4])
    def test_oracle_rules_take_the_model_and_honest_ids_as_arrays(self, x):
        # the training loop passes x as a (d,) array and the honest ids as a
        # sorted index array; both must answer as a DenseVector and a list do
        sigma = 0.7
        inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=sigma)
        g = inst.grads(np.array([x]))[:, 0]
        stack = np.array([[[g[0] + s0], [g[1] + s1]]
                          for s0 in (-sigma, sigma) for s1 in (-sigma, sigma)])
        ids = np.array([0, 1], dtype=np.intp)
        for variant, x_star in (("noise_c2", None), ("variance_sign", inst.analytic.x_star)):
            spec = AggregatorSpec(rule="oracle_adversarial", n=2, kappa=0.3, variant=variant)
            want = aggregate(spec, stack, honest_ids=[1, 0], context=OracleContext(
                x=DenseVector([x]), x_star=x_star, instance=inst))
            got = aggregate(spec, stack, honest_ids=ids, context=OracleContext(
                x=np.array([x]), x_star=x_star, instance=inst))
            assert got.tobytes() == want.tobytes(), variant

    def test_stack_must_hold_n_updates(self):
        spec = AggregatorSpec(rule="cwm", n=4)
        with pytest.raises(ConfigurationError, match="expected 4"):
            aggregate(spec, np.zeros((2, 3, 1)))


@st.composite
def small_int_stack(draw):
    """An (R, n, d) stack of small integers, whose Weiszfeld iterates often
    cycle within a few dozen rounds."""
    R, n, d = draw(st.integers(1, 3)), draw(st.integers(3, 6)), draw(st.integers(1, 3))
    entries = draw(st.lists(st.integers(-9, 9), min_size=R * n * d, max_size=R * n * d))
    return np.array(entries, dtype=np.float64).reshape(R, n, d)


def _fixed_round_gm(mat, iters=50, nu=1e-8):
    """geometric_median as it was before it stopped at a cycle: every one of
    the `iters` rounds is run (the loop verbatim)."""
    v = mat.mean(axis=-2)
    for _ in range(iters):
        dist = np.sqrt(((mat - v[..., None, :]) ** 2).sum(axis=-1))
        beta = 1.0 / np.maximum(nu, dist)
        v = (beta[..., None] * mat).sum(axis=-2) / beta.sum(axis=-1, keepdims=True)
    return v


def _first_repeat(mat, rounds):
    """(j, p) such that the iterate of round j + p is the first to repeat an
    earlier one byte for byte, that of round j; None if none does within
    `rounds` rounds. The iterates are those of _fixed_round_gm."""
    first = {}
    for i in range(rounds + 1):
        j = first.setdefault(_fixed_round_gm(mat, i).tobytes(), i)
        if j != i:
            return j, i - j
    return None


# integer inputs whose Weiszfeld iterates first repeat at (j, p): the
# iterate of round j + p equals that of round j
PINNED_CYCLES = [
    ([[-4.0], [6.0], [-5.0], [-2.0], [3.0]], (8, 1)),
    ([[3.0], [-6.0], [9.0], [1.0]], (0, 2)),
    ([[6.0, -7.0, -6.0], [9.0, 6.0, -2.0], [4.0, -8.0, 5.0], [-6.0, 4.0, 8.0],
      [8.0, -9.0, 1.0], [8.0, -6.0, 5.0]], (46, 3)),
    ([[0.0, -7.0, -4.0], [-6.0, -6.0, -1.0], [-8.0, -5.0, -8.0], [9.0, 9.0, 2.0],
      [-3.0, -1.0, 9.0], [-8.0, 3.0, -7.0]], (43, 4)),
    ([[-4.0, 1.0], [8.0, -4.0], [4.0, -6.0]], (287, 1)),  # past the default 50
]


class TestWeiszfeldCycleStop:
    """geometric_median stops at the first exact repeat of its iterates and
    reads the round-`iters` iterate off the cycle; the bytes must be those
    of running every round."""

    @given(st.one_of(stacked_case().map(lambda case: case[0]), small_int_stack()))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_bitwise_equal_to_every_round(self, stack):
        for iters in (1, 2, 3, 50, 200):
            for mat in (stack, stack[0]):  # stacked and single input
                assert (geometric_median(mat, iters).tobytes()
                        == _fixed_round_gm(mat, iters).tobytes()), iters

    @pytest.mark.parametrize("rows,cycle", PINNED_CYCLES)
    def test_pinned_cycles(self, rows, cycle):
        mat = np.array(rows)
        j, p = cycle
        assert _first_repeat(mat, j + p) == cycle
        for iters in sorted({1, 2, 3, j + 1, j + p, j + p + 1, 50, j + 7 * p + 2}):
            assert (geometric_median(mat, iters).tobytes()
                    == _fixed_round_gm(mat, iters).tobytes()), iters

    def test_cycle_ends_the_rounds(self, monkeypatch):
        # identical rows repeat by round 2, so a million rounds cost two
        mat = np.full((5, 3), 0.1)
        want = _fixed_round_gm(mat, 2)
        calls = []
        sqrt = np.sqrt
        monkeypatch.setattr(np, "sqrt",
                            lambda *args, **kwargs: calls.append(1) or sqrt(*args, **kwargs))
        out = geometric_median(mat, iters=10**6)
        assert len(calls) <= 2
        assert out.tobytes() == want.tobytes()


class TestPairwiseSumBoundary:
    """NumPy sums a contiguous axis of 8 or more entries pairwise and a
    strided one in order, so gm's layout decides its bits once n or d
    reaches 8. Pinned shapes on both sides of that edge; at d = 1 the
    input's n axis is the contiguous one."""

    @pytest.mark.parametrize("lead", [(), (1,), (6,), (2, 3)], ids=str)
    @pytest.mark.parametrize("d", [1, 2, 9, 10])
    @pytest.mark.parametrize("n", [8, 9, 17, 20])
    def test_gm_is_every_round_and_rows_are_single_inputs(self, n, d, lead):
        stack = np.random.default_rng([n, d, *lead]).normal(size=lead + (n, d))
        for iters in (1, 2, 50):
            assert (geometric_median(stack, iters).tobytes()
                    == _fixed_round_gm(stack, iters).tobytes()), iters
            _assert_rows_match_single(AggregatorSpec(rule="gm", n=n, iters=iters), stack)

    def test_alie_probe_stack(self):
        # the (6, 20, 10) stack alie's probe hands gm: 16 honest rows, and in
        # each candidate's 4 Byzantine slots one probe vector
        honest = np.random.default_rng(31).normal(size=(16, 10))
        mu = honest.mean(axis=0)
        sigma_dev = math.sqrt(((honest - mu) ** 2).sum())
        stack = np.empty((6, 20, 10))
        stack[...] = (mu + np.array(DEFAULT_ALIE_CANDIDATES)[:, None] * sigma_dev)[:, None]
        stack[:, 4:] = honest
        for iters in (1, 2, 50):
            assert (geometric_median(stack, iters).tobytes()
                    == _fixed_round_gm(stack, iters).tobytes()), iters
            _assert_rows_match_single(AggregatorSpec(rule="gm", n=20, iters=iters), stack)


class TestDispatchContract:
    def test_update_count_must_match(self):
        spec = AggregatorSpec(rule="average", n=4)
        with pytest.raises(ConfigurationError, match="expected 4"):
            aggregate(spec, [DenseVector([1.0])] * 3)

    def test_ordinary_rules_are_honest_blind(self):
        spec = AggregatorSpec(rule="cwm", n=3)
        ups = [DenseVector([1.0])] * 3
        with pytest.raises(ConfigurationError, match="must not receive honest_ids"):
            aggregate(spec, ups, honest_ids=[0, 1])

    def test_oracle_requires_honest_ids(self):
        spec = AggregatorSpec(rule="oracle_adversarial", n=3, kappa=0.1,
                              variant="variance_sign")
        ups = [DenseVector([1.0])] * 3
        with pytest.raises(ConfigurationError, match="requires honest_ids"):
            aggregate(spec, ups)

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(rule="nonsense", n=3), "unknown aggregation rule"),
            (dict(rule="average", n=4, b=2), "b < n/2"),
            (dict(rule="multi_krum", n=5, b=1), "1 <= q <= n"),
            (dict(rule="cwtm", n=4, q=2), "n - 2q >= 1"),
            (dict(rule="gm", n=3, iters=0), "iters >= 1"),
            (dict(rule="oracle_adversarial", n=3), "kappa >= 0"),
            (dict(rule="oracle_adversarial", n=3, kappa=0.1, variant="bogus"),
             "variant must be one of"),
        ],
    )
    def test_spec_validation(self, kwargs, msg):
        with pytest.raises(ConfigurationError, match=msg):
            AggregatorSpec(**kwargs)


def _brute_force_kappa(spec, samples, rng, dim=2):
    """estimate_kappa's sampling with the rule applied afresh to every
    honest subset, through the DenseVector boundary: (kappa_hat,
    worst_case_input, violation)."""
    n, b = spec.n, spec.b
    h = n - b
    gen = rng.generator
    all_subsets = None
    if math.comb(n, h) <= 120:
        all_subsets = [list(c) for c in itertools.combinations(range(n), h)]
    best, worst, violation = 0.0, None, False
    for s in range(samples):
        scale = (0.1, 1.0, 10.0)[(s // 3) % 3]
        mat = scale * gen.standard_normal((n, dim))
        if s % 3 == 1 and b >= 1:
            direction = gen.standard_normal(dim)
            direction /= math.sqrt(float(np.dot(direction, direction)))
            mat[n - b:] = (1.0, 1e3, 1e6)[(s // 9) % 3] * direction
        elif s % 3 == 2:
            mat = np.zeros((n, dim))
            for i in range(n):
                mat[i, i % dim] = scale * (1 + i)
        context = None
        if spec.honest_aware:
            context = OracleContext(x=DenseVector(gen.standard_normal(dim)),
                                    x_star=DenseVector(np.zeros(dim)))
        subsets = all_subsets or [sorted(gen.choice(n, size=h, replace=False).tolist())
                                  for _ in range(32)]
        for honest in subsets:
            out = aggregate(spec, [DenseVector(r) for r in mat], context=context,
                            honest_ids=honest if spec.honest_aware else None)
            hm = mat[honest]
            mean = hm.mean(axis=0)
            disp = float(((hm - mean) ** 2).sum(axis=1).mean())
            dev = out.values - mean
            num = float(np.dot(dev, dev))
            r = (math.inf if num > 1e-24 else 0.0) if disp == 0.0 else num / disp
            violation |= math.isinf(r)
            if r > best or worst is None:
                best, worst = r, {"inputs": mat.tolist(), "honest_ids": list(honest)}
    return best, worst, violation


class TestEstimateKappa:
    @pytest.mark.parametrize("n,b", [(5, 2), (12, 5)])  # every subset; 32 drawn ones
    @pytest.mark.parametrize("rule,extra", [
        ("average", {}), ("krum", {}), ("multi_krum", {"q": 3}), ("cwm", {}),
        ("cwtm", {"q": 2}), ("gm", {}),
        ("oracle_adversarial", {"kappa": 0.3, "variant": "variance_sign"}),
    ])
    def test_matches_brute_force_per_subset(self, monkeypatch, rule, extra, n, b):
        import robustsgd.aggregators as aggregators_mod

        shapes = []
        original = aggregators_mod.aggregate

        def counting(spec, updates, honest_ids=None, context=None):
            shapes.append(np.shape(honest_ids))
            return original(spec, updates, honest_ids=honest_ids, context=context)

        monkeypatch.setattr(aggregators_mod, "aggregate", counting)
        spec = AggregatorSpec(rule=rule, n=n, b=b, **extra)
        est = estimate_kappa(spec, samples=27, rng=RngStream(5, 0, "k"))
        # one call per sample; the oracle rule takes every honest subset in it
        count = math.comb(n, n - b) if math.comb(n, n - b) <= 120 else 32
        assert shapes == [(count, n - b) if spec.honest_aware else ()] * 27
        kappa_hat, worst, violation = _brute_force_kappa(spec, 27, RngStream(5, 0, "k"))
        assert est.kappa_hat.hex() == kappa_hat.hex()
        assert est.worst_case_input == worst
        assert est.violation == violation

    def test_oracle_recovers_declared_kappa(self):
        spec = AggregatorSpec(rule="oracle_adversarial", n=5, b=0, kappa=0.4,
                              variant="variance_sign")
        est = estimate_kappa(spec, samples=100, rng=RngStream(1, 0, "k"))
        assert est.kappa_hat == pytest.approx(0.4, abs=1e-10)
        assert not est.violation

    def test_average_with_b0_is_perfectly_robust(self):
        spec = AggregatorSpec(rule="average", n=5, b=0)
        est = estimate_kappa(spec, samples=60, rng=RngStream(2, 0, "k"))
        assert est.kappa_hat == pytest.approx(0.0, abs=1e-20)

    def test_robust_rules_have_bounded_ratio_under_outliers(self):
        for rule, extra in (("krum", {}), ("cwm", {}), ("cwtm", {"q": 2}),
                            ("gm", {})):
            spec = AggregatorSpec(rule=rule, n=7, b=2, **extra)
            est = estimate_kappa(spec, samples=90, rng=RngStream(3, 0, "k"))
            assert math.isfinite(est.kappa_hat), rule
            assert not est.violation, rule

    def test_construction_bound_variants_refused(self):
        spec = AggregatorSpec(rule="oracle_adversarial", n=2, b=0, kappa=0.1,
                              variant="hetero_c1")
        with pytest.raises(ConfigurationError, match="variance_sign"):
            estimate_kappa(spec, samples=5)
