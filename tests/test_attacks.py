import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustsgd.aggregators import AggregatorSpec, OracleContext, aggregate
from robustsgd.attacks import (
    DEFAULT_ALIE_CANDIDATES,
    AdversaryView,
    AttackSpec,
    alie,
    label_flip,
    sign_flip,
)
from robustsgd.core import ConfigurationError, DataError, DenseVector
from reference_loop import reference_alie

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _reference_alie(view, cands):
    """Per-candidate ALIE: one aggregate call for each candidate alpha.
    Returns the chosen alpha, every candidate's score and the server's
    output on the winning input."""
    honest = list(view.honest_updates)
    hmat = np.stack([u.values for u in honest])
    mu = hmat.mean(axis=0)
    sigma_dev = math.sqrt(float(((hmat - mu) ** 2).sum()))
    honest_ids = [int(i) for i in view.honest_ids]
    spec = view.aggregator
    byz_ids = sorted(set(range(spec.n)) - set(honest_ids))
    best_alpha, best_out, best_score, scores = None, None, -1.0, []
    for alpha in cands:
        g = DenseVector(mu + alpha * sigma_dev)
        full = [None] * spec.n
        for i, u in zip(honest_ids, honest):
            full[i] = u
        for j in byz_ids:
            full[j] = g
        out = aggregate(spec, full,
                        honest_ids=honest_ids if spec.honest_aware else None,
                        context=view.context)
        dev = out.values - mu
        score = math.sqrt(float(np.dot(dev, dev)))
        scores.append(score)
        if score > best_score:
            best_alpha, best_out, best_score = alpha, out.values, score
    return best_alpha, scores, best_out


def _output_on(view, crafted):
    """The server's output with `crafted` in every Byzantine slot."""
    spec = view.aggregator
    honest_ids = [int(i) for i in view.honest_ids]
    full = [crafted] * spec.n
    for i, u in zip(honest_ids, view.honest_updates):
        full[i] = DenseVector(u)
    return aggregate(spec, full, honest_ids=honest_ids if spec.honest_aware else None,
                     context=view.context)


class TestSignFlip:
    @given(st.lists(coord, min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_involution(self, vals):
        g = DenseVector(vals)
        assert sign_flip(sign_flip(g)) == g

    @given(st.lists(coord, min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_is_exact_negation(self, vals):
        g = DenseVector(vals)
        assert np.array_equal(sign_flip(g).values, -np.asarray(vals))


class TestLabelFlip:
    @given(st.integers(0, 9))
    def test_involution_ten_classes(self, y):
        sample = ("feat", y)
        flipped = label_flip(sample, n_classes=10)
        assert flipped[1] == 9 - y
        assert label_flip(flipped, n_classes=10)[1] == y

    def test_features_pass_through_untouched(self):
        feats = np.array([1.0, 2.0])
        out_feats, _ = label_flip((feats, 3), n_classes=10)
        assert out_feats is feats

    @pytest.mark.parametrize("y,C", [(-1, 10), (10, 10), (5, 3)])
    def test_out_of_range_label_rejected(self, y, C):
        with pytest.raises(DataError, match="out of range"):
            label_flip(("f", y), n_classes=C)

    def test_two_classes(self):
        assert label_flip(("f", 0), n_classes=2)[1] == 1
        assert label_flip(("f", 1), n_classes=2)[1] == 0

    @given(st.lists(st.integers(0, 6), max_size=12))
    def test_label_array_flips_as_each_label(self, ys):
        y = np.array(ys, dtype=np.int64)
        _, flipped = label_flip(("f", y), n_classes=7)
        assert flipped.dtype == np.int64 and flipped is not y
        assert flipped.tolist() == [label_flip(("f", v), n_classes=7)[1] for v in ys]

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_label_array_out_of_range_rejected(self, bad):
        with pytest.raises(DataError, match=f"label {bad} out of range"):
            label_flip(("f", np.array([0, 3, bad, 6])), n_classes=7)


class TestAttackSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown attack kind"):
            AttackSpec(kind="gradient_ascent")

    def test_alie_needs_candidates(self):
        with pytest.raises(ConfigurationError, match="nonempty candidate"):
            AttackSpec(kind="alie", candidate_alphas=())


def _view(honest_rows, rule_spec, honest_ids=None, context=None):
    honest = [DenseVector(r) for r in honest_rows]
    return AdversaryView(
        honest_updates=honest,
        honest_ids=honest_ids or list(range(len(honest))),
        aggregator=rule_spec,
        context=context,
    )


def _alie_specs(n, b):
    return [
        AggregatorSpec(rule="average", n=n, b=b),
        AggregatorSpec(rule="krum", n=n, b=b),
        AggregatorSpec(rule="multi_krum", n=n, b=b, q=n - b),
        AggregatorSpec(rule="cwm", n=n, b=b),
        AggregatorSpec(rule="cwtm", n=n, b=b, q=b),
        AggregatorSpec(rule="gm", n=n, b=b),
        AggregatorSpec(rule="oracle_adversarial", n=n, b=b, kappa=0.5,
                       variant="variance_sign"),
    ]


class TestAlie:
    def test_against_average_picks_largest_magnitude(self):
        # versus the plain mean the deviation is (b/n)*|alpha|*sigma_dev per
        # coordinate, strictly increasing in |alpha|: a candidate with
        # |alpha| = 2 must win
        spec = AggregatorSpec(rule="average", n=5, b=0)
        view = _view([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], rule_spec=spec)
        out = alie(view).values
        hmat = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        mu = hmat.mean(axis=0)
        sigma_dev = math.sqrt(((hmat - mu) ** 2).sum())
        chosen_alpha = (out - mu)[0] / sigma_dev
        assert abs(chosen_alpha) == pytest.approx(2.0, rel=1e-12)

    def test_tie_goes_to_first_listed_candidate(self):
        spec = AggregatorSpec(rule="average", n=4, b=0)
        view = _view([[0.0], [2.0]], rule_spec=spec)
        out = alie(view).values
        mu, sigma_dev = 1.0, math.sqrt(2.0)
        # +/-2 score identically against the mean; -2 is listed first
        assert out[0] == pytest.approx(mu - 2.0 * sigma_dev, rel=1e-12)

    def test_zero_dispersion_is_inert(self):
        spec = AggregatorSpec(rule="average", n=3, b=0)
        view = _view([[1.5, -2.0], [1.5, -2.0]], rule_spec=spec)
        assert np.allclose(alie(view).values, [1.5, -2.0], atol=0)

    def test_matches_independent_greedy_replay(self):
        gen = np.random.default_rng(17)
        for rule, kw in (("cwm", {}), ("krum", {"b": 2}), ("cwtm", {"q": 1}),
                         ("gm", {})):
            spec = AggregatorSpec(rule=rule, n=6, **kw)
            rows = gen.normal(size=(4, 2))
            view = _view(rows.tolist(), rule_spec=spec)
            got = alie(view).values

            mu = rows.mean(axis=0)
            sigma_dev = math.sqrt(((rows - mu) ** 2).sum())
            best, best_score = None, -1.0
            for a in DEFAULT_ALIE_CANDIDATES:
                g = DenseVector(mu + a * sigma_dev)
                full = [DenseVector(r) for r in rows] + [g, g]
                out = aggregate(spec, full).values
                score = float(np.linalg.norm(out - mu))
                if score > best_score:
                    best_score, best = score, mu + a * sigma_dev
            assert np.array_equal(got, best), rule

    def test_custom_candidates_respected(self):
        spec = AggregatorSpec(rule="average", n=4, b=0)
        view = _view([[0.0], [2.0]], rule_spec=spec)
        out = alie(view, candidate_alphas=(0.5, -7.0)).values
        assert out[0] == pytest.approx(1.0 - 7.0 * math.sqrt(2.0), rel=1e-12)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_choice_matches_per_candidate_reference(self, b, extra, d, cands, data):
        n = 2 * b + extra
        rows = np.array(data.draw(st.lists(coord, min_size=(n - b) * d,
                                           max_size=(n - b) * d)))
        rows = rows.reshape(n - b, d)
        if data.draw(st.booleans()):
            rows = np.round(rows / 1e5)  # ties among honest coordinates
        honest_ids = sorted(data.draw(st.permutations(range(n)))[: n - b])
        ctx = OracleContext(x=DenseVector(np.ones(d)), x_star=DenseVector(np.zeros(d)))
        for spec in _alie_specs(n, b):
            view = _view(rows.tolist(), rule_spec=spec, honest_ids=honest_ids,
                         context=ctx)
            got = alie(view, cands).values
            alpha, _, out = _reference_alie(view, cands)
            mu = rows.mean(axis=0)
            sigma_dev = math.sqrt(float(((rows - mu) ** 2).sum()))
            if sigma_dev == 0.0:
                # inert: the output on mu in every Byzantine slot
                alpha, out = 0.0, _output_on(view, DenseVector(got)).values
            assert np.array_equal(got, mu + alpha * sigma_dev), spec.rule
            assert view.server_output.tobytes() == out.tobytes(), spec.rule

    def test_all_tie_goes_to_first_listed_candidate(self):
        # one Byzantine slot far from a square honest cluster: krum,
        # multi_krum and the oracle ignore it, and average, cwm and cwtm
        # move by the same amount for either sign of alpha, so both
        # candidates tie (gm's Weiszfeld rounding breaks the symmetry)
        rows = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]]
        mu = np.array(rows).mean(axis=0)
        sigma_dev = math.sqrt(float(((np.array(rows) - mu) ** 2).sum()))
        ctx = OracleContext(x=DenseVector([1.0, 0.0]), x_star=DenseVector([0.0, 0.0]))
        for spec in _alie_specs(6, 1):
            if spec.rule == "gm":
                continue
            for cands in ((50.0, -50.0), (-50.0, 50.0)):
                view = _view(rows, rule_spec=spec, context=ctx)
                alpha, scores, _ = _reference_alie(view, cands)
                assert scores[0] == scores[1] and alpha == cands[0], spec.rule
                got = alie(view, cands).values
                assert np.array_equal(got, mu + cands[0] * sigma_dev), spec.rule

    def test_one_aggregate_call_and_recorded_output(self, monkeypatch):
        import robustsgd.attacks as attacks_mod

        calls = []

        def counting(spec, updates, *args, **kwargs):
            calls.append(np.shape(updates))
            return aggregate(spec, updates, *args, **kwargs)

        monkeypatch.setattr(attacks_mod, "aggregate", counting)
        spec = AggregatorSpec(rule="gm", n=6, b=2)
        rows = np.random.default_rng(3).normal(size=(4, 3))
        view = _view(rows.tolist(), rule_spec=spec)
        crafted = alie(view)
        assert calls == [(len(DEFAULT_ALIE_CANDIDATES), 6, 3)]
        full = [DenseVector(r) for r in rows] + [crafted, crafted]
        assert view.server_output.tobytes() == aggregate(spec, full).values.tobytes()

    @pytest.mark.parametrize("spec", _alie_specs(5, 2), ids=lambda spec: spec.rule)
    def test_zero_dispersion_records_the_output_on_mu(self, spec):
        rows = [[1.5, -2.0, 0.25]] * 3
        ctx = OracleContext(x=DenseVector([1.0, 0.0, 2.0]), x_star=DenseVector(np.zeros(3)))
        view = _view(rows, rule_spec=spec, honest_ids=[0, 2, 3], context=ctx)
        crafted = alie(view)
        mu = np.array(rows).mean(axis=0)
        assert crafted.values.tobytes() == mu.tobytes()
        full = [crafted, DenseVector(rows[0]), DenseVector(rows[1]), DenseVector(rows[2]),
                crafted]
        want = aggregate(spec, full, honest_ids=[0, 2, 3] if spec.honest_aware else None,
                         context=ctx)
        assert view.server_output.tobytes() == want.values.tobytes()

    def test_needs_honest_updates(self):
        spec = AggregatorSpec(rule="average", n=2, b=0)
        view = AdversaryView(honest_updates=[], honest_ids=[], aggregator=spec)
        with pytest.raises(ConfigurationError, match="at least one honest"):
            alie(view)


@st.composite
def alie_cases(draw):
    """An ALIE probe: b Byzantine slots among n workers, honest ids in a
    drawn order (sorted or not, rarely contiguous), honest rows spread,
    rounded so that coordinates tie, or all equal (zero dispersion), and
    the default candidates, drawn ones, or a symmetric pair of large ones,
    which rules that ignore far outliers score as an exact tie."""
    b = draw(st.integers(1, 3))
    n = 2 * b + draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    ids = draw(st.permutations(range(n)))[: n - b]
    if draw(st.booleans()):
        ids = sorted(ids)
    rows = np.array(draw(st.lists(coord, min_size=(n - b) * d, max_size=(n - b) * d)))
    rows = rows.reshape(n - b, d)
    shape = draw(st.sampled_from(["spread", "ties", "flat"]))
    if shape == "ties":
        rows = np.round(rows / 1e5)
    elif shape == "flat":
        rows = np.repeat(np.round(rows[:1]), n - b, axis=0)  # an exact mean
    cands = draw(st.one_of(
        st.none(),
        st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6).map(tuple),
        st.floats(10.0, 50.0).map(lambda a: (a, -a)),
    ))
    # integer rows have exact means: they are inert iff all equal
    inert = None if shape == "spread" else bool((rows == rows[0]).all())
    return rows, ids, cands, n, b, inert


class TestAlieMatchesReference:
    """alie gives the bytes of the scoring loop it replaced
    (reference_loop.reference_alie), for every rule."""

    @given(alie_cases(), st.booleans())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_crafted_vector_and_server_output_equal_the_reference(self, case, as_array):
        rows, ids, cands, n, b, inert = case
        d = rows.shape[1]
        ctx = OracleContext(x=DenseVector(np.linspace(1.0, 2.0, d)),
                            x_star=DenseVector(np.zeros(d)))
        for spec in _alie_specs(n, b):
            got, recorded = [], []
            for fn in (alie, reference_alie):
                if as_array:
                    view = AdversaryView(honest_updates=rows.copy(),
                                         honest_ids=np.array(ids, dtype=np.intp),
                                         aggregator=spec, context=ctx)
                else:
                    view = _view(rows.tolist(), rule_spec=spec, honest_ids=list(ids),
                                 context=ctx)
                crafted = fn(view, cands)
                assert isinstance(crafted, np.ndarray if as_array else DenseVector)
                crafted = crafted if as_array else crafted.values
                out = view.server_output
                recorded.append(out is not None)
                if out is None:
                    # the reference is inert and records nothing: the
                    # server's output is then that on mu in every slot
                    out = _output_on(view, DenseVector(crafted)).values
                got.append((crafted.dtype, crafted.shape, crafted.tobytes(),
                            out.dtype, out.shape, out.tobytes()))
            assert got[0] == got[1], spec.rule
            assert recorded[0], spec.rule  # alie records its output, inert or not
            if inert is not None:
                assert recorded[1] != inert


class TestArrayInputs:
    """The training loop hands attacks (h, d) arrays; they answer with
    arrays, bitwise what the DenseVector path returns."""

    @pytest.mark.parametrize("rows", [[[1.0, -2.0], [0.5, 3.0], [2.0, 0.0]],
                                      [[1.5, -2.0], [1.5, -2.0]]])
    def test_alie_on_an_array_matches_the_dense_vector_path(self, rows):
        for spec in _alie_specs(5, 2):
            ctx = OracleContext(x=DenseVector([1.0, 1.0]), x_star=DenseVector([0.0, 0.0]))
            listed = _view(rows, rule_spec=spec, context=ctx)
            want = alie(listed).values
            stacked = _view(rows, rule_spec=spec, context=ctx)
            stacked.honest_updates = np.array(rows)
            got = alie(stacked)
            assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
            assert stacked.server_output.tobytes() == listed.server_output.tobytes()

    def test_alie_needs_a_nonempty_array(self):
        spec = AggregatorSpec(rule="average", n=2, b=0)
        view = AdversaryView(honest_updates=np.empty((0, 1)), honest_ids=[], aggregator=spec)
        with pytest.raises(ConfigurationError, match="at least one honest"):
            alie(view)

    def test_sign_flip_negates_every_row(self):
        rows = np.array([[1.0, -2.0], [0.0, 3.5]])
        out = sign_flip(rows)
        assert isinstance(out, np.ndarray) and np.array_equal(out, -rows)
