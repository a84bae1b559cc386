import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustsgd.core import (
    ConfigurationError,
    DenseVector,
    NumericFailure,
    RngStream,
    RunConfig,
    WorkerPopulation,
    as_matrix,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
vec = st.lists(finite, min_size=1, max_size=6).map(DenseVector)


class TestDenseVector:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            DenseVector([])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NumericFailure):
            DenseVector([1.0, float("nan")])
        with pytest.raises(NumericFailure):
            DenseVector([float("inf")])

    def test_immutable(self):
        v = DenseVector([1.0, 2.0])
        with pytest.raises((ValueError, RuntimeError)):
            v.values[0] = 5.0

    def test_copy_on_construction(self):
        src = np.array([1.0, 2.0])
        v = DenseVector(src)
        src[0] = 99.0
        assert v[0] == 1.0

    @given(vec)
    def test_neg_is_additive_inverse(self, a):
        neg = -a
        assert isinstance(neg, DenseVector) and -neg == a
        assert np.all(neg.values + a.values == 0.0)

    def test_hash_consistent_with_eq(self):
        a = DenseVector([1.0, 2.0])
        b = DenseVector([1.0, 2.0])
        assert a == b and hash(a) == hash(b)


class TestWorkerPopulation:
    def test_default_honest_prefix(self):
        pop = WorkerPopulation(n=5, b=2)
        assert pop.honest_sorted() == [0, 1, 2]
        assert pop.byzantine_ids == frozenset({3, 4})
        assert pop.h == 3

    @pytest.mark.parametrize("n,b", [(4, 2), (2, 1), (1, 1), (6, 3), (3, -1)])
    def test_rejects_b_at_least_half(self, n, b):
        with pytest.raises(ConfigurationError, match="b < n/2"):
            WorkerPopulation(n=n, b=b)

    def test_explicit_honest_ids(self):
        pop = WorkerPopulation(n=4, b=1, honest_ids=frozenset({0, 2, 3}))
        assert pop.byzantine_ids == frozenset({1})

    def test_honest_ids_size_must_match(self):
        with pytest.raises(ConfigurationError):
            WorkerPopulation(n=4, b=1, honest_ids=frozenset({0, 1}))

    @given(st.integers(1, 12))
    def test_b_zero_everyone_honest(self, n):
        pop = WorkerPopulation(n=n, b=0)
        assert pop.honest_ids == frozenset(range(n))


class TestHonestMean:
    def test_as_matrix_mixed_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            as_matrix([DenseVector([1.0]), DenseVector([1.0, 2.0])])


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(7, 3, "noise").generator.normal(size=8)
        b = RngStream(7, 3, "noise").generator.normal(size=8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "key",
        [(8, 3, "noise"), (7, 4, "noise"), (7, 3, "data")],
    )
    def test_any_key_component_changes_stream(self, key):
        base = RngStream(7, 3, "noise").generator.normal(size=8)
        other = RngStream(*key).generator.normal(size=8)
        assert not np.array_equal(base, other)

    def test_creation_order_irrelevant(self):
        s1 = RngStream(1, 0, "a")
        s2 = RngStream(1, 1, "a")
        first = s2.generator.normal(size=4)
        # recreate in the opposite order; worker-1 stream must not care
        t2 = RngStream(1, 1, "a")
        _ = RngStream(1, 0, "a").generator.normal(size=4)
        assert np.array_equal(first, t2.generator.normal(size=4))
        del s1

    def test_spawn_changes_purpose_only(self):
        s = RngStream(5, 2, "main")
        child = s.spawn("momentum")
        assert (child.seed, child.worker, child.purpose) == (5, 2, "momentum")
        same = RngStream(5, 2, "momentum")
        assert np.array_equal(
            child.generator.normal(size=4), same.generator.normal(size=4)
        )

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, -3])
    @pytest.mark.parametrize("worker", [0, 1, 5, 2**32 + 1])
    @pytest.mark.parametrize("purpose", ["noise", "données-µ"])
    def test_key_words_equal_the_list_keyed_seed_sequence(self, seed, worker, purpose):
        # the stream hands SeedSequence the uint32 words numpy derives from
        # the list [seed mod 2^64, worker, *utf-8 bytes of purpose]
        key = [seed & 0xFFFFFFFFFFFFFFFF, worker, *purpose.encode("utf-8")]
        want = np.random.SeedSequence(key)
        gen = RngStream(seed, worker, purpose).generator
        assert gen.bit_generator.seed_seq.pool.tobytes() == want.pool.tobytes()
        ref = np.random.Generator(np.random.PCG64(want))
        assert gen.integers(0, 2**63, size=4).tobytes() == ref.integers(0, 2**63, size=4).tobytes()
        assert gen.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()

    def test_negative_worker_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RngStream(0, -1, "noise")


class TestRunConfig:
    def test_horizon_positive(self):
        with pytest.raises(ConfigurationError, match="T must be >= 1"):
            RunConfig(problem=None, aggregator=None, attack=None,
                      schedule=None, T=0, x0=DenseVector([0.0]))

    def test_replicates_positive(self):
        with pytest.raises(ConfigurationError, match="replicates"):
            RunConfig(problem=None, aggregator=None, attack=None,
                      schedule=None, T=5, x0=DenseVector([0.0]), replicates=0)


def test_importing_the_package_loads_verify_and_sweep():
    # perfbench's closed-form timer patches trainer.run first and then
    # imports any module of its run sites not yet loaded, which binds the
    # already-wrapped run and times it twice; an eager `import robustsgd`
    # keeps every such module loaded before the patching starts
    code = "import sys, robustsgd; print(sorted(set(sys.modules) & {%r, %r}))" % (
        "robustsgd.sweep", "robustsgd.verify")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['robustsgd.sweep', 'robustsgd.verify']"
