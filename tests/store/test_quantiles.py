"""Unit tests for the P² streaming quantile estimator and its merge."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.store.quantiles import P2Quantile
from tests.store.reference import ReferenceP2Quantile, sketch_state


def fill(samples, p: float) -> P2Quantile:
    sketch = P2Quantile(p)
    for x in samples:
        sketch.add(float(x))
    return sketch


class TestP2Quantile:
    def test_parameter_validation(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(StoreError):
                P2Quantile(p)

    def test_empty_is_nan(self):
        assert np.isnan(P2Quantile(0.5).value())

    def test_small_samples_exact(self):
        q = P2Quantile(0.5)
        for x in [3.0, 1.0, 2.0]:
            q.add(x)
        assert q.value() == 2.0
        assert len(q) == 3

    @pytest.mark.parametrize("p", [0.5, 0.95, 0.99])
    def test_tracks_uniform_stream(self, p):
        rng = np.random.default_rng(7)
        samples = rng.uniform(0.0, 100.0, size=5000)
        estimator = P2Quantile(p)
        for x in samples:
            estimator.add(x)
        exact = float(np.percentile(samples, p * 100.0))
        assert estimator.value() == pytest.approx(exact, abs=2.5)

    def test_tracks_skewed_stream(self):
        rng = np.random.default_rng(11)
        samples = rng.exponential(10.0, size=5000)
        estimator = P2Quantile(0.95)
        for x in samples:
            estimator.add(x)
        exact = float(np.percentile(samples, 95.0))
        assert estimator.value() == pytest.approx(exact, rel=0.15)

    def test_constant_stream(self):
        estimator = P2Quantile(0.95)
        for _ in range(100):
            estimator.add(5.0)
        assert estimator.value() == 5.0


class TestMergeValidation:
    def test_empty_collection_rejected(self):
        with pytest.raises(StoreError):
            P2Quantile.merge([])

    def test_mixed_quantiles_rejected(self):
        with pytest.raises(StoreError):
            P2Quantile.merge([P2Quantile(0.5), P2Quantile(0.95)])

    def test_all_empty_members_merge_to_empty(self):
        merged = P2Quantile.merge([P2Quantile(0.5), P2Quantile(0.5)])
        assert len(merged) == 0
        assert np.isnan(merged.value())

    def test_single_member_roundtrip(self):
        data = np.linspace(0.0, 10.0, 200)
        merged = P2Quantile.merge([fill(data, 0.5)])
        assert len(merged) == 200
        assert merged.value() == pytest.approx(5.0, abs=0.5)

    def test_tiny_members_merge_exactly(self):
        # Members still holding raw samples pool them exactly.
        merged = P2Quantile.merge([fill([1.0, 2.0], 0.5), fill([3.0], 0.5)])
        assert len(merged) == 3
        assert merged.value() == 2.0


class TestMergeProperties:
    """Merged-sketch error vs pooled-data ground truth stays bounded.

    Mirrors the federation's use: N member hives each sketch their slice
    of one stream; the merger folds the sketches.  The merged estimate
    must stay close to the percentile of the pooled data no matter how
    the stream was split (sizes, order, imbalance).
    """

    @given(
        seed=st.integers(0, 10_000),
        n_parts=st.integers(min_value=2, max_value=6),
        p=st.sampled_from([0.5, 0.95, 0.99]),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_error_bounded_uniform(self, seed, n_parts, p):
        rng = np.random.default_rng(seed)
        data = rng.uniform(0.0, 100.0, size=int(rng.integers(50, 3000)))
        cuts = np.sort(rng.integers(0, len(data), size=n_parts - 1))
        parts = np.split(rng.permutation(data), cuts)
        merged = P2Quantile.merge([fill(part, p) for part in parts])
        exact = float(np.percentile(data, p * 100.0))
        assert len(merged) == len(data)
        # 5% of the data range bounds both sketch and merge error here.
        assert merged.value() == pytest.approx(exact, abs=5.0)

    @given(seed=st.integers(0, 10_000), n_parts=st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_merge_error_bounded_skewed(self, seed, n_parts):
        rng = np.random.default_rng(seed)
        data = rng.exponential(10.0, size=2000)
        parts = np.array_split(rng.permutation(data), n_parts)
        merged = P2Quantile.merge([fill(part, 0.95) for part in parts])
        exact = float(np.percentile(data, 95.0))
        assert merged.value() == pytest.approx(exact, rel=0.25)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_merge_preserves_extremes_and_count(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(0.0, 50.0, size=500)
        parts = np.array_split(data, 4)
        merged = P2Quantile.merge([fill(part, 0.5) for part in parts])
        assert len(merged) == len(data)
        # The pooled min/max are carried exactly into the outer markers.
        assert merged._q[0] == pytest.approx(float(np.min(data)))
        assert merged._q[-1] == pytest.approx(float(np.max(data)))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_merged_sketch_stays_live(self, seed):
        """A merged sketch keeps absorbing observations correctly."""
        rng = np.random.default_rng(seed)
        before = rng.uniform(0.0, 100.0, size=400)
        after = rng.uniform(0.0, 100.0, size=1600)
        merged = P2Quantile.merge([fill(half, 0.95) for half in np.split(before, 2)])
        for x in after:
            merged.add(float(x))
        pooled = np.concatenate([before, after])
        assert len(merged) == len(pooled)
        assert merged.value() == pytest.approx(
            float(np.percentile(pooled, 95.0)), abs=5.0
        )


class TestMergeSmallMembers:
    """Regression: members with < 5 observations have no live marker
    state (``_q`` is still the raw sorted sample); merging must pool
    their samples instead of reading uninitialised markers."""

    @pytest.mark.parametrize("small_size", [0, 1, 4])
    def test_small_member_pools_into_big_member(self, small_size):
        rng = random.Random(31)
        big = P2Quantile(0.5)
        pooled = []
        for _ in range(200):
            x = rng.gauss(50.0, 10.0)
            big.add(x)
            pooled.append(x)
        small = P2Quantile(0.5)
        for _ in range(small_size):
            x = rng.gauss(50.0, 10.0)
            small.add(x)
            pooled.append(x)
        merged = P2Quantile.merge([big, small])
        assert len(merged) == len(pooled)
        pooled.sort()
        truth = pooled[len(pooled) // 2]
        assert abs(merged.value() - truth) < 5.0
        # Extremes are exact even when the small member holds them.
        if small_size:
            assert merged._q[0] == min(pooled)
            assert merged._q[4] == max(pooled)

    def test_all_members_small_pools_raw_samples(self):
        members = []
        values = []
        rng = random.Random(32)
        for size in (1, 4, 3, 2):
            sketch = P2Quantile(0.9)
            for _ in range(size):
                x = rng.uniform(0.0, 1.0)
                sketch.add(x)
                values.append(x)
            members.append(sketch)
        merged = P2Quantile.merge(members)
        assert len(merged) == len(values)
        values.sort()
        assert merged._q[0] == values[0]
        assert abs(merged.value() - values[int(0.9 * (len(values) - 1))]) < 0.35

    def test_one_observation_member_does_not_bias_cdf(self):
        # The old CDF combination gave a 1-obs member a flat 0.5 CDF
        # everywhere, injecting phantom mass below its value.
        rng = random.Random(33)
        big = P2Quantile(0.5)
        for _ in range(500):
            big.add(rng.uniform(0.0, 1.0))
        outlier = P2Quantile(0.5)
        outlier.add(100.0)  # far above the big member's range
        merged = P2Quantile.merge([big, outlier])
        # The median of 500 uniforms + one outlier stays near 0.5.
        assert abs(merged.value() - 0.5) < 0.1
        assert merged._q[4] == 100.0

    def test_merged_with_small_members_stays_live(self):
        rng = random.Random(34)
        big = P2Quantile(0.5)
        for _ in range(100):
            big.add(rng.uniform(0.0, 1.0))
        small = P2Quantile(0.5)
        small.add(0.5)
        merged = P2Quantile.merge([big, small])
        for _ in range(100):
            merged.add(rng.uniform(0.0, 1.0))
        assert len(merged) == 201
        assert 0.3 < merged.value() < 0.7


#: Any float stream: infinities, NaN, signed zeros and subnormals
#: included (``extend`` mirrors every comparison of the reference).
streams = st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=120)
quantiles = st.sampled_from([0.5, 0.95, 0.99])


def chunked(data, stream):
    """``stream`` cut at drawn points: empty chunks and chunks that
    straddle the first five observations both occur."""
    cuts = sorted(
        data.draw(st.lists(st.integers(0, len(stream)), max_size=8), label="cuts")
    )
    return [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]


def feed(sketch, chunks, data):
    """Each chunk through ``extend`` (as an array or a list) or, drawn
    per chunk, value by value through ``add``."""
    for chunk in chunks:
        how = data.draw(st.sampled_from(["array", "list", "add"]), label="how")
        if how == "add":
            for x in chunk:
                sketch.add(x)
        else:
            sketch.extend(np.array(chunk, dtype=np.float64) if how == "array" else chunk)
    return sketch


class TestExtend:
    @given(stream=streams, p=quantiles, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_chunking_equals_sequential_add(self, stream, p, data):
        reference = ReferenceP2Quantile(p)
        for x in stream:
            reference.add(x)
        sketch = feed(P2Quantile(p), chunked(data, stream), data)
        assert sketch_state(sketch) == sketch_state(reference)

    @given(
        parts=st.lists(
            st.lists(st.floats(-1e6, 1e6), max_size=60), min_size=1, max_size=4
        ),
        p=quantiles,
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_of_extended_equals_merge_of_added(self, parts, p, data):
        added = []
        for part in parts:
            member = ReferenceP2Quantile(p)
            for x in part:
                member.add(x)
            added.append(member)
        extended = [feed(P2Quantile(p), chunked(data, part), data) for part in parts]
        assert sketch_state(P2Quantile.merge(extended)) == sketch_state(
            ReferenceP2Quantile.merge(added)
        )

    def test_long_lognormal_stream_in_flush_sized_chunks(self):
        stream = np.random.default_rng(3).lognormal(3.0, 1.0, size=30_000)
        for p in (0.5, 0.95, 0.99):
            reference = ReferenceP2Quantile(p)
            reference.extend(stream.tolist())
            sketch = P2Quantile(p)
            for start in range(0, len(stream), 3000):
                sketch.extend(stream[start : start + 3000])
            assert sketch_state(sketch) == sketch_state(reference)

    def test_extend_accepts_numpy_scalars_of_any_width(self):
        sketch, reference = P2Quantile(0.5), ReferenceP2Quantile(0.5)
        values = [np.float32(0.1), np.int64(3), 2, 0.5, np.float16(7.0), 1.5, -4]
        sketch.extend(values)
        reference.extend(values)
        assert sketch_state(sketch) == sketch_state(reference)


# ``extend`` only parks its chunk; the markers move when somebody reads.
# A program of feeds and reads on the lazy sketch must be
# indistinguishable, step by step, from the eagerly fed reference.
_values = st.floats(allow_nan=True, allow_infinity=True)
_steps = st.one_of(
    st.tuples(
        st.just("extend"),
        st.sampled_from(["list", "tuple", "float64", "float32", "int"]),
        st.lists(_values, max_size=12),
    ),
    st.tuples(st.just("add"), _values),
    st.tuples(st.just("len")),
    st.tuples(st.just("value")),
    st.tuples(st.just("merge"), st.lists(st.floats(-1e6, 1e6), max_size=9)),
)


def as_chunk(kind, values):
    """One chunk in the container and width a caller might hand over,
    and the float64 values the sketch must observe for it."""
    if kind == "int":
        values = [int(x) % 1000 for x in values if x == x and abs(x) != float("inf")]
        return np.array(values, dtype=np.int64), [float(x) for x in values]
    if kind == "float32":
        with np.errstate(over="ignore"):
            chunk = np.array(values, dtype=np.float32)
        return chunk, chunk.astype(np.float64).tolist()
    if kind == "float64":
        return np.array(values, dtype=np.float64), values
    return (tuple(values) if kind == "tuple" else list(values)), values


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestLazyFeed:
    @given(steps=st.lists(_steps, max_size=30), p=quantiles)
    @settings(max_examples=300, deadline=None)
    def test_any_interleaving_of_feeds_and_reads_equals_the_eager_sketch(self, steps, p):
        from repro.store import quantiles as module

        # A bound small enough for a drawn program to reach it.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "PENDING_LIMIT", 16)
            self.run_program(steps, p, module)

    @staticmethod
    def run_program(steps, p, module):
        import copy

        lazy, eager = P2Quantile(p), ReferenceP2Quantile(p)
        finite = True  # merge sorts a set of marker heights: no NaN there
        for step in steps:
            if step[0] == "extend":
                chunk, observed = as_chunk(step[1], step[2])
                finite = finite and bool(np.isfinite(observed).all())
                lazy.extend(chunk)
                eager.extend(observed)
            elif step[0] == "add":
                finite = finite and bool(np.isfinite(step[1]))
                lazy.add(step[1])
                eager.add(step[1])
            elif step[0] == "len":
                pending = lazy._pending_len
                assert len(lazy) == len(eager)
                assert lazy._pending_len == pending  # answered without absorbing
            elif step[0] == "value":
                assert bits(lazy.value()) == bits(eager.value())
            else:
                other_lazy, other_eager = P2Quantile(p), ReferenceP2Quantile(p)
                other_lazy.extend(step[1])
                other_eager.extend(step[1])
                before = sketch_state(copy.deepcopy(lazy)), sketch_state(copy.deepcopy(other_lazy))
                merged = P2Quantile.merge([lazy, other_lazy])
                assert merged._pending_len == 0  # tests read merged._q directly
                if finite:
                    assert sketch_state(merged) == sketch_state(
                        ReferenceP2Quantile.merge([eager, other_eager])
                    )
                assert (sketch_state(lazy), sketch_state(other_lazy)) == before
            assert lazy._pending_len < module.PENDING_LIMIT
            assert len(lazy) == len(eager)
            # Read a copy: the sketch under test keeps what it has pending.
            assert sketch_state(copy.deepcopy(lazy)) == sketch_state(eager)

    def test_an_unread_sketch_holds_less_than_the_bound(self):
        from repro.store.quantiles import PENDING_LIMIT

        stream = np.random.default_rng(5).lognormal(3.0, 1.0, size=3 * PENDING_LIMIT)
        sketch, reference = P2Quantile(0.95), ReferenceP2Quantile(0.95)
        reference.extend(stream.tolist())
        held = []
        for start in range(0, len(stream), 57):  # a device-campaign flush
            sketch.extend(stream[start : start + 57])
            held.append(sketch._pending_len)
            assert len(sketch) == min(start + 57, len(stream))
        assert 0 < max(held) < PENDING_LIMIT and held.count(0) == 2  # absorbed unasked
        assert sketch_state(sketch) == sketch_state(reference)

    def test_a_chunk_is_validated_when_it_is_handed_over(self):
        sketch = P2Quantile(0.5)
        with pytest.raises(ValueError):
            sketch.extend(["not a number"])
        with pytest.raises(StoreError):
            sketch.extend(np.zeros((2, 2)))
        sketch.extend(())
        assert len(sketch) == 0 and np.isnan(sketch.value())
