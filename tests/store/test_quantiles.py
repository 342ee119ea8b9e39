"""Unit and property tests for the log-bucket quantile sketch and its merge."""

import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.store.quantiles import RELATIVE_ACCURACY, QuantileSketch
from tests.store.reference import ReferenceSketch

#: α plus float slack: a value on a bucket boundary may land one bucket
#: up, and the bucket's reading carries one ``**``'s rounding.
ALPHA = RELATIVE_ACCURACY + 1e-12


def fill(samples) -> QuantileSketch:
    sketch = QuantileSketch()
    sketch.extend(np.asarray(samples, dtype=np.float64))
    return sketch


def within_alpha(estimate: float, exact: float) -> bool:
    return abs(estimate - exact) <= ALPHA * abs(exact)


def lower(samples, p: float) -> float:
    """The exact quantile the sketch approximates: rank ``floor(p (n-1))``."""
    return float(np.quantile(np.asarray(samples, dtype=np.float64), p, method="lower"))


#: Finite observations of both signs, zeros included, above the
#: subnormal range where a bucket's reading loses precision.
observations = st.one_of(
    st.just(0.0),
    st.floats(1e-9, 1e9),
    st.floats(-1e9, -1e-9),
    st.integers(-50, 50).map(float),
)
probabilities = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestQuantileSketch:
    def test_parameter_validation(self):
        sketch = fill([1.0, 2.0])
        for p in (0.0, 1.0, -0.1, 1.5, float("nan")):
            with pytest.raises(StoreError):
                sketch.quantile(p)

    def test_empty_is_nan(self):
        assert np.isnan(QuantileSketch().quantile(0.5))

    def test_small_samples_exact(self):
        # Clamped to the observed extremes: one value, or the extreme
        # ranks of a few, read back exactly.
        sketch = fill([3.0, 1.0, 2.0])
        assert within_alpha(sketch.quantile(0.5), 2.0)
        assert sketch.quantile(0.01) == 1.0
        assert fill([42.0]).quantile(0.5) == 42.0
        assert len(sketch) == 3

    @pytest.mark.parametrize("p", [0.5, 0.95, 0.99])
    def test_tracks_uniform_stream(self, p):
        samples = np.random.default_rng(7).uniform(0.0, 100.0, size=5000)
        assert within_alpha(fill(samples).quantile(p), lower(samples, p))

    def test_tracks_skewed_stream(self):
        samples = np.random.default_rng(11).exponential(10.0, size=5000)
        sketch = fill(samples)
        for p in (0.01, 0.5, 0.95, 0.999):
            assert within_alpha(sketch.quantile(p), lower(samples, p))

    def test_constant_stream(self):
        sketch = fill(np.full(100, 5.0))
        assert {sketch.quantile(p) for p in (0.01, 0.5, 0.95, 0.99)} == {5.0}

    @given(samples=st.lists(observations, min_size=1, max_size=200), p=probabilities)
    @settings(max_examples=300, deadline=None)
    def test_every_quantile_is_within_alpha(self, samples, p):
        assert within_alpha(fill(samples).quantile(p), lower(samples, p))

    def test_non_finite_observations_are_refused(self):
        sketch = fill([1.0])
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(StoreError):
                sketch.extend([2.0, bad])
        assert sketch.state() == fill([1.0]).state()


class TestMergeValidation:
    def test_empty_collection_rejected(self):
        with pytest.raises(StoreError):
            QuantileSketch.merge([])

    def test_all_empty_members_merge_to_empty(self):
        merged = QuantileSketch.merge([QuantileSketch(), QuantileSketch()])
        assert len(merged) == 0
        assert np.isnan(merged.quantile(0.5))
        assert merged.state() == QuantileSketch().state()

    def test_single_member_roundtrip(self):
        member = fill(np.linspace(0.0, 10.0, 200))
        merged = QuantileSketch.merge([member])
        assert len(merged) == 200
        assert merged.state() == member.state()

    def test_tiny_members_merge_exactly(self):
        merged = QuantileSketch.merge([fill([1.0, 2.0]), fill([3.0])])
        assert merged.state() == fill([1.0, 2.0, 3.0]).state()
        assert within_alpha(merged.quantile(0.5), 2.0)

    @given(
        parts=st.lists(st.lists(observations, max_size=30), min_size=1, max_size=5),
        pending=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_merge_leaves_its_members_unchanged(self, parts, pending):
        members = [fill(part) for part in parts]
        if not pending:
            for member in members:
                member.state()  # nothing left pending
        before = [(len(m), copy.deepcopy(m).state()) for m in members]
        QuantileSketch.merge(members)
        assert [(len(m), m.state()) for m in members] == before


class TestMergeProperties:
    """Merging is exact: the fold of any split is the monolithic sketch.

    Mirrors the federation's use: N member hives each sketch their slice
    of one stream and the merger folds the sketches; panes fold into
    windows the same way.  Neither may depend on how the stream was cut.
    """

    @given(
        samples=st.lists(observations, max_size=200),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_split_merges_to_the_monolithic_state(self, samples, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(samples)), max_size=6)))
        order = data.draw(st.permutations(range(len(samples))))
        shuffled = [samples[i] for i in order]
        parts = [shuffled[a:b] for a, b in zip([0, *cuts], [*cuts, len(samples)])]
        merged = QuantileSketch.merge([fill(part) for part in parts])
        assert merged.state() == fill(samples).state()
        if samples:
            for p in (0.01, 0.5, 0.95, 0.99):
                assert merged.quantile(p) == fill(samples).quantile(p)

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
        merged = QuantileSketch.merge([fill(part) for part in parts])
        assert len(merged) == len(data)
        assert within_alpha(merged.quantile(p), lower(data, p))

    @given(seed=st.integers(0, 10_000), n_parts=st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_merge_error_bounded_skewed(self, seed, n_parts):
        rng = np.random.default_rng(seed)
        data = rng.exponential(10.0, size=2000)
        parts = np.array_split(rng.permutation(data), n_parts)
        merged = QuantileSketch.merge([fill(part) for part in parts])
        assert within_alpha(merged.quantile(0.95), lower(data, 0.95))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_merge_preserves_extremes_and_count(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(0.0, 50.0, size=500)
        merged = QuantileSketch.merge([fill(part) for part in np.array_split(data, 4)])
        count, *_buckets, low, high = merged.state()
        assert (count, low, high) == (len(data), float(np.min(data)), float(np.max(data)))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_merged_sketch_stays_live(self, seed):
        """A merged sketch keeps observing: it equals the sketch of the
        whole stream."""
        rng = np.random.default_rng(seed)
        before = rng.uniform(0.0, 100.0, size=400)
        after = rng.uniform(0.0, 100.0, size=1600)
        merged = QuantileSketch.merge([fill(half) for half in np.split(before, 2)])
        merged.extend(after)
        assert merged.state() == fill(np.concatenate([before, after])).state()


class TestMergeSmallMembers:
    """Members of any size — empty, one observation, a handful — merge
    as exactly as large ones."""

    @pytest.mark.parametrize("small_size", [0, 1, 4])
    def test_small_member_pools_into_big_member(self, small_size):
        rng = random.Random(31)
        big = [rng.gauss(50.0, 10.0) for _ in range(200)]
        small = [rng.gauss(50.0, 10.0) for _ in range(small_size)]
        merged = QuantileSketch.merge([fill(big), fill(small)])
        assert merged.state() == fill(big + small).state()

    def test_all_members_small_pools_raw_samples(self):
        rng = random.Random(32)
        parts = [[rng.uniform(0.0, 1.0) for _ in range(size)] for size in (1, 4, 3, 2)]
        values = [x for part in parts for x in part]
        merged = QuantileSketch.merge([fill(part) for part in parts])
        assert merged.state() == fill(values).state()
        assert within_alpha(merged.quantile(0.9), lower(values, 0.9))

    def test_one_observation_member_does_not_bias_cdf(self):
        rng = random.Random(33)
        uniforms = [rng.uniform(0.0, 1.0) for _ in range(500)]
        merged = QuantileSketch.merge([fill(uniforms), fill([100.0])])
        # The median of 500 uniforms + one outlier is one of the uniforms.
        assert within_alpha(merged.quantile(0.5), lower(uniforms + [100.0], 0.5))
        assert merged.state()[-1] == 100.0

    def test_merged_with_small_members_stays_live(self):
        rng = random.Random(34)
        big = [rng.uniform(0.0, 1.0) for _ in range(100)]
        later = [rng.uniform(0.0, 1.0) for _ in range(100)]
        merged = QuantileSketch.merge([fill(big), fill([0.5])])
        merged.extend(later)
        assert merged.state() == fill(big + [0.5] + later).state()
        assert len(merged) == 201


#: Any finite float stream: signed zeros and subnormals included.
streams = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=120)


def chunked(data, stream):
    """``stream`` cut at drawn points: empty and one-value chunks occur."""
    cuts = sorted(
        data.draw(st.lists(st.integers(0, len(stream)), max_size=8), label="cuts")
    )
    return [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]


def feed(sketch, chunks, data):
    """Each chunk through ``extend``, as an array or a list (drawn)."""
    for chunk in chunks:
        as_array = data.draw(st.booleans(), label="as array")
        sketch.extend(np.array(chunk, dtype=np.float64) if as_array else chunk)
    return sketch


class TestExtend:
    @given(stream=streams, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_chunking_equals_sequential_add(self, stream, data):
        reference = ReferenceSketch()
        reference.extend(stream)
        sketch = feed(QuantileSketch(), chunked(data, stream), data)
        assert sketch.state() == reference.state()

    @given(
        parts=st.lists(
            st.lists(st.floats(-1e6, 1e6), max_size=60), min_size=1, max_size=4
        ),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_of_extended_equals_merge_of_added(self, parts, data):
        added = []
        for part in parts:
            member = ReferenceSketch()
            member.extend(part)
            added.append(member)
        extended = [feed(QuantileSketch(), chunked(data, part), data) for part in parts]
        assert (
            QuantileSketch.merge(extended).state()
            == QuantileSketch.merge(added).state()
        )

    def test_long_lognormal_stream_in_flush_sized_chunks(self):
        stream = np.random.default_rng(3).lognormal(3.0, 1.0, size=30_000)
        reference = ReferenceSketch()
        reference.extend(stream.tolist())
        sketch = QuantileSketch()
        for start in range(0, len(stream), 3000):
            sketch.extend(stream[start : start + 3000])
        assert sketch.state() == reference.state()
        for p in (0.5, 0.95, 0.99):
            assert sketch.quantile(p) == reference.quantile(p)

    def test_extend_accepts_numpy_scalars_of_any_width(self):
        sketch, reference = QuantileSketch(), ReferenceSketch()
        values = [np.float32(0.1), np.int64(3), 2, 0.5, np.float16(7.0), 1.5, -4]
        sketch.extend(values)
        reference.extend(values)
        assert sketch.state() == reference.state()


# ``extend`` only parks its chunk; the buckets fill when somebody reads.
# A program of feeds and reads on the lazy sketch must be
# indistinguishable, step by step, from the eagerly fed reference.
_values = st.floats(-1e6, 1e6)
_steps = st.one_of(
    st.tuples(
        st.just("extend"),
        st.sampled_from(["list", "tuple", "float64", "float32", "int"]),
        st.lists(_values, max_size=12),
    ),
    st.tuples(st.just("len")),
    st.tuples(st.just("quantile"), probabilities),
    st.tuples(st.just("merge"), st.lists(_values, max_size=9)),
)


def as_chunk(kind, values):
    """One chunk in the container and width a caller might hand over,
    and the float64 values the sketch must observe for it."""
    if kind == "int":
        values = [int(x) % 1000 for x in values]
        return np.array(values, dtype=np.int64), [float(x) for x in values]
    if kind == "float32":
        chunk = np.array(values, dtype=np.float32)
        return chunk, chunk.astype(np.float64).tolist()
    if kind == "float64":
        return np.array(values, dtype=np.float64), values
    return (tuple(values) if kind == "tuple" else list(values)), values


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestLazyFeed:
    @given(steps=st.lists(_steps, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_any_interleaving_of_feeds_and_reads_equals_the_eager_sketch(self, steps):
        from repro.store import quantiles as module

        # A bound small enough for a drawn program to reach it.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "PENDING_LIMIT", 16)
            self.run_program(steps, module)

    @staticmethod
    def run_program(steps, module):
        lazy, eager = QuantileSketch(), ReferenceSketch()
        for step in steps:
            if step[0] == "extend":
                chunk, observed = as_chunk(step[1], step[2])
                lazy.extend(chunk)
                eager.extend(observed)
            elif step[0] == "len":
                pending = lazy._pending_len
                assert len(lazy) == len(eager)
                assert lazy._pending_len == pending  # answered without absorbing
            elif step[0] == "quantile":
                assert bits(lazy.quantile(step[1])) == bits(eager.quantile(step[1]))
            else:
                other_lazy, other_eager = QuantileSketch(), ReferenceSketch()
                other_lazy.extend(step[1])
                other_eager.extend(step[1])
                before = copy.deepcopy(lazy).state(), copy.deepcopy(other_lazy).state()
                merged = QuantileSketch.merge([lazy, other_lazy])
                assert merged.state() == QuantileSketch.merge([eager, other_eager]).state()
                assert (lazy.state(), other_lazy.state()) == before
            assert lazy._pending_len < module.PENDING_LIMIT
            assert len(lazy) == len(eager)
            # Read a copy: the sketch under test keeps what it has pending.
            assert copy.deepcopy(lazy).state() == eager.state()

    def test_an_unread_sketch_holds_less_than_the_bound(self):
        from repro.store.quantiles import PENDING_LIMIT

        stream = np.random.default_rng(5).lognormal(3.0, 1.0, size=3 * PENDING_LIMIT)
        sketch, reference = QuantileSketch(), ReferenceSketch()
        reference.extend(stream.tolist())
        held = []
        for start in range(0, len(stream), 57):  # a device-campaign flush
            sketch.extend(stream[start : start + 57])
            held.append(sketch._pending_len)
            assert len(sketch) == min(start + 57, len(stream))
        assert 0 < max(held) < PENDING_LIMIT and held.count(0) == 2  # absorbed unasked
        assert sketch.state() == reference.state()

    def test_a_chunk_is_validated_when_it_is_handed_over(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.extend(["not a number"])
        with pytest.raises(StoreError):
            sketch.extend(np.zeros((2, 2)))
        with pytest.raises(StoreError):
            sketch.extend(np.array([1.0, np.inf]))
        sketch.extend(())
        assert len(sketch) == 0 and np.isnan(sketch.quantile(0.5))
