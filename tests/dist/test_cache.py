"""Cached-vs-uncached equivalence harness for the timing result cache.

The :class:`~repro.dist.cache.ConvolutionCache` promises *bitwise
transparency*: any sequence of requests served through a cache —
whatever its capacity, however much eviction churn it suffers —
returns exactly the bits the uncached kernels would have produced.
These tests pin that promise under every backend with adversarial
operands (deltas, disjoint supports, repeated and translated operands,
mass-deficient cumulative sums), plus the batched ``convolve_many``
equivalence contract: bitwise against the looped path for every
shipped backend.  The cache holds one kind (node); the kernels
themselves take no cache.  Most tests drive the node memo through the
level scheduler with one-arc nodes (an arrival and a gate delay), the
smallest request that stores an entry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AnalysisConfig
from repro.dist.backends import FFTBackend, available_backends, get_backend
from repro.dist.cache import (
    _ENTRY_OVERHEAD_BYTES,
    DEFAULT_CACHE_CAPACITY,
    CacheStats,
    ConvolutionCache,
)
from repro.dist.families import truncated_gaussian_pdf
from repro.dist.ops import OpCounter, convolve, convolve_many, stat_max_many
from repro.dist.pdf import DiscretePDF
from repro.errors import DistributionError
from repro.timing.ssta import compute_level_arrivals

ALL_BACKENDS = available_backends()


@st.composite
def pdfs(draw, max_bins: int = 48, max_offset: int = 120):
    """Random trimmed PDFs, adversarial for mass accounting (masses
    spanning many decades leave cumulative sums shy of 1; ``n == 1``
    produces deltas; random offsets produce disjoint supports)."""
    n = draw(st.integers(min_value=1, max_value=max_bins))
    exponents = draw(
        st.lists(st.integers(min_value=-14, max_value=0), min_size=n, max_size=n)
    )
    mantissas = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    raw = [m * 10.0 ** e for m, e in zip(mantissas, exponents)]
    if sum(raw) <= 0.0:
        raw = [r + 1.0 for r in raw]
    offset = draw(st.integers(min_value=-max_offset, max_value=max_offset))
    pdf = DiscretePDF(2.0, offset, np.asarray(raw))
    trim = draw(st.sampled_from([0.0, 0.0, 1e-12, 1e-6]))
    return pdf.trimmed(trim)


def recount_bytes(cache: ConvolutionCache) -> int:
    """The byte accounting recomputed from scratch over the resident
    entries: a fixed overhead plus every stored result's masses."""
    total = 0
    for entry in cache._entries.values():
        total += _ENTRY_OVERHEAD_BYTES
        if isinstance(entry.result, DiscretePDF):
            total += entry.result.masses.nbytes
    return total


def arc_node(a, b, *, trim_eps=0.0, backend="auto", counter=None,
             cache=None):
    """The arrival of a one-arc node (arrival ``a`` through a gate of
    delay ``b``) through the level scheduler: with a cache, one
    node-memo probe, and on a miss the ADD, its one-operand MAX and a
    store."""
    return compute_level_arrivals(
        [[(a, b)]], trim_eps=trim_eps, counter=counter, backend=backend,
        cache=cache,
    )[0]


def lookup_arc(cache, a, b, trim_eps, kernel):
    """One node-memo probe for the one-arc node ``(a, b)``: the stored
    arrival, or None."""
    return cache.lookup_node(cache.node_key([(a, b)], trim_eps, kernel),
                             kernel)


def store_arc(cache, a, b, trim_eps, kernel, result):
    """Store the one-arc node ``(a, b)``'s arrival."""
    cache.store_node(cache.node_key([(a, b)], trim_eps, kernel), result,
                     kernel)


def assert_bitwise(a: DiscretePDF, b: DiscretePDF) -> None:
    assert a.dt == b.dt
    assert a.offset == b.offset
    assert np.array_equal(a.masses, b.masses)


class TestCachedNodeBitwise:
    @settings(max_examples=120, deadline=None)
    @given(a=pdfs(), b=pdfs(), trim=st.sampled_from([0.0, 1e-9, 1e-6]))
    def test_hit_is_bitwise_identical_per_backend(self, a, b, trim):
        for backend in ALL_BACKENDS:
            cache = ConvolutionCache(capacity=8)
            plain = arc_node(a, b, trim_eps=trim, backend=backend)
            miss = arc_node(a, b, trim_eps=trim, backend=backend, cache=cache)
            hit = arc_node(a, b, trim_eps=trim, backend=backend, cache=cache)
            assert_bitwise(plain, miss)
            assert_bitwise(plain, hit)
            assert cache.stats.hits == 1 and cache.stats.misses == 1

    @settings(max_examples=60, deadline=None)
    @given(a=pdfs())
    def test_repeated_operand_squares(self, a):
        """arc_node(a, a) — one operand appearing twice in the key."""
        cache = ConvolutionCache(capacity=4)
        for backend in ALL_BACKENDS:
            plain = arc_node(a, a, backend=backend)
            for _ in range(2):
                assert_bitwise(
                    plain, arc_node(a, a, backend=backend, cache=cache)
                )

    def test_identical_offsets_return_the_stored_object(self):
        """The O(1) fast path: same operands, same offsets — the hit is
        the very object the miss produced (immutable, shareable)."""
        rng = np.random.default_rng(7)
        a = DiscretePDF(2.0, 3, rng.random(40))
        b = DiscretePDF(2.0, -5, rng.random(25))
        cache = ConvolutionCache()
        first = arc_node(a, b, trim_eps=1e-9, cache=cache)
        second = arc_node(a, b, trim_eps=1e-9, cache=cache)
        assert second is first

    def test_translated_operands_miss_and_recompute_bitwise(self):
        """The node key carries every operand's absolute offset: a
        translated recurrence of the same mass vectors misses and
        recomputes bit for bit, and computed + hits equal the
        cache-off tally."""
        rng = np.random.default_rng(8)
        a = DiscretePDF(2.0, 0, rng.random(30))
        b = DiscretePDF(2.0, 0, rng.random(20))
        a2, b2 = a.shifted_bins(17), b.shifted_bins(-4)
        cache = ConvolutionCache()
        counter, plain_counter = OpCounter(), OpCounter()
        for x, y in [(a, b), (a2, b2), (a2, b2)]:
            cached = arc_node(x, y, trim_eps=1e-9, counter=counter,
                              cache=cache)
            plain = arc_node(x, y, trim_eps=1e-9, counter=plain_counter)
            assert_bitwise(plain, cached)
        assert (cache.stats.misses, cache.stats.hits) == (2, 1)
        assert (counter.convolutions, counter.convolve_cache_hits) == (2, 1)
        assert counter.total_requests == plain_counter.convolutions == 3

    def test_offset_split_over_the_same_sum_misses(self):
        """Each operand's offset enters the node key, so moving one bin
        from ``a`` to ``b`` is another request: it misses and computes
        the same bits."""
        rng = np.random.default_rng(18)
        a = DiscretePDF(2.0, 6, rng.random(25))
        b = DiscretePDF(2.0, -3, rng.random(14))
        cache = ConvolutionCache()
        first = arc_node(a, b, trim_eps=1e-9, cache=cache)
        a1, b1 = a.shifted_bins(1), b.shifted_bins(-1)
        split = arc_node(a1, b1, trim_eps=1e-9, cache=cache)
        assert (cache.stats.misses, cache.stats.hits) == (2, 0)
        assert split is not first
        assert_bitwise(split, first)

    def test_deltas_and_disjoint_supports(self):
        delta = DiscretePDF.delta(2.0, 40.0)
        far = DiscretePDF(2.0, 100_000, np.random.default_rng(9).random(12))
        cache = ConvolutionCache()
        for backend in ALL_BACKENDS:
            plain = arc_node(delta, far, backend=backend)
            arc_node(delta, far, backend=backend, cache=cache)
            hit = arc_node(delta, far, backend=backend, cache=cache)
            assert_bitwise(plain, hit)

    def test_distinct_equal_content_operands_hit(self):
        """Keys are content fingerprints, not object ids: a re-created
        equal-valued operand hits the original entry."""
        rng = np.random.default_rng(10)
        raw = rng.random(33)
        a1 = DiscretePDF(2.0, 2, raw.copy())
        b = DiscretePDF(2.0, 0, rng.random(15))
        cache = ConvolutionCache()
        first = arc_node(a1, b, cache=cache)
        a2 = DiscretePDF(2.0, 2, raw.copy())
        second = arc_node(a2, b, cache=cache)
        assert cache.stats.hits == 1
        assert second is first

    def test_trim_eps_and_backend_partition_the_key(self):
        rng = np.random.default_rng(11)
        a = DiscretePDF(2.0, 0, rng.random(700))
        b = DiscretePDF(2.0, 0, rng.random(700))
        cache = ConvolutionCache()
        arc_node(a, b, trim_eps=0.0, backend="direct", cache=cache)
        arc_node(a, b, trim_eps=1e-6, backend="direct", cache=cache)
        arc_node(a, b, trim_eps=0.0, backend="fft", cache=cache)
        assert cache.stats.misses == 3 and cache.stats.hits == 0
        # and each variant now hits its own entry, bitwise-correctly
        d = arc_node(a, b, trim_eps=0.0, backend="direct", cache=cache)
        f = arc_node(a, b, trim_eps=0.0, backend="fft", cache=cache)
        assert cache.stats.hits == 2
        assert_bitwise(d, arc_node(a, b, trim_eps=0.0, backend="direct"))
        assert_bitwise(f, arc_node(a, b, trim_eps=0.0, backend="fft"))


class TestStatMaxTakesNoCache:
    """The MAX kernels have no memo: a MAX request reaches them only
    behind a node-memo miss, where it almost never recurs."""

    @settings(max_examples=80, deadline=None)
    @given(ops=st.lists(pdfs(max_bins=24), min_size=2, max_size=5))
    def test_repeat_is_bitwise_identical(self, ops):
        first = stat_max_many(ops, trim_eps=1e-9)
        again = stat_max_many(ops, trim_eps=1e-9)
        assert_bitwise(first, again)

    def test_no_cache_argument(self):
        from repro.dist.ops import stat_max, stat_max_groups

        rng = np.random.default_rng(13)
        ops = [DiscretePDF(2.0, 3 * i, rng.random(18)) for i in range(3)]
        cache = ConvolutionCache()
        with pytest.raises(TypeError):
            stat_max_many(ops, cache=cache)
        with pytest.raises(TypeError):
            stat_max(ops[0], ops[1], cache=cache)
        with pytest.raises(TypeError):
            stat_max_groups([ops], cache=cache)

    def test_every_request_is_computed(self):
        """Repeated and translated groups all compute: the counter
        tallies every pairwise MAX and never a MAX cache hit."""
        rng = np.random.default_rng(13)
        ops = [DiscretePDF(2.0, 3 * i, rng.random(18)) for i in range(3)]
        together = [p.shifted_bins(11) for p in ops]
        counter = OpCounter()
        for group in (ops, together, ops, together):
            stat_max_many(group, counter=counter)
        assert (counter.max_ops, counter.max_cache_hits) == (8, 0)

    def test_single_operand_passes_through(self):
        p = DiscretePDF(2.0, 0, np.random.default_rng(14).random(10))
        counter = OpCounter()
        out = stat_max_many([p], trim_eps=0.0, counter=counter)
        assert out is p
        assert counter.total_requests == 0


class TestEvictionChurn:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(pdfs(max_bins=16), min_size=4, max_size=7),
        capacity=st.integers(min_value=1, max_value=3),
    )
    def test_tiny_capacity_stays_bitwise(self, ops, capacity):
        """A thrashing cache loses hits, never correctness: every
        result under churn equals the uncached one bitwise."""
        cache = ConvolutionCache(capacity=capacity)
        for _round in range(2):
            for i in range(len(ops) - 1):
                plain = arc_node(ops[i], ops[i + 1], trim_eps=1e-9)
                churned = arc_node(
                    ops[i], ops[i + 1], trim_eps=1e-9, cache=cache
                )
                assert_bitwise(plain, churned)
        assert len(cache) <= capacity

    def test_lru_eviction_order_and_stats(self):
        rng = np.random.default_rng(15)
        mk = lambda seed_row: DiscretePDF(2.0, 0, rng.random(8) + 0.01)
        a, b, c, d = (mk(i) for i in range(4))
        cache = ConvolutionCache(capacity=2)
        arc_node(a, b, cache=cache)  # entry 1
        arc_node(a, c, cache=cache)  # entry 2
        arc_node(a, b, cache=cache)  # touch entry 1 (now MRU)
        arc_node(a, d, cache=cache)  # evicts entry 2 (LRU)
        assert cache.stats.evictions == 1
        arc_node(a, b, cache=cache)  # still cached
        assert cache.stats.hits == 2
        arc_node(a, c, cache=cache)  # was evicted: a miss again
        assert cache.stats.misses == 4

    def test_clear_drops_entries_keeps_stats(self):
        rng = np.random.default_rng(16)
        a = DiscretePDF(2.0, 0, rng.random(10))
        cache = ConvolutionCache()
        arc_node(a, a, cache=cache)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1
        cache.stats.reset()
        assert cache.stats.requests == 0


class TestConvolveManyEquivalence:
    """The batched entry point against the looped kernels."""

    @settings(max_examples=80, deadline=None)
    @given(ops=st.lists(pdfs(max_bins=32), min_size=2, max_size=6))
    def test_direct_batches_are_bitwise_the_loop(self, ops):
        pairs = [(ops[i], ops[(i + 1) % len(ops)]) for i in range(len(ops))]
        batched = convolve_many(pairs, trim_eps=1e-9, backend="direct")
        for (a, b), out in zip(pairs, batched):
            assert_bitwise(
                out, convolve(a, b, trim_eps=1e-9, backend="direct")
            )

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(pdfs(max_bins=32), min_size=2, max_size=6))
    def test_auto_below_crossover_is_bitwise_the_loop(self, ops):
        pairs = [(ops[i], ops[(i + 1) % len(ops)]) for i in range(len(ops))]
        batched = convolve_many(pairs, trim_eps=1e-9, backend="auto")
        for (a, b), out in zip(pairs, batched):
            assert_bitwise(out, convolve(a, b, trim_eps=1e-9, backend="auto"))

    @settings(max_examples=40, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**16), min_size=2, max_size=5
        ),
        n=st.sampled_from([300, 700, 1100]),
    )
    def test_fft_batches_are_bitwise_the_loop(self, seeds, n):
        """The batched-path contract is *bitwise* per pair, for raw
        rows and finished results alike, whatever the batch
        composition.  Bitwise equality is what lets cached batches of
        any composition share entries."""
        pairs = [
            (
                DiscretePDF(1.0, 0, np.random.default_rng(s).random(n)),
                DiscretePDF(1.0, 5, np.random.default_rng(s + 1).random(n)),
            )
            for s in seeds
        ]
        fft = get_backend("fft")
        raws = fft.convolve_many([(a.masses, b.masses) for a, b in pairs])
        for (a, b), raw in zip(pairs, raws):
            assert np.array_equal(raw, fft.convolve_masses(a.masses, b.masses))
        batched = convolve_many(pairs, backend="fft")
        for (a, b), out in zip(pairs, batched):
            assert_bitwise(out, convolve(a, b, backend="fft"))

    def test_mixed_shapes_group_correctly(self):
        rng = np.random.default_rng(17)
        pairs = [
            (DiscretePDF(2.0, 0, rng.random(20)), DiscretePDF(2.0, 0, rng.random(20))),
            (DiscretePDF(2.0, 1, rng.random(33)), DiscretePDF(2.0, 2, rng.random(7))),
            (DiscretePDF(2.0, 0, rng.random(20)), DiscretePDF(2.0, 3, rng.random(20))),
            (DiscretePDF(2.0, -4, rng.random(1)), DiscretePDF(2.0, 0, rng.random(50))),
        ]
        for backend in ALL_BACKENDS:
            batched = convolve_many(pairs, trim_eps=1e-9, backend=backend)
            for (a, b), out in zip(pairs, batched):
                assert_bitwise(
                    out, convolve(a, b, trim_eps=1e-9, backend=backend)
                )

    def test_empty_batch(self):
        assert convolve_many([]) == []

    def test_no_cache_argument(self):
        """The ADD kernels are memo-free: reuse lives in the engines'
        node memo and a pass's arc memo."""
        rng = np.random.default_rng(18)
        a = DiscretePDF(2.0, 0, rng.random(25))
        cache = ConvolutionCache()
        with pytest.raises(TypeError):
            convolve(a, a, cache=cache)
        with pytest.raises(TypeError):
            convolve_many([(a, a)], cache=cache)

    def test_cached_nodes_skip_the_batch_and_stay_bitwise(self):
        rng = np.random.default_rng(18)
        parts_list = [
            [(DiscretePDF(2.0, 0, rng.random(25)),
              DiscretePDF(2.0, 0, rng.random(25)))]
            for _ in range(4)
        ]
        cache = ConvolutionCache()
        counter = OpCounter()
        first = compute_level_arrivals(
            parts_list, trim_eps=1e-9, cache=cache, counter=counter
        )
        second = compute_level_arrivals(
            parts_list, trim_eps=1e-9, cache=cache, counter=counter
        )
        assert counter.convolutions == 4
        assert counter.convolve_cache_hits == 4
        for x, y in zip(first, second):
            assert y is x

    def test_backend_without_convolve_many_falls_back(self):
        class Minimal:
            name = "minimal-direct"

            def convolve_masses(self, a, b):
                return np.convolve(a, b)

        rng = np.random.default_rng(19)
        pairs = [
            (DiscretePDF(2.0, 0, rng.random(12)), DiscretePDF(2.0, 1, rng.random(9)))
            for _ in range(3)
        ]
        out = convolve_many(pairs, backend=Minimal())
        for (a, b), o in zip(pairs, out):
            assert_bitwise(o, convolve(a, b, backend="direct"))


class TestCacheConfigKnob:
    def test_coerce_none_int_instance(self):
        assert ConvolutionCache.coerce(None) is None
        made = ConvolutionCache.coerce(16)
        assert isinstance(made, ConvolutionCache) and made.capacity == 16
        inst = ConvolutionCache(capacity=4)
        assert ConvolutionCache.coerce(inst) is inst

    @pytest.mark.parametrize("bad", ["big", 1.5, True, object()])
    def test_coerce_rejects_junk(self, bad):
        with pytest.raises(DistributionError):
            ConvolutionCache.coerce(bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_capacity_must_be_positive(self, bad):
        with pytest.raises(DistributionError):
            ConvolutionCache(capacity=bad)

    def test_analysis_config_wires_the_knob(self):
        assert AnalysisConfig().cache is None
        cfg = AnalysisConfig(cache=128)
        assert isinstance(cfg.cache, ConvolutionCache)
        assert cfg.cache.capacity == 128
        inst = ConvolutionCache()
        assert inst.capacity == DEFAULT_CACHE_CAPACITY
        assert AnalysisConfig(cache=inst).cache is inst

    def test_with_updates_shares_the_instance(self):
        cfg = AnalysisConfig(cache=64)
        derived = cfg.with_updates(dt=1.0)
        assert derived.cache is cfg.cache

    def test_config_rejects_junk_cache(self):
        with pytest.raises(ValueError):
            AnalysisConfig(cache="huge")

    def test_stats_hit_rate(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        stats.hits, stats.misses = 3, 1
        assert stats.requests == 4
        assert stats.hit_rate == pytest.approx(0.75)


class TestNodeMemoGuards:
    def test_same_named_foreign_backend_cannot_serve_node_entry(self):
        """Two distinct FFTBackend instances share a name; the
        whole-node memo must verify the backend instance, not just its
        name, and never serve bits computed under another kernel
        object."""
        from repro.timing.graph import TimingGraph
        from repro.timing.ssta import compute_node_arrival

        rng = np.random.default_rng(21)
        arrival = DiscretePDF(2.0, 0, rng.random(10))
        delay = DiscretePDF(2.0, 4, rng.random(6))
        cache = ConvolutionCache()
        kernel_a = FFTBackend()
        kernel_b = FFTBackend()  # distinct instance, same name
        key = cache.node_key([(arrival, delay)], 1e-9, kernel_a)
        assert cache.node_key([(arrival, delay)], 1e-9, kernel_b) == key
        result = convolve(arrival, delay, trim_eps=1e-9, backend=kernel_a)
        cache.store_node(key, result, kernel_a)
        assert cache.lookup_node(key, kernel_a) is result
        assert cache.lookup_node(key, kernel_b) is None


class TestBatchDedupAgainstSequential:
    """Batched requests must replicate the *sequential* cache stream:
    duplicate nodes within one level compute once and replay as hits
    (level batching folds a whole topological level into one scheduler
    call, so intra-level duplicates are the norm)."""

    @staticmethod
    def _level(pairs, **kwargs):
        return compute_level_arrivals(
            [[pair] for pair in pairs], trim_eps=1e-9, **kwargs
        )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_duplicate_nodes_compute_once_and_hit(self, backend):
        rng = np.random.default_rng(41)
        a = DiscretePDF(2.0, 0, rng.random(24))
        b = DiscretePDF(2.0, 3, rng.random(18))
        c = DiscretePDF(2.0, -2, rng.random(30))
        pairs = [(a, b), (c, b), (a, b), (a, b)]
        cache = ConvolutionCache()
        counter = OpCounter()
        batched = self._level(
            pairs, counter=counter, backend=backend, cache=cache
        )
        assert counter.convolutions == 2      # (a,b) once, (c,b) once
        assert counter.convolve_cache_hits == 2
        assert cache.stats.misses == 2
        assert cache.stats.hits == 2
        # Duplicates replay the stored object itself (same offsets).
        assert batched[2] is batched[0]
        assert batched[3] is batched[0]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_translated_and_split_twins_compute(self, backend):
        """Within one level a translated twin and a twin splitting the
        same offset sum differently are requests of their own: both
        are computed, bitwise what the uncached kernels give."""
        rng = np.random.default_rng(43)
        a = DiscretePDF(2.0, 0, rng.random(20))
        b = DiscretePDF(2.0, 1, rng.random(12))
        translated = (a.shifted_bins(7), b.shifted_bins(-2))
        split = (a.shifted_bins(1), b.shifted_bins(-1))
        pairs = [(a, b), translated, split]
        cache = ConvolutionCache()
        counter = OpCounter()
        batched = self._level(
            pairs, counter=counter, backend=backend, cache=cache
        )
        assert counter.convolutions == 3
        assert counter.convolve_cache_hits == 0
        for (x, y), res in zip(pairs, batched):
            assert_bitwise(res, arc_node(x, y, trim_eps=1e-9,
                                         backend=backend))

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_tallies_and_stats_match_a_sequential_loop(self, backend):
        """End-to-end invariance: one level with repeats and translated
        twins produces exactly the tallies and cache statistics of the
        equivalent node-by-node loop."""
        rng = np.random.default_rng(47)
        a = DiscretePDF(2.0, 0, rng.random(22))
        b = DiscretePDF(2.0, 2, rng.random(26))
        c = DiscretePDF(2.0, -1, rng.random(22))
        pairs = [(a, b), (a, c), (a, b), (a.shifted_bins(3), b), (c, c)]
        cache_b, cache_s = ConvolutionCache(), ConvolutionCache()
        cb, cs = OpCounter(), OpCounter()
        batched = self._level(
            pairs, counter=cb, backend=backend, cache=cache_b
        )
        looped = [
            arc_node(x, y, trim_eps=1e-9, counter=cs, backend=backend,
                     cache=cache_s)
            for x, y in pairs
        ]
        for bb, ss in zip(batched, looped):
            assert_bitwise(bb, ss)
        assert (cb.convolutions, cb.convolve_cache_hits) == (
            cs.convolutions, cs.convolve_cache_hits
        )
        assert (cache_b.stats.hits, cache_b.stats.misses) == (
            cache_s.stats.hits, cache_s.stats.misses
        )

    def test_without_cache_duplicates_are_recomputed(self):
        """No cache, no dedupe: the sequential loop computes every
        request, so the batch must too (tally invariance)."""
        rng = np.random.default_rng(53)
        a = DiscretePDF(2.0, 0, rng.random(16))
        b = DiscretePDF(2.0, 1, rng.random(16))
        counter = OpCounter()
        convolve_many([(a, b), (a, b)], counter=counter)
        assert counter.convolutions == 2
        assert counter.convolve_cache_hits == 0

    def test_tiny_capacity_dup_resolution_stays_bitwise(self):
        """Capacity 1: the representative's entry is evicted before the
        duplicate resolves, forcing the recompute path — results must
        still be bitwise the loop's."""
        rng = np.random.default_rng(59)
        a = DiscretePDF(2.0, 0, rng.random(24))
        b = DiscretePDF(2.0, 1, rng.random(24))
        c = DiscretePDF(2.0, 2, rng.random(20))
        pairs = [(a, b), (c, a), (a, b)]
        cache = ConvolutionCache(capacity=1)
        counter = OpCounter()
        batched = self._level(pairs, cache=cache, counter=counter)
        plain = [arc_node(x, y, trim_eps=1e-9) for x, y in pairs]
        for bb, ss in zip(batched, plain):
            assert_bitwise(bb, ss)
        assert counter.convolutions == 3


class TestBatchAwareKeyAPI:
    """The public key builder and key-accepting lookup the level
    scheduler uses must agree with what it stores."""

    def test_node_key_roundtrip(self):
        rng = np.random.default_rng(61)
        a = DiscretePDF(2.0, 0, rng.random(12))
        b = DiscretePDF(2.0, 5, rng.random(14))
        kernel = get_backend("direct")
        cache = ConvolutionCache()
        res = arc_node(a, b, trim_eps=1e-9, backend=kernel, cache=cache)
        key = cache.node_key([(a, b)], 1e-9, kernel)
        assert cache.lookup_node(key, kernel) is res
        # The precomputed key is authoritative: a wrong key misses.
        wrong = cache.node_key([(b, a)], 1e-9, kernel)
        assert cache.lookup_node(wrong, kernel) is None


class TestCacheStatsMerge:
    """Per-shard stats aggregation: commutative, field-distinct."""

    @given(
        records=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=100),
            ),
            min_size=0,
            max_size=10,
        ),
        order_seed=st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_is_order_invariant(self, records, order_seed):
        shards = [
            CacheStats(hits=h, misses=m, evictions=e) for h, m, e in records
        ]
        sequential = CacheStats()
        for s in shards:
            sequential.merge(s)
        shuffled = list(shards)
        order_seed.shuffle(shuffled)
        scrambled = CacheStats()
        for s in shuffled:
            scrambled.merge(s)
        assert (scrambled.hits, scrambled.misses, scrambled.evictions) == (
            sequential.hits, sequential.misses, sequential.evictions
        )
        assert scrambled.requests == sum(s.requests for s in shards)

    def test_merge_then_hit_rate(self):
        a = CacheStats(hits=3, misses=1)
        a.merge(CacheStats(hits=1, misses=3))
        assert a.requests == 8
        assert a.hit_rate == 0.5


class TestSnapshotPersistence:
    """``save``/``load`` round trips: entries replay bitwise in a
    fresh process-equivalent cache, LRU order survives, and
    non-registry-kernel entries are refused at save time."""

    def _warm_cache(self, backend="auto"):
        """Two node entries: the one-arc node ``(a, b)`` and a node
        whose parts are that arc and a virtual arc."""
        kernel = get_backend(backend)
        cache = ConvolutionCache()
        a = truncated_gaussian_pdf(2.0, 500.0, 40.0)
        b = truncated_gaussian_pdf(2.0, 300.0, 25.0)
        c = truncated_gaussian_pdf(2.0, 900.0, 60.0)
        conv = arc_node(a, b, trim_eps=1e-9, backend=kernel, cache=cache)
        mx = stat_max_many([conv, c], trim_eps=1e-9, backend=kernel)
        cache.store_node(self._node_key(cache, a, b, c, kernel), mx, kernel)
        return cache, (a, b, c), (conv, mx), kernel

    @staticmethod
    def _node_key(cache, a, b, c, kernel):
        return cache.node_key([(a, b), (c, None)], 1e-9, kernel)

    def test_roundtrip_replays_bitwise(self, tmp_path, backend):
        cache, (a, b, c), (conv, mx), kernel = self._warm_cache(backend)
        path = tmp_path / "snap.cache"
        n = cache.save(path)
        assert n == len(cache) > 0

        loaded = ConvolutionCache.load(path)
        assert len(loaded) == len(cache)
        hit = lookup_arc(loaded, a, b, 1e-9, kernel)
        assert hit is not None
        assert_bitwise(hit, conv)
        hit_mx = loaded.lookup_node(
            self._node_key(loaded, a, b, c, kernel), kernel
        )
        assert hit_mx is not None
        assert_bitwise(hit_mx, mx)
        assert loaded.stats.misses == 0

    def test_translated_recurrence_misses_after_snapshot(self, tmp_path):
        """A loaded entry keeps its absolute key, as a live one does:
        the very request hits, a translated recurrence of the operand
        pair misses."""
        kernel = get_backend("direct")
        cache = ConvolutionCache()
        a = DiscretePDF(2.0, 10, np.asarray([0.25, 0.25, 0.5]))
        b = DiscretePDF(2.0, -4, np.asarray([0.5, 0.5]))
        live = arc_node(a, b, trim_eps=1e-9, backend=kernel, cache=cache)
        path = tmp_path / "snap.cache"
        cache.save(path)
        loaded = ConvolutionCache.load(path)
        same = lookup_arc(loaded, a, b, 1e-9, kernel)
        assert same is not None
        assert_bitwise(same, live)
        assert lookup_arc(loaded, a.shifted_bins(5), b, 1e-9,
                          kernel) is None

    def test_format2_payload_roundtrip(self, tmp_path):
        """A format-2 snapshot holds ``(key, result, backend name)``
        per entry — finished results only — and loads back into the
        same keys, results (bitwise), backends and byte tally."""
        import pickle

        cache, (a, b, c), (conv, mx), kernel = self._warm_cache("direct")
        path = tmp_path / "snap.cache"
        cache.save(path)
        payload = pickle.loads(path.read_bytes())
        assert payload["format"] == ConvolutionCache.SNAPSHOT_FORMAT == 2
        assert [len(e) for e in payload["entries"]] == [3, 3]
        names = [name for _key, _result, name in payload["entries"]]
        assert names == ["direct", "direct"]
        loaded = ConvolutionCache.load(path)
        assert list(loaded._entries) == list(cache._entries)
        for key, entry in cache._entries.items():
            twin = loaded._entries[key]
            assert twin.backend is entry.backend
            assert_bitwise(twin.result, entry.result)
        assert loaded.approx_bytes == cache.approx_bytes
        assert_bitwise(lookup_arc(loaded, a, b, 1e-9, kernel), conv)
        assert_bitwise(
            loaded.lookup_node(self._node_key(loaded, a, b, c, kernel),
                               kernel),
            mx,
        )

    def test_capacity_override_keeps_most_recent(self, tmp_path):
        cache = ConvolutionCache()
        kernel = get_backend("direct")
        pdfs_ = [truncated_gaussian_pdf(2.0, 200.0 + 40 * i, 15.0 + 3 * i)
                 for i in range(6)]
        for i in range(5):
            arc_node(pdfs_[i], pdfs_[i + 1], backend=kernel, cache=cache)
        assert len(cache) == 5  # distinct contents, distinct keys
        path = tmp_path / "snap.cache"
        cache.save(path)
        loaded = ConvolutionCache.load(path, capacity=2)
        assert len(loaded) == 2
        # The most recently used entries survive the trim.
        assert lookup_arc(loaded, pdfs_[4], pdfs_[5], 0.0, kernel) is not None

    def test_non_registry_backend_entries_skipped(self, tmp_path):
        class Custom:
            name = "direct"  # deliberately aliases the registry name

            def convolve_masses(self, x, y):
                return np.convolve(x, y)

        custom = Custom()
        cache = ConvolutionCache()
        a = truncated_gaussian_pdf(2.0, 500.0, 40.0)
        b = truncated_gaussian_pdf(2.0, 300.0, 25.0)
        arc_node(a, b, backend=custom, cache=cache)
        assert len(cache) == 1
        path = tmp_path / "snap.cache"
        assert cache.save(path) == 0  # alias refused, nothing written
        assert len(ConvolutionCache.load(path)) == 0

    def test_unknown_format_rejected(self, tmp_path):
        import pickle

        path = tmp_path / "bad.cache"
        path.write_bytes(pickle.dumps({"format": 99, "entries": []}))
        with pytest.raises(DistributionError):
            ConvolutionCache.load(path)

    def test_truncated_snapshot_rejected_cleanly(self, tmp_path):
        """An interrupted write must surface as a DistributionError,
        not a raw pickle traceback (and save() itself replaces
        atomically, so a good snapshot is never half-overwritten)."""
        cache, _, _, _ = self._warm_cache("direct")
        path = tmp_path / "snap.cache"
        cache.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DistributionError, match="corrupt"):
            ConvolutionCache.load(path)
        # No temp litter left behind by save().
        assert list(tmp_path.iterdir()) == [path]

    def test_wrong_shape_snapshot_rejected_cleanly(self, tmp_path):
        """Payloads that unpickle but have the wrong structure are
        corruption too — DistributionError, not KeyError/TypeError."""
        import pickle

        fmt = ConvolutionCache.SNAPSHOT_FORMAT
        for payload in (
            {"format": fmt},                            # missing keys
            {"format": fmt, "capacity": 8, "entries": [("k",)]},  # arity
            [1, 2, 3],                                  # not a dict
        ):
            path = tmp_path / "bad.cache"
            path.write_bytes(pickle.dumps(payload))
            with pytest.raises(DistributionError, match="corrupt"):
                ConvolutionCache.load(path)

    def test_foreign_pickle_rejected_cleanly(self, tmp_path):
        """A pickle referencing a module this build lacks (e.g. a
        snapshot from a version that moved a class) must surface as
        DistributionError, not a raw ModuleNotFoundError."""
        path = tmp_path / "foreign.cache"
        # Hand-rolled pickle opcodes: GLOBAL nosuchmodule.Thing
        path.write_bytes(b"cnosuchmodule\nThing\n.")
        with pytest.raises(DistributionError, match="corrupt"):
            ConvolutionCache.load(path)

    def test_dead_kinds_are_skipped(self, tmp_path):
        """A format-2 file written while the cache still had ADD, MAX
        and gap memos mixes ``"conv"``, ``"max"`` and ``"gap"`` entries
        (a gap entry carries no backend name) with node entries.  No
        engine probes the first three, so loading (and so merging, and
        the multi-worker front, which reads through both) keeps only
        the node entries, in LRU order, with the byte tally of what was
        kept."""
        import pickle

        cache, (a, b, c), (conv, mx), kernel = self._warm_cache("direct")
        live = list(cache._entries.items())
        dead_add = (("conv", 2.0, 1e-9, "direct", a._fp, b._fp,
                     a.offset + b.offset), conv, "direct")
        dead_max = (("max", 2.0, 1e-9, (conv._fp, c._fp)), mx, "direct")
        dead_gap = (("gap", 2.0, a.offset, a._fp, b.offset, b._fp), 1.5,
                    None)
        entries = [dead_add]
        for key, entry in live:
            entries.append((key, entry.result, "direct"))
            entries.append(dead_gap)
            entries.append(dead_max)
        path = tmp_path / "old.cache"
        path.write_bytes(pickle.dumps({
            "format": 2, "capacity": 64, "entries": entries,
        }))
        loaded = ConvolutionCache.load(path)
        assert list(loaded._entries) == [key for key, _entry in live]
        assert {key[0] for key in loaded._entries} == {"node"}
        assert loaded.approx_bytes == recount_bytes(loaded)
        assert loaded.approx_bytes == cache.approx_bytes
        assert_bitwise(lookup_arc(loaded, a, b, 1e-9, kernel), conv)

        out = tmp_path / "merged.cache"
        assert ConvolutionCache.merge_snapshots([path], out) == len(live)
        merged = ConvolutionCache.load(out)
        assert list(merged._entries) == [key for key, _entry in live]


class TestThreadSafety:
    """Concurrency contract of the shared cache (the analysis service
    holds ONE process-wide instance under a threading HTTP server).

    N threads hammering lookup/store concurrently must never corrupt
    the LRU order, the entry map, the byte accounting, or the stats
    tallies — and the final :class:`CacheStats` must equal the merge
    of the per-thread deltas each thread observed locally.
    """

    N_THREADS = 8
    ROUNDS = 60

    @staticmethod
    def _operands(n_pairs: int, seed: int = 7):
        rng = np.random.default_rng(seed)
        pairs = []
        for i in range(n_pairs):
            a = DiscretePDF(2.0, i, rng.random(6) + 1e-3)
            b = DiscretePDF(2.0, -i, rng.random(5) + 1e-3)
            pairs.append((a, b))
        return pairs

    def _hammer(self, cache, capacity_note, n_pairs):
        """Run the stress loop; return per-thread observed deltas."""
        import threading

        backend = get_backend("direct")
        pairs = self._operands(n_pairs)
        barrier = threading.Barrier(self.N_THREADS)
        deltas = []
        errors = []

        def worker(tid: int):
            local = CacheStats()
            try:
                barrier.wait()
                for r in range(self.ROUNDS):
                    # Each thread walks the pair list at its own phase
                    # so lookups and stores interleave heavily.
                    for j in range(len(pairs)):
                        a, b = pairs[(j + tid * 3 + r) % len(pairs)]
                        hit = lookup_arc(cache, a, b, 1e-9, backend)
                        if hit is not None:
                            local.record(hits=1)
                        else:
                            local.record(misses=1)
                            res = convolve(a, b, trim_eps=1e-9,
                                           backend=backend)
                            store_arc(cache, a, b, 1e-9, backend, res)
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append((tid, exc))
            deltas.append(local)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, f"worker raised under {capacity_note}: {errors}"
        return deltas

    def test_stats_equal_merged_thread_deltas_ample_capacity(self):
        cache = ConvolutionCache(1 << 12)
        deltas = self._hammer(cache, "ample capacity", n_pairs=24)
        merged = CacheStats()
        for d in deltas:
            merged.merge(d)
        assert cache.stats.requests == self.N_THREADS * self.ROUNDS * 24
        assert (cache.stats.hits, cache.stats.misses) == (
            merged.hits, merged.misses,
        )
        # Ample capacity: nothing was ever evicted, and every distinct
        # pair is resident exactly once.
        assert cache.stats.evictions == 0
        assert len(cache) == 24

    def test_lru_and_bytes_stay_consistent_under_churn(self):
        capacity = 8
        cache = ConvolutionCache(capacity)
        deltas = self._hammer(cache, "churn capacity", n_pairs=24)
        merged = CacheStats()
        for d in deltas:
            merged.merge(d)
        # Tallies still merge exactly even while evicting constantly.
        assert (cache.stats.hits, cache.stats.misses) == (
            merged.hits, merged.misses,
        )
        assert cache.stats.requests == merged.requests
        # The LRU invariants survived: bounded, uncorrupted, and the
        # running byte tally equals a fresh walk of the entries.
        assert len(cache) <= capacity
        entries = list(cache._entries.items())
        assert len(entries) == len(cache)
        assert cache.approx_bytes == recount_bytes(cache)
        # Every resident entry still replays bitwise.
        backend = get_backend("direct")
        for a, b in self._operands(24):
            hit = lookup_arc(cache, a, b, 1e-9, backend)
            if hit is not None:
                fresh = convolve(a, b, trim_eps=1e-9, backend=backend)
                assert hit.offset == fresh.offset
                assert np.array_equal(hit.masses, fresh.masses)

    def test_batched_requests_keep_exact_tallies_under_churn(self):
        """Level-batched probes and stores mutate the tallies in place
        under the shared lock: with levels of distinct nodes, every
        probe is a counted hit or a computed miss, so the final stats
        equal the merged per-thread counters, while a byte-budget
        evictor races them."""
        import sys
        import threading

        cache = ConvolutionCache(16)
        pairs = self._operands(24)
        barrier = threading.Barrier(self.N_THREADS + 1)
        counters = [OpCounter() for _ in range(self.N_THREADS)]
        stop = threading.Event()
        errors = []

        def worker(tid: int):
            try:
                barrier.wait()
                for r in range(20):
                    start = (tid * 5 + r * 3) % len(pairs)
                    batch = (pairs + pairs)[start : start + 8]
                    compute_level_arrivals(
                        [[pair] for pair in batch], trim_eps=1e-9,
                        backend="direct", counter=counters[tid],
                        cache=cache,
                    )
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        def evictor():
            try:
                barrier.wait()
                while not stop.is_set():
                    cache.evict_to_bytes(cache.approx_bytes // 2)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(t,))
                for t in range(self.N_THREADS)
            ]
            churn = threading.Thread(target=evictor)
            for t in threads + [churn]:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stop.set()
            churn.join(timeout=120)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads + [churn])
        assert not errors, errors
        hits, misses, _evictions = cache.stats.snapshot()
        assert hits == sum(c.convolve_cache_hits for c in counters)
        assert misses == sum(c.convolutions for c in counters)
        assert hits + misses == self.N_THREADS * 20 * 8
        assert len(cache) <= cache.capacity
        assert cache.approx_bytes == recount_bytes(cache)

    def test_concurrent_mixed_kind_requests(self):
        """One-arc and two-part node entries share one locked LRU."""
        import threading

        cache = ConvolutionCache(1 << 10)
        backend = get_backend("direct")
        pairs = self._operands(12)
        barrier = threading.Barrier(3)
        errors = []

        def adds():
            try:
                barrier.wait()
                for _ in range(40):
                    for a, b in pairs:
                        if lookup_arc(cache, a, b, 1e-9, backend) is None:
                            r = convolve(a, b, trim_eps=1e-9, backend=backend)
                            store_arc(cache, a, b, 1e-9, backend, r)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def nodes():
            try:
                barrier.wait()
                for _ in range(40):
                    for a, b in pairs:
                        key = cache.node_key([(a, b), (b, None)], 1e-9,
                                             backend)
                        if cache.lookup_node(key, backend) is None:
                            r = stat_max_many([a, b], trim_eps=1e-9)
                            cache.store_node(key, r, backend)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def evictor():
            try:
                barrier.wait()
                for _ in range(40):
                    cache.evict_to_bytes(max(0, cache.approx_bytes - 4096))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=f)
                   for f in (adds, nodes, evictor)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        snap_hits, snap_misses, snap_evictions = cache.stats.snapshot()
        assert snap_hits + snap_misses == cache.stats.requests
        assert snap_evictions >= 0
        assert len(cache) <= cache.capacity


class TestByteBudget:
    def test_approx_bytes_tracks_entries(self):
        cache = ConvolutionCache(64)
        assert cache.approx_bytes == 0
        a = DiscretePDF(2.0, 0, np.ones(8))
        b = DiscretePDF(2.0, 1, np.ones(4))
        r = convolve(a, b, trim_eps=1e-9, backend="direct")
        store_arc(cache, a, b, 1e-9, get_backend("direct"), r)
        one = cache.approx_bytes
        assert one > 0
        cache.clear()
        assert cache.approx_bytes == 0
        assert len(cache) == 0

    def test_evict_to_bytes_drops_lru_first(self):
        backend = get_backend("direct")
        cache = ConvolutionCache(64)
        rng = np.random.default_rng(3)
        pairs = []
        for i in range(6):
            a = DiscretePDF(2.0, i, rng.random(8) + 1e-3)
            b = DiscretePDF(2.0, 2 * i, rng.random(8) + 1e-3)
            r = convolve(a, b, trim_eps=1e-9, backend=backend)
            store_arc(cache, a, b, 1e-9, backend, r)
            pairs.append((a, b))
        full = cache.approx_bytes
        evicted = cache.evict_to_bytes(full // 2)
        assert evicted > 0
        assert cache.approx_bytes <= full // 2
        assert cache.stats.evictions == evicted
        # The survivors are the most recently used (the last stores).
        hits = [
            lookup_arc(cache, a, b, 1e-9, backend) is not None
            for a, b in pairs
        ]
        assert hits == sorted(hits)  # False... then True...
        assert any(hits) and not all(hits)

    def test_evict_to_zero_and_negative_budget(self):
        backend = get_backend("direct")
        cache = ConvolutionCache(8)
        a = DiscretePDF(2.0, 0, np.ones(4))
        b = DiscretePDF(2.0, 0, np.ones(3))
        r = convolve(a, b, trim_eps=1e-9, backend=backend)
        store_arc(cache, a, b, 1e-9, backend, r)
        assert cache.evict_to_bytes(0) == 1
        assert len(cache) == 0
        with pytest.raises(DistributionError, match="budget"):
            cache.evict_to_bytes(-1)

    def test_snapshot_load_restores_byte_accounting(self, tmp_path):
        backend = get_backend("direct")
        cache = ConvolutionCache(8)
        a = DiscretePDF(2.0, 0, np.ones(4))
        b = DiscretePDF(2.0, 0, np.ones(3))
        r = convolve(a, b, trim_eps=1e-9, backend=backend)
        store_arc(cache, a, b, 1e-9, backend, r)
        path = tmp_path / "snap.cache"
        cache.save(path)
        loaded = ConvolutionCache.load(path)
        assert loaded.approx_bytes == cache.approx_bytes


#: Operations the byte-accounting property mixes: stores of every kind
#: (a repeated node key replaces its entry with a different-sized one),
#: LRU-refreshing lookups, byte-budget eviction, snapshot reloads (with
#: and without a capacity cut) and snapshot merges.
_BYTE_OPS = st.one_of(
    st.tuples(st.just("arc"), st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.just("node"), st.integers(0, 1), st.integers(1, 40)),
    st.tuples(st.just("node"), st.integers(0, 1), st.integers(1, 40)),
    st.tuples(st.just("lookup"), st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.just("evict"), st.floats(0.0, 1.0), st.just(0)),
    st.tuples(st.just("load"), st.sampled_from([None, 1, 3]), st.just(0)),
    st.tuples(st.just("merge"), st.sampled_from([2, 64]), st.just(0)),
)


class TestByteAccountingProperty:
    """``approx_bytes`` is a running tally kept at store, replace and
    evict time; it must always equal a from-scratch recount."""

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(1, 6),
        ops=st.lists(_BYTE_OPS, min_size=1, max_size=30),
    )
    def test_running_tally_equals_recount(self, capacity, ops):
        import tempfile
        from pathlib import Path

        backend = get_backend("direct")
        rng = np.random.default_rng(11)
        pool = [
            DiscretePDF(2.0, i, rng.random(3 + 2 * i) + 1e-3)
            for i in range(6)
        ]
        cache = ConvolutionCache(capacity)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            other = ConvolutionCache(8)
            arc_node(pool[0], pool[5], trim_eps=1e-9, backend=backend,
                     cache=other)
            other_path = tmp / "other.snap"
            other.save(other_path)
            for step, (kind, x, y) in enumerate(ops):
                if kind == "arc":
                    arc_node(pool[x], pool[y], trim_eps=1e-9,
                             backend=backend, cache=cache)
                elif kind == "node":
                    result = DiscretePDF(2.0, 0, np.ones(y))
                    cache.store_node(("k", x), result, backend)
                elif kind == "lookup":
                    lookup_arc(cache, pool[x], pool[y], 1e-9, backend)
                elif kind == "evict":
                    cache.evict_to_bytes(int(cache.approx_bytes * x))
                elif kind == "load":
                    path = tmp / f"s{step}.snap"
                    cache.save(path)
                    cache = ConvolutionCache.load(path, capacity=x)
                else:
                    path = tmp / f"s{step}.snap"
                    merged = tmp / f"m{step}.snap"
                    cache.save(path)
                    ConvolutionCache.merge_snapshots(
                        [path, other_path], merged, capacity=x
                    )
                    cache = ConvolutionCache.load(merged, capacity=capacity)
                assert len(cache) <= cache.capacity
                assert cache.approx_bytes == recount_bytes(cache)


class TestOneLockPerBatch:
    """The cache's operation mutex is its stats' lock, and the level
    scheduler takes it once per node probe and once per store."""

    class _CountingLock:
        def __init__(self, lock):
            self._lock = lock
            self.acquired = 0

        def __enter__(self):
            self.acquired += 1
            return self._lock.__enter__()

        def __exit__(self, *exc):
            return self._lock.__exit__(*exc)

    def test_stats_share_the_cache_lock(self):
        import pickle

        cache = ConvolutionCache(8)
        assert cache._lock is cache.stats._lock
        clone = pickle.loads(pickle.dumps(cache))
        assert clone._lock is clone.stats._lock
        assert clone._lock is not cache._lock

    def _pairs(self):
        rng = np.random.default_rng(5)
        return [
            (DiscretePDF(2.0, i, rng.random(5) + 1e-3),
             DiscretePDF(2.0, 3, rng.random(4) + 1e-3))
            for i in range(8)
        ]

    def test_level_locks_once_per_probe_and_store(self):
        cache = ConvolutionCache(64)
        spy = cache._lock = self._CountingLock(cache._lock)
        parts_list = [[pair] for pair in self._pairs()]
        compute_level_arrivals(parts_list, trim_eps=1e-9, backend="direct",
                               cache=cache)
        assert spy.acquired == 16
        assert cache.stats.snapshot() == (0, 8, 0)
        spy.acquired = 0
        compute_level_arrivals(parts_list, trim_eps=1e-9, backend="direct",
                               cache=cache)
        assert spy.acquired == 8
        assert cache.stats.snapshot() == (8, 8, 0)


class TestMergeSnapshots:
    """The multi-worker front's reconciliation primitive: fold several
    per-worker snapshot files into one, union of entries, later paths
    winning LRU position, unreadable contributors skipped."""

    def _snap(self, tmp_path, name, mus):
        kernel = get_backend("direct")
        cache = ConvolutionCache()
        pairs = []
        for mu in mus:
            a = truncated_gaussian_pdf(2.0, mu, mu / 15.0)
            b = truncated_gaussian_pdf(2.0, mu / 2.0, mu / 25.0)
            arc_node(a, b, trim_eps=1e-9, backend=kernel, cache=cache)
            pairs.append((a, b))
        path = tmp_path / name
        cache.save(path)
        return path, pairs, kernel

    def test_union_of_disjoint_workers(self, tmp_path):
        p0, pairs0, kernel = self._snap(tmp_path, "w0", [300.0, 400.0])
        p1, pairs1, _ = self._snap(tmp_path, "w1", [500.0, 600.0])
        out = tmp_path / "base"
        n = ConvolutionCache.merge_snapshots([p0, p1], out)
        assert n == 4
        merged = ConvolutionCache.load(out)
        for a, b in pairs0 + pairs1:
            assert lookup_arc(merged, a, b, 1e-9, kernel) is not None

    def test_overlap_dedupes_and_replays_bitwise(self, tmp_path):
        p0, pairs0, kernel = self._snap(tmp_path, "w0", [300.0, 400.0])
        p1, pairs1, _ = self._snap(tmp_path, "w1", [400.0, 500.0])
        out = tmp_path / "base"
        n = ConvolutionCache.merge_snapshots([p0, p1], out)
        assert n == 3  # 400.0 pair is content-identical in both
        merged = ConvolutionCache.load(out)
        a, b = pairs0[1]
        hit = lookup_arc(merged, a, b, 1e-9, kernel)
        plain = convolve(a, b, trim_eps=1e-9, backend=kernel)
        assert hit is not None
        assert_bitwise(hit, plain)

    def test_missing_and_corrupt_contributors_skipped(self, tmp_path):
        p0, pairs0, kernel = self._snap(tmp_path, "w0", [300.0])
        corrupt = tmp_path / "w1"
        corrupt.write_bytes(b"not a snapshot")
        out = tmp_path / "base"
        n = ConvolutionCache.merge_snapshots(
            [p0, corrupt, tmp_path / "missing"], out
        )
        assert n == 1
        assert len(ConvolutionCache.load(out)) == 1

    def test_no_contributors_leaves_target_untouched(self, tmp_path):
        out = tmp_path / "base"
        out.write_bytes(b"sentinel")
        n = ConvolutionCache.merge_snapshots(
            [tmp_path / "missing"], out
        )
        assert n == 0
        assert out.read_bytes() == b"sentinel"

    def test_capacity_trims_lru_first(self, tmp_path):
        p0, pairs0, kernel = self._snap(
            tmp_path, "w0", [300.0, 400.0, 500.0]
        )
        out = tmp_path / "base"
        n = ConvolutionCache.merge_snapshots([p0], out, capacity=2)
        assert n == 2
        merged = ConvolutionCache.load(out)
        a, b = pairs0[-1]  # most recent survives
        assert lookup_arc(merged, a, b, 1e-9, kernel) is not None

    def test_merge_into_a_contributor_path(self, tmp_path):
        """The front merges {base, workers...} back INTO base; the
        in-place case must not corrupt (load-all-then-write)."""
        p0, pairs0, kernel = self._snap(tmp_path, "base", [300.0])
        p1, pairs1, _ = self._snap(tmp_path, "base.w0", [500.0])
        n = ConvolutionCache.merge_snapshots([p0, p1], p0)
        assert n == 2
        merged = ConvolutionCache.load(p0)
        for a, b in pairs0 + pairs1:
            assert lookup_arc(merged, a, b, 1e-9, kernel) is not None


class TestConcurrentSaveRace:
    def test_parallel_saves_to_one_path_never_corrupt(self, tmp_path):
        """Regression: save() used a pid-only temp name, so two
        writers in one process (periodic flusher vs SIGTERM drain)
        could interleave pickles in one temp file.  Per-writer temp
        names make any interleaving of saves end with a loadable
        snapshot and no leftover temp litter."""
        kernel = get_backend("direct")
        cache = ConvolutionCache()
        for mu in (300.0, 400.0, 500.0):
            a = truncated_gaussian_pdf(2.0, mu, mu / 15.0)
            b = truncated_gaussian_pdf(2.0, mu / 2.0, mu / 25.0)
            arc_node(a, b, trim_eps=1e-9, backend=kernel, cache=cache)
        path = tmp_path / "snap.cache"
        errors = []

        def hammer():
            try:
                for _ in range(25):
                    cache.save(path)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        import threading as _threading

        threads = [_threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        loaded = ConvolutionCache.load(path)
        assert len(loaded) == len(cache)
        assert list(tmp_path.glob("*.tmp.*")) == []
