"""Unit tests for the ADD/MAX kernels and the OpCounter instrument."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.families import truncated_gaussian_pdf
from repro.dist.metrics import stochastically_le
from repro.dist.ops import OpCounter, convolve, stat_max, stat_max_many
from repro.dist.pdf import DiscretePDF
from repro.errors import DistributionError, GridMismatchError


@pytest.fixture
def g_small():
    return truncated_gaussian_pdf(1.0, 50.0, 5.0)


@pytest.fixture
def g_large():
    return truncated_gaussian_pdf(1.0, 80.0, 8.0)


class TestConvolve:
    def test_conserves_mass(self, g_small, g_large):
        c = convolve(g_small, g_large)
        assert c.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_adds_means(self, g_small, g_large):
        c = convolve(g_small, g_large)
        assert c.mean() == pytest.approx(g_small.mean() + g_large.mean(), abs=1e-9)

    def test_adds_variances(self, g_small, g_large):
        c = convolve(g_small, g_large)
        assert c.var() == pytest.approx(g_small.var() + g_large.var(), rel=1e-9)

    def test_commutative(self, g_small, g_large):
        ab = convolve(g_small, g_large)
        ba = convolve(g_large, g_small)
        assert ab.offset == ba.offset
        assert np.allclose(ab.masses, ba.masses, atol=1e-15)

    def test_delta_is_identity_shift(self, g_small):
        shift = DiscretePDF.delta(1.0, 10.0)
        c = convolve(g_small, shift)
        assert c.offset == g_small.offset + 10
        # Identical up to one renormalization rounding (sum is 1 +- ulp).
        assert np.allclose(c.masses, g_small.masses, atol=1e-15, rtol=0.0)

    def test_grid_mismatch_rejected(self, g_small):
        other = truncated_gaussian_pdf(2.0, 50.0, 5.0)
        with pytest.raises(GridMismatchError):
            convolve(g_small, other)

    def test_trimming_bounds_loss(self, g_small, g_large):
        eps = 1e-6
        c = convolve(g_small, g_large, trim_eps=eps)
        full = convolve(g_small, g_large)
        assert c.n_bins <= full.n_bins
        assert abs(c.mean() - full.mean()) < eps * 1000


class TestStatMax:
    def test_cdf_is_product(self, g_small, g_large):
        m = stat_max(g_small, g_large)
        ts = m.times
        expected = np.asarray(g_small.cdf_at(ts)) * np.asarray(g_large.cdf_at(ts))
        # Product relation holds at grid knots (modulo the interpolant's
        # leading-ramp handling at the very first bin).
        assert np.allclose(np.asarray(m.cdf_at(ts))[1:], expected[1:], atol=1e-9)

    def test_commutative(self, g_small, g_large):
        ab = stat_max(g_small, g_large)
        ba = stat_max(g_large, g_small)
        assert ab.offset == ba.offset
        assert np.allclose(ab.masses, ba.masses, atol=1e-15)

    def test_associative(self, g_small, g_large):
        g3 = truncated_gaussian_pdf(1.0, 60.0, 6.0)
        left = stat_max(stat_max(g_small, g_large), g3)
        right = stat_max(g_small, stat_max(g_large, g3))
        assert left.offset == right.offset
        assert np.allclose(left.masses, right.masses, atol=1e-12)

    def test_dominates_both_operands(self, g_small, g_large):
        m = stat_max(g_small, g_large)
        assert stochastically_le(g_small, m)
        assert stochastically_le(g_large, m)

    def test_idempotent_on_identical(self, g_small):
        m = stat_max(g_small, g_small)
        # max of iid copies is later than either copy but within support
        assert m.support[1] == g_small.support[1]
        assert m.mean() >= g_small.mean()

    def test_disjoint_supports_picks_later(self, g_small):
        late = truncated_gaussian_pdf(1.0, 500.0, 5.0)
        m = stat_max(g_small, late)
        assert m.allclose(late, atol=1e-12)

    def test_grid_mismatch_rejected(self, g_small):
        with pytest.raises(GridMismatchError):
            stat_max(g_small, truncated_gaussian_pdf(2.0, 50.0, 5.0))


class TestStatMaxMany:
    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            stat_max_many([])

    def test_single_passthrough(self, g_small):
        assert stat_max_many([g_small]) is g_small

    def test_matches_pairwise_fold(self, g_small, g_large):
        g3 = truncated_gaussian_pdf(1.0, 60.0, 6.0)
        many = stat_max_many([g_small, g_large, g3])
        fold = stat_max(stat_max(g_small, g_large), g3)
        assert many.offset == fold.offset
        assert np.allclose(many.masses, fold.masses, atol=1e-12)

    def test_pair_matches_stat_max_bitwise(self, g_small, g_large):
        many = stat_max_many([g_small, g_large])
        pair = stat_max(g_small, g_large)
        assert many.offset == pair.offset
        assert np.array_equal(many.masses, pair.masses)

    def test_dominates_every_operand(self, g_small, g_large):
        ops = [g_small, g_large, truncated_gaussian_pdf(1.0, 65.0, 3.0)]
        m = stat_max_many(ops)
        for op in ops:
            assert stochastically_le(op, m)


class TestOpCounter:
    def test_hand_computed_totals(self, g_small, g_large):
        """3 convolutions + one 3-way max (2 reductions) + one pair (1)."""
        counter = OpCounter()
        c1 = convolve(g_small, g_large, counter=counter)
        c2 = convolve(g_small, g_small, counter=counter)
        c3 = convolve(g_large, g_large, counter=counter)
        stat_max_many([c1, c2, c3], counter=counter)
        stat_max(c1, c2, counter=counter)
        assert counter.convolutions == 3
        assert counter.max_ops == 3
        assert counter.total_ops == 6

    def test_single_operand_max_costs_nothing(self, g_small):
        counter = OpCounter()
        stat_max_many([g_small], counter=counter)
        assert counter.total_ops == 0

    def test_none_counter_is_silent(self, g_small, g_large):
        convolve(g_small, g_large)  # must not raise
        stat_max(g_small, g_large)

    def test_merge_and_reset(self):
        a = OpCounter(convolutions=2, max_ops=1)
        b = OpCounter(convolutions=3, max_ops=4)
        a.merge(b)
        assert (a.convolutions, a.max_ops) == (5, 5)
        a.reset()
        assert a.total_ops == 0

    def test_counting_does_not_change_results(self, g_small, g_large):
        counter = OpCounter()
        with_c = convolve(g_small, g_large, counter=counter)
        without = convolve(g_small, g_large)
        assert with_c.offset == without.offset
        assert np.array_equal(with_c.masses, without.masses)

    @given(
        deltas=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=50),
            ),
            min_size=0,
            max_size=12,
        ),
        order_seed=st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_is_order_invariant(self, deltas, order_seed):
        """The parallel execution layer's accounting contract: merging
        N per-shard counters in *any* order equals the sequential
        tally.  Shard completion order is nondeterministic, so the
        aggregate must not depend on it."""
        shards = [
            OpCounter(convolutions=c, max_ops=m,
                      convolve_cache_hits=ch, max_cache_hits=mh)
            for c, m, ch, mh in deltas
        ]
        sequential = OpCounter()
        for shard in shards:
            sequential.merge(shard)
        shuffled = list(shards)
        order_seed.shuffle(shuffled)
        scrambled = OpCounter()
        for shard in shuffled:
            scrambled.merge(shard)
        assert (
            scrambled.convolutions,
            scrambled.max_ops,
            scrambled.convolve_cache_hits,
            scrambled.max_cache_hits,
        ) == (
            sequential.convolutions,
            sequential.max_ops,
            sequential.convolve_cache_hits,
            sequential.max_cache_hits,
        )
        # Merging never leaks shard-local tallies into other fields.
        assert scrambled.total_requests == sum(
            s.total_requests for s in shards
        )


def _arc_node(a, b, *, counter=None, cache=None):
    """A one-arc node's arrival through the level scheduler, the
    engines' cached path (node-memo hits tally as ADD hits)."""
    from repro.timing.ssta import compute_level_arrivals

    return compute_level_arrivals(
        [[(a, b)]], trim_eps=0.0, counter=counter, cache=cache
    )[0]


class TestOpCounterCacheAccounting:
    """Cache hits are recorded distinctly — they must never inflate
    the computed mult/add tallies, and computed-plus-hits must be
    invariant under the cache knob."""

    def _run_sequence(self, g_small, g_large, cache):
        counter = OpCounter()
        g3 = truncated_gaussian_pdf(1.0, 60.0, 6.0)
        for _ in range(3):  # repeats: the cacheable shape
            _arc_node(g_small, g_large, counter=counter, cache=cache)
            _arc_node(g_small, g3, counter=counter, cache=cache)
            stat_max_many([g_small, g_large, g3], counter=counter)
        return counter

    def test_hits_tallied_separately_not_as_convolutions(
        self, g_small, g_large
    ):
        from repro.dist.cache import ConvolutionCache

        counter = OpCounter()
        cache = ConvolutionCache()
        _arc_node(g_small, g_large, counter=counter, cache=cache)
        _arc_node(g_small, g_large, counter=counter, cache=cache)
        assert counter.convolutions == 1
        assert counter.convolve_cache_hits == 1
        # MAX has no memo: both requests compute.
        stat_max_many([g_small, g_large], counter=counter)
        stat_max_many([g_small, g_large], counter=counter)
        assert counter.max_ops == 2
        assert counter.max_cache_hits == 0
        assert counter.total_ops == 3  # computed work only
        assert counter.cache_hits == 1
        assert counter.total_requests == 4

    def test_tallies_cache_invariant_for_misses(self, g_small, g_large):
        """First-touch (all-miss) tallies equal the cache-off tallies,
        and computed + hits always equals the cache-off totals."""
        from repro.dist.cache import ConvolutionCache

        off = self._run_sequence(g_small, g_large, None)
        on = self._run_sequence(g_small, g_large, ConvolutionCache())
        cold = self._run_sequence(
            g_small, g_large, ConvolutionCache(capacity=1)
        )  # capacity 1 churns: some repeats still miss
        assert off.cache_hits == 0
        assert on.convolutions + on.convolve_cache_hits == off.convolutions
        assert (on.max_ops, on.max_cache_hits) == (off.max_ops, 0)
        assert on.total_requests == off.total_requests
        assert cold.convolutions + cold.convolve_cache_hits == off.convolutions
        assert (cold.max_ops, cold.max_cache_hits) == (off.max_ops, 0)

    def test_merge_preserves_hit_fields_distinctly(self):
        a = OpCounter(convolutions=2, max_ops=1, convolve_cache_hits=5,
                      max_cache_hits=2)
        b = OpCounter(convolutions=1, max_ops=1, convolve_cache_hits=3,
                      max_cache_hits=4)
        a.merge(b)
        assert a.convolutions == 3  # hits did not leak into mult/adds
        assert a.max_ops == 2
        assert a.convolve_cache_hits == 8
        assert a.max_cache_hits == 6
        a.reset()
        assert a.total_requests == 0

    def test_hit_rate(self):
        c = OpCounter()
        assert c.cache_hit_rate == 0.0
        c.convolutions, c.convolve_cache_hits = 1, 3
        assert c.cache_hit_rate == pytest.approx(0.75)

    def test_cached_counting_does_not_change_results(self, g_small, g_large):
        from repro.dist.cache import ConvolutionCache

        cache = ConvolutionCache()
        counter = OpCounter()
        plain = _arc_node(g_small, g_large)
        for _ in range(2):
            cached = _arc_node(
                g_small, g_large, counter=counter, cache=cache
            )
            assert cached.offset == plain.offset
            assert np.array_equal(cached.masses, plain.masses)


class TestStatMaxGroups:
    """The grouped MAX sweep: per-group results and tallies must be
    indistinguishable from looping ``stat_max_many``."""

    def _groups(self, g_small, g_large):
        g3 = truncated_gaussian_pdf(1.0, 65.0, 6.0)
        far = truncated_gaussian_pdf(1.0, 500.0, 4.0)  # disjoint support
        return [
            [g_small, g_large],
            [g_small, far],
            [g_small, g_large, g3],
            [g3],                       # single operand: trim-through
            [g_small, g_large],         # duplicate of group 0
        ]

    def test_bitwise_vs_looped(self, g_small, g_large):
        from repro.dist.ops import stat_max_groups

        groups = self._groups(g_small, g_large)
        batched = stat_max_groups(groups, trim_eps=1e-9)
        looped = [stat_max_many(g, trim_eps=1e-9) for g in groups]
        for b, s in zip(batched, looped):
            assert b.offset == s.offset
            assert np.array_equal(b.masses, s.masses)

    def test_single_operand_passthrough_matches_stat_max_many(self, g_small):
        from repro.dist.ops import stat_max_groups

        counter = OpCounter()
        (out,) = stat_max_groups([[g_small]], counter=counter)
        assert out is g_small  # trimmed() returns self when untouched
        assert counter.total_requests == 0

    def test_empty_batch(self):
        from repro.dist.ops import stat_max_groups

        assert stat_max_groups([]) == []

    def test_empty_group_rejected(self, g_small):
        from repro.dist.ops import stat_max_groups

        with pytest.raises(DistributionError):
            stat_max_groups([[g_small], []])

    def test_grid_mismatch_rejected(self, g_small):
        from repro.dist.ops import stat_max_groups

        other = truncated_gaussian_pdf(2.0, 50.0, 5.0)
        with pytest.raises(GridMismatchError):
            stat_max_groups([[g_small, other]])

    def test_tallies_match_looped(self, g_small, g_large):
        """Computed op counts are identical between the grouped sweep
        and the sequential loop, and no MAX request is a cache hit."""
        from repro.dist.ops import stat_max_groups

        groups = self._groups(g_small, g_large)
        cb, cs = OpCounter(), OpCounter()
        stat_max_groups(groups, counter=cb)
        for g in groups:
            stat_max_many(g, counter=cs)
        assert (cb.max_ops, cb.max_cache_hits) == (cs.max_ops, 0)
        assert cs.max_cache_hits == 0
        assert (cb.convolutions, cb.convolve_cache_hits) == (0, 0)

    def test_mixed_shapes_partition_correctly(self):
        """Groups of different operand counts and union widths stack
        into separate products yet come back in input order."""
        from repro.dist.ops import stat_max_groups

        mk = lambda c, s: truncated_gaussian_pdf(1.0, c, s)  # noqa: E731
        groups = [
            [mk(50.0, 5.0), mk(52.0, 5.0)],     # shape A
            [mk(90.0, 9.0), mk(94.0, 9.0), mk(92.0, 9.0)],
            [mk(51.0, 5.0), mk(53.0, 5.0)],     # shape A again
            [DiscretePDF.delta(1.0, 10.0), DiscretePDF.delta(1.0, 12.0)],
        ]
        batched = stat_max_groups(groups)
        for b, g in zip(batched, groups):
            ref = stat_max_many(g)
            assert b.offset == ref.offset
            assert np.array_equal(b.masses, ref.masses)
