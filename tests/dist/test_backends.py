"""Cross-backend equivalence harness for the convolution kernels.

The FFT backend exists to kill the O(n^2) convolution wall, but the
pruned sizer's guarantees are stated over *reproducible statistics*, so
the speedup only counts if every backend computes the same
distributions.  These tests pin that equivalence:

* Hypothesis property tests assert FFT == direct within 1e-12
  total-variation over random trimmed PDFs, including deltas,
  single-bin operands, disjoint-offset supports, and operands whose
  cumulative sums carry rounding mass deficits;
* the ``auto`` backend is *bitwise* the direct kernel below its
  crossover (the property the default config leans on);
* :class:`~repro.dist.ops.OpCounter` tallies are invariant under the
  backend choice — work statistics count statistical operations, not
  implementation FLOPs;
* the ``_padded_cdfs`` mass renormalization is pinned against the old
  deflating behavior (regression for the trimming bias fix).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AnalysisConfig
from repro.dist.backends import (
    AutoBackend,
    DirectBackend,
    FFTBackend,
    available_backends,
    get_backend,
)
from repro.dist.ops import OpCounter, _padded_cdfs, convolve, stat_max, stat_max_many
from repro.dist.pdf import DiscretePDF
from repro.errors import DistributionError

#: From the registry, so a new backend lands in every loop below.
ALL_BACKENDS = available_backends()

#: The harness's equivalence budget (ISSUE headline tolerance).
TV_TOL = 1e-12


@st.composite
def pdfs(draw, max_bins: int = 64, max_offset: int = 200):
    """Random trimmed PDFs, adversarial for mass accounting.

    Masses span up to 14 decades, which makes cumulative sums carry
    visible rounding deficits (``cdf[-1] != 1.0``), and a random trim
    exercises lumped boundary bins — the two shapes the mass-handling
    bugs hide in.  Deltas arise naturally from ``n == 1``.
    """
    n = draw(st.integers(min_value=1, max_value=max_bins))
    exponents = draw(
        st.lists(
            st.integers(min_value=-14, max_value=0), min_size=n, max_size=n
        )
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
    trim = draw(st.sampled_from([0.0, 0.0, 1e-12, 1e-6, 1e-3]))
    return pdf.trimmed(trim)


class TestFFTDirectEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(a=pdfs(), b=pdfs())
    def test_fft_matches_direct_within_tv_budget(self, a, b):
        d = convolve(a, b, backend="direct")
        f = convolve(a, b, backend="fft")
        assert f.dt == d.dt
        # Supports may differ only by bins below FFT resolution (masses
        # under ~eps relative to the peak clamp to exact zero and the
        # zero boundary bins are stripped); tv_distance aligns the
        # union grid, so the budget covers structure too.
        assert d.tv_distance(f) <= TV_TOL

    @settings(max_examples=60, deadline=None)
    @given(a=pdfs(), b=pdfs())
    def test_fft_matches_direct_after_trimming(self, a, b):
        d = convolve(a, b, trim_eps=1e-9, backend="direct")
        f = convolve(a, b, trim_eps=1e-9, backend="fft")
        assert d.tv_distance(f) <= TV_TOL

    @settings(max_examples=60, deadline=None)
    @given(a=pdfs(), b=pdfs())
    def test_fft_result_honors_pdf_contract(self, a, b):
        f = convolve(a, b, backend="fft")
        assert np.all(f.masses >= 0.0)
        assert abs(f.masses.sum() - 1.0) < 1e-12

    def test_delta_times_delta(self):
        a = DiscretePDF.delta(2.0, 100.0)
        b = DiscretePDF.delta(2.0, -30.0)
        d = convolve(a, b, backend="direct")
        f = convolve(a, b, backend="fft")
        assert f.offset == d.offset == 35
        assert d.tv_distance(f) <= TV_TOL

    def test_delta_times_wide(self):
        rng = np.random.default_rng(3)
        wide = DiscretePDF(2.0, -40, rng.random(900))
        delta = DiscretePDF.delta(2.0, 64.0)
        d = convolve(delta, wide, backend="direct")
        f = convolve(delta, wide, backend="fft")
        assert d.tv_distance(f) <= TV_TOL

    def test_single_bin_operands(self):
        a = DiscretePDF(2.0, 5, np.asarray([3.0]))
        b = DiscretePDF(2.0, -2, np.asarray([0.25]))
        for backend in ALL_BACKENDS:
            c = convolve(a, b, backend=backend)
            assert c.offset == 3
            assert c.n_bins == 1
            assert c.masses[0] == 1.0

    def test_disjoint_offset_supports(self):
        rng = np.random.default_rng(11)
        a = DiscretePDF(2.0, -100_000, rng.random(80))
        b = DiscretePDF(2.0, +100_000, rng.random(80))
        d = convolve(a, b, backend="direct")
        f = convolve(a, b, backend="fft")
        assert d.offset == f.offset == 0  # offsets add, far supports cancel
        assert d.n_bins == f.n_bins == 159
        assert d.tv_distance(f) <= TV_TOL

    def test_mass_deficient_cumsum_operands(self):
        # Masses spanning many magnitudes make cumsum end a few ulp
        # from 1 (the "mass-deficient" shape); convolution equivalence
        # must be unaffected.
        rng = np.random.default_rng(1)
        m = rng.random(37) * 10.0 ** rng.integers(-12, 0, 37)
        a = DiscretePDF(2.0, 0, m)
        assert a._cdf[-1] != 1.0  # the shape is actually adversarial
        b = DiscretePDF(2.0, 4, rng.random(21))
        d = convolve(a, b, backend="direct")
        f = convolve(a, b, backend="fft")
        assert d.tv_distance(f) <= TV_TOL

    def test_large_operands_stay_within_budget(self):
        rng = np.random.default_rng(5)
        a = DiscretePDF(1.0, 0, rng.random(4096))
        b = DiscretePDF(1.0, 100, rng.random(4096))
        d = convolve(a, b, backend="direct")
        f = convolve(a, b, backend="fft")
        assert d.tv_distance(f) <= TV_TOL
        # percentile drift is bounded by the TV budget over the support
        for p in (0.5, 0.9, 0.99):
            assert abs(d.percentile(p) - f.percentile(p)) < 1e-6


class TestAutoBackend:
    @settings(max_examples=100, deadline=None)
    @given(a=pdfs(), b=pdfs())
    def test_auto_is_bitwise_direct_below_crossover(self, a, b):
        # max_bins=64 operands sit far below the ~512-bin crossover.
        d = convolve(a, b, backend="direct")
        c = convolve(a, b, backend="auto")
        assert c.offset == d.offset
        assert np.array_equal(c.masses, d.masses)

    def test_dispatch_small_pairs_direct(self):
        auto = AutoBackend()
        assert auto.chooses(33, 33) == "direct"
        assert auto.chooses(129, 129) == "direct"

    def test_dispatch_large_equal_pairs_fft(self):
        auto = AutoBackend()
        assert auto.chooses(2048, 2048) == "fft"
        assert auto.chooses(8193, 8193) == "fft"

    def test_dispatch_asymmetric_pairs_direct(self):
        # Direct convolution with a tiny operand is O(N) — always wins.
        auto = AutoBackend()
        assert auto.chooses(1, 8193) == "direct"
        assert auto.chooses(33, 8193) == "direct"

    def test_dispatch_matches_kernel_used(self):
        rng = np.random.default_rng(9)
        a = DiscretePDF(1.0, 0, rng.random(2048))
        b = DiscretePDF(1.0, 0, rng.random(2048))
        assert AutoBackend().chooses(a.n_bins, b.n_bins) == "fft"
        via_auto = convolve(a, b, backend="auto")
        via_fft = convolve(a, b, backend="fft")
        assert np.array_equal(via_auto.masses, via_fft.masses)

    def test_invalid_cost_ratio_rejected(self):
        with pytest.raises(DistributionError):
            AutoBackend(cost_ratio=0.0)

    def test_direct_bound_at_default_ratio(self):
        assert AutoBackend().direct_below == 994

    @pytest.mark.parametrize("cost_ratio", [25.0, 7.5, 50.0])
    def test_chooses_equals_cost_formula_across_bound(self, cost_ratio):
        # The short-pair fast path must pick exactly what the formula
        # picks, on every split whose output length crosses the bound.
        auto = AutoBackend(cost_ratio=cost_ratio)
        bound = auto.direct_below
        sizes = sorted(
            {1, 2, 3, 5}
            | set(range(1, bound + 40, 9))
            | set(range(max(1, bound // 2 - 25), bound // 2 + 25))
            | set(range(max(1, bound - 20), bound + 20))
        )
        flips = 0
        for n_a in sizes:
            for n_b in sizes:
                n_out = n_a + n_b - 1
                cost = cost_ratio * n_out * np.log2(n_out + 1)
                expected = "direct" if n_a * n_b <= cost else "fft"
                assert auto.chooses(n_a, n_b) == expected, (n_a, n_b)
                flips += expected == "fft"
        assert flips  # the grid reaches the FFT side

    @pytest.mark.parametrize("name", ["auto", "compiled-auto"])
    def test_convolve_many_kernel_per_pair(self, name):
        # Pairs on both sides of the bound: every row is bitwise the
        # kernel chooses() names for it.
        rng = np.random.default_rng(3)
        auto = get_backend(name)
        pairs = [
            (rng.random(n_a), rng.random(n_b))
            for n_a, n_b in [(1, 8), (496, 497), (497, 497), (498, 498),
                             (600, 600), (3, 2000), (1111, 1111),
                             (1112, 1112), (1200, 1200)]
        ]
        rows = auto.convolve_many(pairs)
        assert len(rows) == len(pairs)
        for (a, b), row in zip(pairs, rows):
            kernel = get_backend(auto.chooses(a.size, b.size))
            assert np.array_equal(row, kernel.convolve_masses(a, b))


class TestBackendRegistry:
    def test_available_backends(self):
        assert set(available_backends()) == {
            "direct", "fft", "auto", "compiled", "compiled-auto"
        }

    def test_get_backend_by_name(self):
        for name in ALL_BACKENDS:
            assert get_backend(name).name == name

    def test_get_backend_is_singleton_per_name(self):
        assert get_backend("fft") is get_backend("fft")

    def test_unknown_name_raises(self):
        with pytest.raises(DistributionError, match="unknown convolution"):
            get_backend("winograd")

    def test_instance_passthrough(self):
        mine = FFTBackend()
        assert get_backend(mine) is mine

    def test_non_backend_object_raises(self):
        with pytest.raises(DistributionError):
            get_backend(object())

    def test_config_accepts_known_backends(self):
        for name in ALL_BACKENDS:
            assert AnalysisConfig(backend=name).backend == name

    def test_config_rejects_unknown_backend(self):
        """A typo'd name raises DistributionError naming the available
        backends — the same failure surface get_backend presents."""
        with pytest.raises(DistributionError, match="unknown convolution"):
            AnalysisConfig(backend="winograd")

    def test_config_unknown_backend_error_lists_available(self):
        try:
            AnalysisConfig(backend="winograd")
        except DistributionError as exc:
            for name in available_backends():
                assert name in str(exc)
        else:  # pragma: no cover
            pytest.fail("unknown backend was accepted")


class TestFFTCache:
    def test_repeated_calls_bitwise_identical(self):
        rng = np.random.default_rng(21)
        a = rng.random(2048)
        b = rng.random(2048)
        backend = FFTBackend()
        first = backend.convolve_masses(a, b)
        second = backend.convolve_masses(a, b)  # cache hit
        assert np.array_equal(first, second)

    def test_cache_keys_by_identity_not_value(self):
        rng = np.random.default_rng(22)
        a = rng.random(2048)
        b = rng.random(2048)
        backend = FFTBackend()
        backend.convolve_masses(a, b)
        # An equal-valued but distinct array must not alias the entry.
        a2 = a.copy()
        out = backend.convolve_masses(a2, b)
        assert np.allclose(out, backend.convolve_masses(a, b))

    def test_dead_operands_leave_cache(self):
        backend = FFTBackend()
        rng = np.random.default_rng(23)
        a = rng.random(2048)
        b = rng.random(2048)
        backend.convolve_masses(a, b)
        assert len(backend._rfft_cache) == 2
        del a, b
        assert len(backend._rfft_cache) == 0  # weakref callbacks fired

    def test_small_operands_not_cached(self):
        backend = FFTBackend()
        rng = np.random.default_rng(24)
        backend.convolve_masses(rng.random(16), rng.random(16))
        assert len(backend._rfft_cache) == 0


class TestOpCounterInvariance:
    def test_convolve_tally_invariant(self):
        rng = np.random.default_rng(31)
        a = DiscretePDF(2.0, 0, rng.random(600))
        b = DiscretePDF(2.0, 9, rng.random(600))
        tallies = {}
        for backend in ALL_BACKENDS:
            counter = OpCounter()
            convolve(a, b, counter=counter, backend=backend)
            convolve(a, b, trim_eps=1e-9, counter=counter, backend=backend)
            tallies[backend] = (counter.convolutions, counter.max_ops)
        assert tallies["direct"] == tallies["fft"] == tallies["auto"] == (2, 0)

    def test_max_tally_invariant(self):
        rng = np.random.default_rng(32)
        fanin = [DiscretePDF(2.0, 3 * i, rng.random(40)) for i in range(5)]
        tallies = {}
        for backend in ALL_BACKENDS:
            counter = OpCounter()
            stat_max(fanin[0], fanin[1], counter=counter, backend=backend)
            stat_max_many(fanin, counter=counter, backend=backend)
            tallies[backend] = (counter.convolutions, counter.max_ops)
        assert tallies["direct"] == tallies["fft"] == tallies["auto"] == (0, 5)


class TestStatMaxManyEdgeCases:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_empty_raises(self, backend):
        with pytest.raises(DistributionError, match="at least one"):
            stat_max_many([], backend=backend)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_single_operand_passthrough(self, backend):
        rng = np.random.default_rng(41)
        p = DiscretePDF(2.0, -7, rng.random(30))
        out = stat_max_many([p], backend=backend)
        assert out is p  # untrimmed single operand passes through

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_single_operand_trims(self, backend):
        rng = np.random.default_rng(42)
        p = DiscretePDF(2.0, 0, rng.random(30) * 1e-6 + np.eye(30)[15])
        out = stat_max_many([p], trim_eps=1e-3, backend=backend)
        assert out.offset == p.trimmed(1e-3).offset
        assert np.array_equal(out.masses, p.trimmed(1e-3).masses)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_invalid_backend_rejected_even_for_single_operand(self, backend):
        p = DiscretePDF.delta(2.0, 10.0)
        with pytest.raises(DistributionError):
            stat_max_many([p], backend="bogus")


class TestPaddedCdfMassRenormalization:
    """Regression: trimmed/rounded operands used to deflate the MAX.

    ``_padded_cdfs`` carried each operand's final cumulative (1 minus a
    rounding deficit) rightwards, so the CDF product inherited every
    operand's deficit wherever its support had ended.  Rows are now
    renormalized to end at exactly 1.
    """

    @staticmethod
    def _adversarial_pdf(seed: int) -> DiscretePDF:
        rng = np.random.default_rng(seed)
        m = rng.random(37) * 10.0 ** rng.integers(-12, 0, 37)
        return DiscretePDF(2.0, int(rng.integers(-4, 4)), m)

    #: Seeds whose cumulative sums land strictly *below* 1 (rounding
    #: can overshoot too, but only deficits deflate the old product).
    UNDERSHOOT_SEEDS = (1, 8, 10)

    def test_rows_end_at_exactly_one(self):
        pdfs_ = [self._adversarial_pdf(s) for s in self.UNDERSHOOT_SEEDS]
        assert any(p._cdf[-1] != 1.0 for p in pdfs_)  # shape is real
        _lo, grid = _padded_cdfs(pdfs_)
        assert np.all(grid[:, -1] == 1.0)
        # rows stay monotone after renormalization
        assert np.all(np.diff(grid, axis=1) >= -1e-18)

    def test_max_cdf_reaches_one(self):
        pdfs_ = [self._adversarial_pdf(s) for s in (1, 8, 10, 13)]
        out = stat_max_many(pdfs_)
        assert out._cdf[-1] == pytest.approx(1.0, abs=1e-15)

    def test_old_vs_new_gap_pinned(self):
        """The fix is a few-ulp correction: pin both its existence and
        its magnitude so neither the bug nor a large behavior change
        can sneak back in."""
        pdfs_ = [self._adversarial_pdf(s) for s in self.UNDERSHOOT_SEEDS]
        assert all(p._cdf[-1] < 1.0 for p in pdfs_)
        lo = min(p.offset for p in pdfs_)
        hi = max(p.offset + p.n_bins for p in pdfs_)
        width = hi - lo
        old_grid = np.empty((len(pdfs_), width))
        for i, p in enumerate(pdfs_):
            start = p.offset - lo
            cs = p._cdf
            old_grid[i, :start] = 0.0
            old_grid[i, start : start + p.n_bins] = cs
            old_grid[i, start + p.n_bins :] = cs[-1]  # old deflation
        old_cdf = np.prod(old_grid, axis=0)
        out = stat_max_many(pdfs_)
        # Re-align onto the union grid (zero boundary bins strip off).
        new_masses = np.zeros(width)
        start = out.offset - lo
        new_masses[start : start + out.n_bins] = out.masses
        new_cdf = np.cumsum(new_masses)
        # old behavior really deflated the product...
        assert old_cdf[-1] < 1.0
        # ...the fix lifts it to exactly 1 at the end of the support...
        assert new_cdf[-1] == pytest.approx(1.0, abs=1e-15)
        # ...and the correction is ulp-scale, never a reshaping.
        assert np.max(np.abs(new_cdf - old_cdf)) < 1e-12
        assert np.all(new_cdf - old_cdf >= -1e-15)  # never pushed down
