"""Unit tests for the DiscretePDF value type."""

import numpy as np
import pytest

from repro.config import MAX_BINS
from repro.dist.pdf import DiscretePDF
from repro.errors import DistributionError


class TestConstruction:
    def test_normalizes_mass(self):
        pdf = DiscretePDF(1.0, 0, [2.0, 2.0])
        assert pdf.masses.sum() == pytest.approx(1.0)
        assert np.array_equal(pdf.masses, [0.5, 0.5])

    def test_positional_signature(self):
        pdf = DiscretePDF(2.0, 3, [1.0])
        assert pdf.dt == 2.0 and pdf.offset == 3 and pdf.n_bins == 1

    def test_rejects_bad_dt(self):
        with pytest.raises(DistributionError):
            DiscretePDF(0.0, 0, [1.0])
        with pytest.raises(DistributionError):
            DiscretePDF(-1.0, 0, [1.0])

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            DiscretePDF(1.0, 0, [])

    def test_rejects_negative_mass(self):
        with pytest.raises(DistributionError):
            DiscretePDF(1.0, 0, [0.5, -0.1])

    def test_rejects_zero_total(self):
        with pytest.raises(DistributionError):
            DiscretePDF(1.0, 0, [0.0, 0.0])

    def test_rejects_nan(self):
        with pytest.raises(DistributionError):
            DiscretePDF(1.0, 0, [0.5, float("nan")])

    def test_rejects_over_max_bins(self):
        with pytest.raises(DistributionError, match="MAX_BINS"):
            DiscretePDF(1.0, 0, np.ones(MAX_BINS + 1))

    def test_immutable(self):
        pdf = DiscretePDF(1.0, 0, [0.5, 0.5])
        with pytest.raises(Exception):
            pdf.masses[0] = 1.0
        with pytest.raises(Exception):
            pdf.dt = 2.0

    def test_does_not_mutate_caller_array(self):
        arr = np.array([0.5, 0.5])
        DiscretePDF(1.0, 0, arr)
        arr[0] = 0.25  # caller's array must stay writable
        assert arr[0] == 0.25

    def test_pdf_pickle_is_memo_stripped_and_bitwise(self):
        """Cache snapshots pickle every resident result: only the
        defining triple travels, and the round trip is bitwise."""
        import pickle

        from repro.dist.families import truncated_gaussian_pdf

        p = truncated_gaussian_pdf(4.0, 1234.0, 40.0)
        p.percentile(0.9)
        p.trimmed(1e-9)
        q = pickle.loads(pickle.dumps(p))
        assert q.dt == p.dt and q.offset == p.offset
        assert np.array_equal(q.masses, p.masses)
        assert not q.masses.flags.writeable
        leaked = {"_cdf", "_unit_cdf", "_knots", "_ramp_floor",
                  "_trim_level", "_fp"} & set(q.__dict__)
        assert not leaked
        # Rebuilt memos are bitwise the originals (pure functions of
        # the defining triple).
        assert q.percentile(0.9) == p.percentile(0.9)


class TestConstructors:
    def test_delta(self):
        pdf = DiscretePDF.delta(2.0, 10.0)
        assert pdf.is_point_mass
        assert pdf.offset == 5
        assert pdf.mean() == pytest.approx(10.0)

    def test_delta_rounds_to_grid(self):
        assert DiscretePDF.delta(2.0, 10.9).offset == 5
        assert DiscretePDF.delta(2.0, 11.1).offset == 6

    def test_from_samples_moments(self, rng):
        samples = rng.normal(100.0, 10.0, 50_000)
        pdf = DiscretePDF.from_samples(1.0, samples)
        assert pdf.mean() == pytest.approx(samples.mean(), abs=0.5)
        assert pdf.std() == pytest.approx(samples.std(), rel=0.05)

    def test_from_samples_empty(self):
        with pytest.raises(DistributionError):
            DiscretePDF.from_samples(1.0, [])


class TestStructure:
    def test_times(self):
        pdf = DiscretePDF(2.0, 3, [0.25, 0.5, 0.25])
        assert np.array_equal(pdf.times, [6.0, 8.0, 10.0])

    def test_support(self):
        pdf = DiscretePDF(2.0, 3, [0.25, 0.5, 0.25])
        assert pdf.support == (6.0, 10.0)

    def test_shifted_bins(self):
        pdf = DiscretePDF(2.0, 3, [0.5, 0.5])
        moved = pdf.shifted_bins(4)
        assert moved.offset == 7
        assert np.array_equal(moved.masses, pdf.masses)
        assert pdf.shifted_bins(0) is pdf

    def test_shifted_bins_keeps_mass_bits(self):
        """Translation shares the masses instead of renormalizing them:
        trimmed convolution results, whose masses rarely sum to exactly
        1.0, keep every bit, their fingerprint and their trim marker."""
        from repro.dist.ops import convolve

        rng = np.random.default_rng(31)
        results = [
            convolve(
                DiscretePDF(2.0, 0, rng.random(rng.integers(2, 60))),
                DiscretePDF(2.0, 5, rng.random(rng.integers(2, 60))),
                trim_eps=1e-6,
            )
            for _ in range(40)
        ]
        moved = [c.shifted_bins(-9) for c in results]
        assert [np.array_equal(m.masses, c.masses)
                for m, c in zip(moved, results)] == [True] * 40
        for m, c in zip(moved, results):
            assert m.offset == c.offset - 9
            assert m.masses is c.masses
            assert m._fp == c._fp
            assert m.trimmed(1e-6) is m
            assert c.shifted(4.0).masses is c.masses

    def test_shifted_time(self):
        pdf = DiscretePDF(2.0, 0, [1.0])
        assert pdf.shifted(7.9).offset == 4  # rounds to nearest bin


class TestMoments:
    def test_mean_two_point(self):
        pdf = DiscretePDF(1.0, 0, [0.5, 0.5])
        assert pdf.mean() == pytest.approx(0.5)

    def test_var_std(self):
        pdf = DiscretePDF(1.0, 0, [0.5, 0.5])
        assert pdf.var() == pytest.approx(0.25)
        assert pdf.std() == pytest.approx(0.5)

    def test_point_mass_zero_var(self):
        assert DiscretePDF.delta(1.0, 42.0).var() == 0.0


class TestCDFPercentile:
    def test_cdf_monotone(self):
        pdf = DiscretePDF(1.0, 0, [0.2, 0.3, 0.5])
        cdf = pdf.cdf()
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0)

    def test_cdf_at_outside_support(self):
        pdf = DiscretePDF(1.0, 10, [0.5, 0.5])
        assert pdf.cdf_at(5.0) == 0.0
        assert pdf.cdf_at(100.0) == 1.0  # exactly

    def test_percentile_validates(self):
        pdf = DiscretePDF(1.0, 0, [1.0])
        with pytest.raises(DistributionError):
            pdf.percentile(0.0)
        with pytest.raises(DistributionError):
            pdf.percentile(1.5)

    def test_percentile_cdf_roundtrip(self):
        pdf = DiscretePDF(1.0, 0, [0.1, 0.2, 0.4, 0.2, 0.1])
        for p in (0.15, 0.5, 0.9, 0.99):
            assert pdf.cdf_at(pdf.percentile(p)) == pytest.approx(p, abs=1e-12)

    def test_percentiles_vectorized(self):
        pdf = DiscretePDF(1.0, 0, [0.1, 0.2, 0.4, 0.2, 0.1])
        levels = np.array([0.25, 0.5, 0.75])
        vec = pdf.percentiles(levels)
        assert np.allclose(vec, [pdf.percentile(p) for p in levels])

    def test_percentile_monotone_in_p(self):
        pdf = DiscretePDF(1.0, 0, [0.3, 0.4, 0.3])
        qs = pdf.percentiles(np.linspace(0.01, 1.0, 50))
        assert np.all(np.diff(qs) >= 0)

    def test_percentile_one_is_support_end(self):
        pdf = DiscretePDF(2.0, 5, [0.5, 0.5])
        assert pdf.percentile(1.0) == pytest.approx(12.0)

    def test_percentile_plateau_takes_left_edge(self):
        """T(A, p) = inf{t : F(t) >= p}: a zero-mass interior bin makes
        a CDF plateau and the percentile must sit at its left edge."""
        pdf = DiscretePDF(1.0, 0, [0.5, 0.0, 0.5])
        assert pdf.percentile(0.5) == 0.0
        assert pdf.percentiles(np.array([0.5]))[0] == 0.0

    def test_from_samples_outlier_raises_not_oom(self):
        """A huge sample span must raise the diagnostic error before
        any allocation is attempted."""
        with pytest.raises(DistributionError, match="MAX_BINS"):
            DiscretePDF.from_samples(1e-6, [0.0, 1e7])


class TestTrimming:
    def test_noop_returns_self(self):
        pdf = DiscretePDF(1.0, 0, [0.25, 0.5, 0.25])
        assert pdf.trimmed(1e-9) is pdf

    def test_strips_exact_zero_tails(self):
        pdf = DiscretePDF(1.0, 0, [0.0, 0.5, 0.5, 0.0, 0.0])
        t = pdf.trimmed(0.0)
        assert t.offset == 1
        assert t.n_bins == 2

    def test_mass_preserving(self):
        masses = np.array([1e-12, 0.5, 0.5, 1e-12])
        pdf = DiscretePDF(1.0, 0, masses)
        t = pdf.trimmed(1e-9)
        assert t.n_bins == 2
        # Tail mass is lumped onto the boundary bins, not renormalized
        # away: totals and interior proportions survive bitwise.
        assert t.masses.sum() == pytest.approx(1.0, abs=1e-15)
        assert t.masses[0] == pytest.approx(pdf.masses[0] + pdf.masses[1])

    def test_idempotent(self):
        pdf = DiscretePDF(1.0, 0, [1e-12, 0.5, 0.5, 1e-12])
        once = pdf.trimmed(1e-9)
        assert once.trimmed(1e-9) is once

    def test_never_drops_everything(self):
        pdf = DiscretePDF(1.0, 0, [0.4, 0.6])
        t = pdf.trimmed(10.0)  # absurd eps: keep the heaviest bin
        assert t.n_bins == 1
        assert t.offset == 1

    def test_rejects_negative_eps(self):
        with pytest.raises(DistributionError):
            DiscretePDF(1.0, 0, [1.0]).trimmed(-1e-9)


class TestAllclose:
    def test_identical(self):
        a = DiscretePDF(1.0, 0, [0.5, 0.5])
        b = DiscretePDF(1.0, 0, [0.5, 0.5])
        assert a.allclose(b, atol=0.0)

    def test_different_offsets_compared_on_union_grid(self):
        a = DiscretePDF(1.0, 0, [1.0])
        b = DiscretePDF(1.0, 1, [1.0])
        assert not a.allclose(b, atol=0.5)

    def test_different_dt_never_close(self):
        a = DiscretePDF(1.0, 0, [1.0])
        b = DiscretePDF(2.0, 0, [1.0])
        assert not a.allclose(b, atol=1.0)
