"""Unit tests for the analysis configuration and error hierarchy."""

import dataclasses
import math

import pytest

from repro.config import (
    DEFAULT_CONFIG,
    DEFAULT_PERCENTILE,
    DEFAULT_SIGMA_FRACTION,
    DEFAULT_TRUNCATION_SIGMA,
    AnalysisConfig,
)
from repro.errors import (
    BenchParseError,
    DistributionError,
    GridMismatchError,
    LibraryError,
    NetlistError,
    OptimizationError,
    ReproError,
    TimingError,
)


class TestAnalysisConfig:
    def test_paper_defaults(self):
        """Section 4: sigma = 10% of nominal, 3-sigma truncation,
        99-percentile objective."""
        assert DEFAULT_SIGMA_FRACTION == 0.10
        assert DEFAULT_TRUNCATION_SIGMA == 3.0
        assert DEFAULT_PERCENTILE == 0.99
        assert DEFAULT_CONFIG.sigma_fraction == 0.10

    def test_immutable(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.dt = 1.0

    def test_with_updates(self):
        derived = DEFAULT_CONFIG.with_updates(dt=8.0, delta_w=1.0)
        assert derived.dt == 8.0
        assert derived.delta_w == 1.0
        assert derived.percentile == DEFAULT_CONFIG.percentile
        assert DEFAULT_CONFIG.dt != 8.0  # original untouched

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dt", 0.0),
            ("dt", -1.0),
            ("tail_eps", -0.1),
            ("tail_eps", 0.6),
            ("percentile", 0.0),
            ("percentile", 1.0),
            ("sigma_fraction", -0.1),
            ("truncation_sigma", 0.0),
            ("delta_w", 0.0),
        ]
        + [
            (field, value)
            for field in ("dt", "tail_eps", "percentile", "sigma_fraction",
                          "truncation_sigma", "delta_w")
            for value in (math.nan, math.inf, -math.inf)
        ],
    )
    def test_invalid_values(self, field, value):
        with pytest.raises(ValueError):
            AnalysisConfig(**{field: value})

    def test_nine_fields(self):
        assert [f.name for f in dataclasses.fields(AnalysisConfig)] == [
            "dt", "tail_eps", "percentile", "sigma_fraction",
            "truncation_sigma", "delta_w", "backend", "cache", "level_batch",
        ]

    def test_zero_tail_eps_allowed(self):
        assert AnalysisConfig(tail_eps=0.0).tail_eps == 0.0

    def test_zero_sigma_allowed(self):
        assert AnalysisConfig(sigma_fraction=0.0).sigma_fraction == 0.0


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            GridMismatchError,
            DistributionError,
            NetlistError,
            BenchParseError,
            LibraryError,
            TimingError,
            OptimizationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_bench_parse_error_line_numbers(self):
        err = BenchParseError("bad operator", line_no=7)
        assert "line 7" in str(err)
        assert err.line_no == 7

    def test_bench_parse_error_without_line(self):
        err = BenchParseError("general problem")
        assert err.line_no is None
        assert "general problem" in str(err)

    def test_bench_parse_is_netlist_error(self):
        assert issubclass(BenchParseError, NetlistError)

    def test_catching_base_catches_all(self):
        with pytest.raises(ReproError):
            raise TimingError("boom")
