"""repro — Statistical Timing Based Optimization using Gate Sizing.

A complete reproduction of Agarwal, Chopra & Blaauw (DATE 2005): a
block-based statistical static timing analyzer propagating discretized
arrival-time PDFs, a logical-effort gate-sizing substrate, and the
paper's sensitivity-based statistical optimizer with its exact
perturbation-bound pruning algorithm — plus the deterministic and
brute-force baselines and the experiment harness regenerating every
table and figure.

Quickstart::

    import repro

    circuit = repro.load("c432")
    sizer = repro.PrunedStatisticalSizer(circuit, max_iterations=50)
    result = sizer.run()
    print(result.final_objective, result.size_increase_percent)
"""

from .config import AnalysisConfig, DEFAULT_CONFIG
from .core import (
    BruteForceStatisticalSizer,
    DeterministicSizer,
    MeanObjective,
    MeanPlusSigmaObjective,
    Objective,
    PercentileObjective,
    PerturbationFront,
    HeuristicStatisticalSizer,
    PrunedStatisticalSizer,
    SizingResult,
    default_objective,
)
from .dist import (
    AutoBackend,
    ConvolutionBackend,
    DirectBackend,
    DiscretePDF,
    FFTBackend,
    OpCounter,
    available_backends,
    convolve,
    get_backend,
    max_percentile_gap,
    sample_truncated_gaussian,
    stat_max,
    stat_max_groups,
    stat_max_many,
    stochastically_le,
    truncated_gaussian_pdf,
)
from .errors import ReproError
from .library import CellLibrary, CellType, SizingLimits, default_library, total_gate_size
from .netlist import (
    PAPER_SUITE,
    Circuit,
    CircuitSpec,
    Gate,
    generate_circuit,
    load,
    parse_bench,
    parse_bench_file,
    write_bench,
)
from .timing import (
    DelayModel,
    YieldComparison,
    delay_at_yield,
    timing_yield,
    update_ssta_after_resize,
    yield_curve,
    yield_gain,
    MonteCarloResult,
    SSTAResult,
    STAResult,
    TimingGraph,
    k_longest_paths,
    path_delay_histogram,
    run_monte_carlo,
    run_ssta,
    run_sta,
    wall_metric,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "AnalysisConfig",
    "DEFAULT_CONFIG",
    "ReproError",
    # distributions
    "DiscretePDF",
    "OpCounter",
    "ConvolutionBackend",
    "DirectBackend",
    "FFTBackend",
    "AutoBackend",
    "available_backends",
    "get_backend",
    "convolve",
    "stat_max",
    "stat_max_many",
    "stat_max_groups",
    "truncated_gaussian_pdf",
    "sample_truncated_gaussian",
    "max_percentile_gap",
    "stochastically_le",
    # library
    "CellType",
    "CellLibrary",
    "default_library",
    "SizingLimits",
    "total_gate_size",
    # netlist
    "Circuit",
    "Gate",
    "CircuitSpec",
    "generate_circuit",
    "load",
    "PAPER_SUITE",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    # timing
    "TimingGraph",
    "DelayModel",
    "STAResult",
    "run_sta",
    "SSTAResult",
    "run_ssta",
    "MonteCarloResult",
    "run_monte_carlo",
    "path_delay_histogram",
    "k_longest_paths",
    "wall_metric",
    "timing_yield",
    "delay_at_yield",
    "yield_curve",
    "yield_gain",
    "YieldComparison",
    "update_ssta_after_resize",
    # core
    "Objective",
    "PercentileObjective",
    "MeanObjective",
    "MeanPlusSigmaObjective",
    "default_objective",
    "PerturbationFront",
    "DeterministicSizer",
    "BruteForceStatisticalSizer",
    "HeuristicStatisticalSizer",
    "PrunedStatisticalSizer",
    "SizingResult",
]
