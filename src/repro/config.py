"""Global numeric configuration for the reproduction.

All timing quantities are expressed in **picoseconds** and all
distributions live on a uniform time grid with spacing ``dt``.  Keeping a
single grid spacing per analysis lets every operation (convolution,
statistical max, shifting) work on integer bin offsets, so no regridding
error accumulates as arrival times traverse deep circuits.

The paper (Section 4) models intra-die variation as a Gaussian with a
standard deviation equal to 10% of the nominal gate delay, truncated at
the 3-sigma points, and optimizes the 99-percentile point of the circuit
delay CDF.  Those defaults are captured here and may be overridden per
analysis through :class:`AnalysisConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

#: Default grid spacing in picoseconds.  2 ps resolves a ~10% sigma on
#: gate delays of a few hundred ps with dozens of bins per distribution.
DEFAULT_DT_PS: float = 2.0

#: Total probability mass allowed to be trimmed off the tails of a
#: distribution after each operation (split between both tails).
DEFAULT_TAIL_EPS: float = 1e-9

#: The paper's optimization objective: the 99-percentile delay point.
DEFAULT_PERCENTILE: float = 0.99

#: Relative standard deviation of gate delay (sigma = 10% of nominal).
DEFAULT_SIGMA_FRACTION: float = 0.10

#: Gaussian truncation point in multiples of sigma.
DEFAULT_TRUNCATION_SIGMA: float = 3.0

#: Gate width increment used by the coordinate-descent sizers, as a
#: fraction of the minimum width (the paper sizes by a fixed ``dw``).
DEFAULT_DELTA_W: float = 0.25

#: Convolution-backend names an :class:`AnalysisConfig` may select.
#: ``direct`` is the O(n*m) ``np.convolve`` kernel (bit-for-bit the
#: historical behavior), ``fft`` the real-FFT product kernel, ``auto``
#: a size-based crossover between the two (see
#: :mod:`repro.dist.backends` for the calibrated cost model),
#: ``compiled`` the compiled direct-kernel tier (a C library built on
#: first use; degrades to ``direct`` numerics without a compiler), and
#: ``compiled-auto`` the crossover with the compiled kernel on the
#: direct side.
KNOWN_BACKENDS: tuple = (
    "direct", "fft", "auto", "compiled", "compiled-auto"
)

#: Default convolution backend.  ``auto`` dispatches to ``direct`` for
#: every operand pair below the crossover — which covers the default
#: 2 ps grid entirely — so historical results are reproduced bitwise
#: while 8k-bin grids stop paying the O(n^2) wall.
DEFAULT_BACKEND: str = "auto"

#: Hard cap on the number of bins a single distribution may occupy; a
#: guard against pathological configurations (dt too small for the
#: circuit depth), not a tuning knob.
MAX_BINS: int = 1 << 21

# ----------------------------------------------------------------------
# Analysis-service capacity knobs (see repro.service).  Collected here
# with the numeric defaults so a deployment tunes every knob in one
# place; the service modules import them rather than re-hardcoding.
# ----------------------------------------------------------------------

#: Service worker processes behind one port (``repro-ssta serve
#: --workers``).  1 keeps the single-process server; N > 1 runs the
#: pre-fork front (:mod:`repro.service.frontend`).
DEFAULT_SERVICE_WORKERS: int = 1

#: Fixed handler threads per service worker process.  Kernel work is
#: GIL-serialized, so more threads only add queueing inside the
#: process; a small pool keeps /stats and cache hits responsive while
#: one heavy request computes.
DEFAULT_SERVICE_HANDLER_THREADS: int = 4

#: Bounded admission queue per worker: accepted-but-not-yet-handled
#: requests.  A request arriving with the queue full is rejected
#: immediately with 503 + ``Retry-After`` (never an unbounded thread
#: spawn) — overload changes *whether* a request is served, never
#: *what* it returns.
DEFAULT_SERVICE_QUEUE_DEPTH: int = 32

#: ``Retry-After`` seconds advertised on 503 rejections.
DEFAULT_SERVICE_RETRY_AFTER_S: float = 1.0

#: Seconds a graceful drain waits for in-flight handlers to finish
#: before the final snapshot flush (a wedged handler cannot pin
#: shutdown forever).
DEFAULT_SERVICE_DRAIN_TIMEOUT_S: float = 30.0


@dataclass(frozen=True)
class AnalysisConfig:
    """Bundle of numeric parameters shared by an analysis session.

    Instances are immutable; use :meth:`with_updates` to derive variants
    (e.g. a coarser grid for a quick optimization pass).

    ``cache`` enables the keyed node-arrival memo
    (:class:`repro.dist.cache.ConvolutionCache`): ``None`` disables
    caching (the default), an ``int`` creates a cache with that entry
    capacity, and an existing instance is used as-is (and *shared* by
    configs derived via :meth:`with_updates` — safe, because cache keys
    include the grid spacing, trim epsilon, and backend).  Hits return
    bit-identical results, so the knob changes cost, never answers.

    ``level_batch`` selects the execution mode of every engine that
    walks the timing graph: when true (the default) a whole topological
    level's fan-in convolutions go through one batched
    ``convolve_many`` dispatch and its MAX reductions through one
    grouped sweep (see :func:`repro.timing.ssta.compute_level_arrivals`)
    instead of per-node kernel calls.  Like the backend and cache
    knobs it changes cost, never answers: batched propagation is
    bitwise identical to the sequential per-node path — the invariant
    the level-batching differential suite and the CI drift gate
    enforce.  The sequential path is retained (``level_batch=False``)
    as the differential-testing reference.

    Every float field must be finite: NaN slips past the range checks
    below (comparisons against it are false), and an infinite grid or
    sigma only fails later, mid-analysis.
    """

    dt: float = DEFAULT_DT_PS
    tail_eps: float = DEFAULT_TAIL_EPS
    percentile: float = DEFAULT_PERCENTILE
    sigma_fraction: float = DEFAULT_SIGMA_FRACTION
    truncation_sigma: float = DEFAULT_TRUNCATION_SIGMA
    delta_w: float = DEFAULT_DELTA_W
    backend: str = DEFAULT_BACKEND
    cache: object = None
    level_batch: bool = True

    def __post_init__(self) -> None:
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0.0 <= self.tail_eps < 0.5:
            raise ValueError(f"tail_eps must be in [0, 0.5), got {self.tail_eps}")
        if not 0.0 < self.percentile < 1.0:
            raise ValueError(
                f"percentile must be in (0, 1), got {self.percentile}"
            )
        if self.sigma_fraction < 0.0:
            raise ValueError(
                f"sigma_fraction must be non-negative, got {self.sigma_fraction}"
            )
        if self.truncation_sigma <= 0.0:
            raise ValueError(
                f"truncation_sigma must be positive, got {self.truncation_sigma}"
            )
        if self.delta_w <= 0.0:
            raise ValueError(f"delta_w must be positive, got {self.delta_w}")
        if self.backend not in KNOWN_BACKENDS:
            # DistributionError, not ValueError: a typo'd backend name
            # is the same failure get_backend raises mid-analysis, and
            # callers (CLI, service) already translate ReproError into
            # their error surfaces.  Lazy import for the same
            # one-directional reason as the cache coercion below.
            from .errors import DistributionError

            raise DistributionError(
                f"unknown convolution backend {self.backend!r}; "
                f"available: {', '.join(KNOWN_BACKENDS)}"
            )
        if not isinstance(self.level_batch, bool):
            raise ValueError(
                f"level_batch must be a bool, got {self.level_batch!r}"
            )
        if self.cache is not None:
            # Lazy import: repro.dist imports this module for the grid
            # constants, so the dependency must stay one-directional at
            # import time.  Coercion accepts an int capacity or a
            # ConvolutionCache instance and raises otherwise.
            from .dist.cache import ConvolutionCache

            try:
                coerced = ConvolutionCache.coerce(self.cache)
            except Exception as exc:
                raise ValueError(str(exc)) from exc
            object.__setattr__(self, "cache", coerced)

    def with_updates(self, **changes: object) -> "AnalysisConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]


#: The :class:`AnalysisConfig` fields holding floats, checked finite.
_FLOAT_FIELDS: tuple = (
    "dt", "tail_eps", "percentile", "sigma_fraction", "truncation_sigma",
    "delta_w",
)

#: Shared default configuration.  Functions take an optional config and
#: fall back to this instance, so library users who do not care about
#: numerics never see the knob.
DEFAULT_CONFIG = AnalysisConfig()
