"""Distribution kernels: the numeric primitive of the whole reproduction.

Every analysis in this package ultimately manipulates one object: an
arrival-time probability distribution discretized on a **uniform time
grid**.  This subpackage owns that object and the closed set of
operations the paper's algorithms need:

* :mod:`~repro.dist.pdf` — :class:`DiscretePDF`, the immutable value
  type (grid spacing ``dt``, integer bin ``offset``, normalized mass
  vector);
* :mod:`~repro.dist.ops` — the propagation kernels: :func:`convolve` /
  :func:`convolve_many` (the ADD operation, single and batched),
  :func:`stat_max` / :func:`stat_max_many` / :func:`stat_max_groups`
  (the independence MAX of
  Agarwal et al. [3]), and :class:`OpCounter`, the transparent
  work-statistics instrument behind Table 2 (cache hits tallied
  distinctly from computed operations);
* :mod:`~repro.dist.cache` — :class:`ConvolutionCache`, the keyed,
  size-bounded, bitwise-transparent result memo over whole-node
  arrivals, enabled per analysis through ``AnalysisConfig(cache=...)``;
* :mod:`~repro.dist.families` — the paper's Section-4 variation model:
  truncated Gaussians (sigma = 10% of nominal, cut at 3 sigma), both
  discretized and sampled;
* :mod:`~repro.dist.metrics` — CDF comparison functionals: the maximum
  horizontal percentile gap (the Theorem-4 perturbation bound) and
  stochastic dominance.

Grid contract
-------------
A :class:`DiscretePDF` with spacing ``dt``, offset ``k0``, and masses
``m[0..n)`` places probability mass ``m[i]`` at time ``(k0 + i) * dt``.
All binary operations require identical ``dt`` (no regridding, ever —
that is what keeps deep propagation error-free) and work on integer
bin offsets.  Masses are always normalized to total 1; every operation
renormalizes after optional tail trimming (``trim_eps`` total mass,
split between the two tails) and bin counts are capped at
:data:`repro.config.MAX_BINS`.

For continuous queries (CDF evaluation, percentiles) the distribution
is interpreted as a **piecewise-linear CDF**: the cumulative mass
through bin ``i`` is attained at that bin's time, interpolating
linearly between grid points (and ramping from zero over the bin below
the support).  Both directions — :meth:`DiscretePDF.cdf_at` and
:meth:`DiscretePDF.percentile` — use the same interpolant, so they are
mutual inverses to machine precision; the pruning bound in
:mod:`~repro.dist.metrics` evaluates the exact maximum of the same
interpolants.

The convolution *implementation* is pluggable on top of this contract:
:mod:`~repro.dist.backends` defines the
:class:`~repro.dist.backends.ConvolutionBackend` strategy with
``direct`` (O(n*m) reference), ``fft`` (O(N log N) real-FFT product),
and ``auto`` (calibrated size crossover) implementations, selected per
analysis through :class:`repro.config.AnalysisConfig` and per call
through every kernel's ``backend`` argument.  Further backends (sparse
grids, batched arrays) slot in the same way by honoring the contract:
identical-``dt`` closure, mass-1 normalization, and the
piecewise-linear query semantics.
"""

from .backends import (
    AutoBackend,
    ConvolutionBackend,
    DirectBackend,
    FFTBackend,
    available_backends,
    get_backend,
)
from .cache import CacheStats, ConvolutionCache
from .families import sample_truncated_gaussian, truncated_gaussian_pdf
from .metrics import max_percentile_gap, stochastically_le
from .ops import (
    OpCounter,
    convolve,
    convolve_many,
    stat_max,
    stat_max_groups,
    stat_max_many,
)
from .pdf import DiscretePDF

__all__ = [
    "DiscretePDF",
    "OpCounter",
    "ConvolutionBackend",
    "ConvolutionCache",
    "CacheStats",
    "DirectBackend",
    "FFTBackend",
    "AutoBackend",
    "available_backends",
    "get_backend",
    "convolve",
    "convolve_many",
    "stat_max",
    "stat_max_many",
    "stat_max_groups",
    "truncated_gaussian_pdf",
    "sample_truncated_gaussian",
    "max_percentile_gap",
    "stochastically_le",
]
