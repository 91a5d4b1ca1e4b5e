"""CDF comparison functionals used by the pruning machinery.

* :func:`max_percentile_gap` — the paper's perturbation measure
  ``delta = max_p [T(A, p) - T(A', p)]``, the largest horizontal gap
  between two CDFs.  Theorems 1-4 bound how this quantity propagates
  through convolution and statistical max, making it the sound pruning
  bound of the accelerated sizer.  It runs in the compiled tier's gap
  kernel (:mod:`~repro.dist._compiled`) when that kernel passed its
  self-check, which is bitwise the NumPy body kept here as the
  fallback.
* :func:`stochastically_le` — first-order stochastic dominance
  (``A <= B`` when ``F_A(t) >= F_B(t)`` everywhere), the invariant the
  MAX operation must satisfy against each of its operands.

Both evaluate the *same* piecewise-linear CDF interpolant the
:class:`~repro.dist.pdf.DiscretePDF` queries use, and both evaluate it
only at knots — the difference of two piecewise-linear functions
attains its extrema at knots of either operand, so the computed values
are exact, not sampled approximations.
"""

from __future__ import annotations

import numpy as np

from ..errors import GridMismatchError
from . import _compiled
from .pdf import DiscretePDF

__all__ = ["max_percentile_gap", "stochastically_le"]

#: Vertical (probability-mass) evidence required before a positive
#: horizontal gap is believed.  Cumulative-sum rounding noise is
#: ~1e-14; genuine CDF differences that matter to any percentile
#: objective carry orders of magnitude more mass.  Without this
#: deadband, float noise landing on a near-flat tail segment (slope
#: ~ trim_eps / dt) is amplified into spurious positive gaps that
#: violate the Theorem 1-3 non-expansiveness the pruned sizer relies on.
_VERTICAL_NOISE_FLOOR = 1e-11


def _check_grids(a: DiscretePDF, b: DiscretePDF) -> None:
    if a.dt != b.dt:
        raise GridMismatchError(
            f"cannot compare distributions with dt={a.dt} and dt={b.dt}"
        )


def max_percentile_gap(a: DiscretePDF, b: DiscretePDF) -> float:
    """``max_p [T(a, p) - T(b, p)]`` over all probability levels.

    Positive when ``b`` is (somewhere) horizontally earlier than ``a``
    — i.e. the perturbation improved that part of the CDF; may be
    negative when ``b`` is everywhere later.  Exact for the engine's
    piecewise-linear CDFs: the gap is evaluated at every knot level of
    both operands (including the ``p -> 0`` limit of the leading ramp),
    where the difference of two piecewise-linear inverses attains its
    extrema.

    A positive gap at a level is only believed when backed by more
    vertical CDF advantage than :data:`_VERTICAL_NOISE_FLOOR` — see the
    constant's comment for why horizontal reading of float noise must
    be suppressed.
    """
    _check_grids(a, b)
    p = _compiled.get_provider()
    if p is not None and p.gap_ok:
        gap = p.gap(a, b, _VERTICAL_NOISE_FLOOR)
        if gap == gap:  # NaN: the kernel could not allocate scratch
            return gap
    return _numpy_gap(a, b)


def _numpy_gap(a: DiscretePDF, b: DiscretePDF) -> float:
    """The NumPy body of :func:`max_percentile_gap` (grids checked by
    the caller) — the reference the compiled gap kernel reproduces."""
    xa, fa = a._knots  # noqa: SLF001 - intra-package fast path
    xb, fb = b._knots  # noqa: SLF001
    levels = np.concatenate([fa, fb])
    qa = a._inverse(levels)  # noqa: SLF001 - inf-semantics inverse
    qb = b._inverse(levels)  # noqa: SLF001
    gaps = qa - qb
    # Vertical evidence for each level: how far a's CDF at b's inverse
    # point sits below the level itself.  Noise-scale margins cannot
    # support a positive horizontal gap.
    margin = levels - np.interp(qb, xa, fa, left=0.0, right=1.0)
    gaps = np.where(margin > _VERTICAL_NOISE_FLOOR, gaps, np.minimum(gaps, 0.0))
    return float(np.max(gaps))


def stochastically_le(
    a: DiscretePDF, b: DiscretePDF, *, tol: float = 1e-9
) -> bool:
    """True when ``a`` is stochastically no later than ``b``.

    First-order dominance: ``F_a(t) >= F_b(t) - tol`` for every ``t``
    (checked exactly at the CDF knots of both operands; the default
    tolerance absorbs tail-trimming renormalization noise).
    """
    _check_grids(a, b)
    if tol < 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    xa, _fa = a._knots  # noqa: SLF001
    xb, _fb = b._knots  # noqa: SLF001
    ts = np.concatenate([xa, xb])
    return bool(np.all(a.cdf_at(ts) >= b.cdf_at(ts) - tol))
