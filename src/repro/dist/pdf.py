"""The immutable discretized-PDF value type.

A :class:`DiscretePDF` is a probability distribution over a uniform
time grid: mass ``masses[i]`` sits at time ``(offset + i) * dt``.
Instances are immutable (frozen dataclass over a read-only NumPy
array), so they can be shared freely between the SSTA arrival store,
the delay-PDF cache, and any number of perturbation fronts without
defensive copies — the property the optimizer's exactness guarantees
lean on.

Continuous queries (:meth:`~DiscretePDF.cdf_at`,
:meth:`~DiscretePDF.percentile`) interpret the distribution through a
piecewise-linear CDF whose knots are the grid times; see the package
docstring for the full grid contract.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from ..config import MAX_BINS
from ..errors import DistributionError, GridMismatchError

__all__ = ["DiscretePDF"]

ArrayLike = Union[Sequence[float], np.ndarray]


@dataclass(frozen=True, eq=False)
class DiscretePDF:
    """Probability masses on an integer-offset uniform time grid.

    Parameters
    ----------
    dt:
        Grid spacing in picoseconds (> 0).
    offset:
        Integer index of the first bin; bin ``i`` lives at time
        ``(offset + i) * dt``.
    masses:
        Non-negative masses with a positive total; normalized to sum
        to 1 on construction.
    """

    # Memos live in the instance dict.  A perturbation front's
    # Theorem-4 gap, ``(base, gap)``, is a slot of its own (see
    # ``PerturbationFront._percentile_gap``): most front results carry
    # one next to their fingerprint, and a sixth dict entry would
    # double the dict of every such result.
    __slots__ = ("__dict__", "__weakref__", "_gap")

    dt: float
    offset: int
    masses: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.dt <= 0.0 or not np.isfinite(self.dt):
            raise DistributionError(f"dt must be positive and finite, got {self.dt}")
        masses = np.asarray(self.masses, dtype=np.float64)
        if masses.ndim != 1 or masses.size == 0:
            raise DistributionError("masses must be a non-empty 1-D array")
        if masses.size > MAX_BINS:
            raise DistributionError(
                f"distribution spans {masses.size} bins, exceeding MAX_BINS="
                f"{MAX_BINS}; dt is too small for this analysis"
            )
        # min() propagates NaN (NaN >= 0 is False) and sum() turns any
        # +inf into an infinite total, so two cheap reductions cover the
        # finite-and-non-negative contract without a temporary bool
        # array — this constructor sits on the convolution hot path.
        if not float(masses.min()) >= 0.0:
            raise DistributionError("masses must be finite and non-negative")
        total = float(masses.sum())
        if not np.isfinite(total):
            raise DistributionError("masses must be finite and non-negative")
        if total <= 0.0:
            raise DistributionError("total probability mass must be positive")
        if total != 1.0:
            masses = masses / total
        masses = masses.copy() if masses is self.masses else masses
        masses.flags.writeable = False
        object.__setattr__(self, "offset", int(self.offset))
        object.__setattr__(self, "masses", masses)

    # ------------------------------------------------------------------
    # Serialization (pickle)
    # ------------------------------------------------------------------
    # Instances accumulate per-instance memos in ``__dict__`` — the
    # cached CDF/knot arrays, the ``_unit_cdf`` row, ``_ramp_floor``,
    # the trim-level marker, and the cache-key fingerprint — and a
    # front result its ``_gap`` slot.  All of them are deterministic
    # functions of ``(dt, offset, masses)`` (the gap, of the base
    # object too) and every consumer rebuilds them on demand, so
    # pickling ships only the defining triple: payloads stay compact (cache snapshots
    # pickle every resident entry), and a round-trip is bitwise — same
    # grid, same offset, same mass bytes.

    def __getstate__(self) -> tuple:
        return (self.dt, self.offset, self.masses)

    def __setstate__(self, state: tuple) -> None:
        dt, offset, masses = state
        masses.flags.writeable = False
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "masses", masses)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _trusted(cls, dt: float, offset: int, masses: np.ndarray) -> "DiscretePDF":
        """Kernel-internal fast constructor.

        Callers guarantee what ``__post_init__`` would otherwise check:
        ``masses`` is a fresh (exclusively owned) 1-D float64 array of
        finite, non-negative values with a positive total, and ``dt``
        is positive.  The normalization arithmetic is bitwise the
        public path's (one ``sum``, one division when the total is not
        exactly 1), so trusted and validated construction of the same
        vector yield identical distributions — only the validation
        reductions and the defensive copy are skipped.  This sits on
        the convolution/trim hot path where those checks dominate the
        per-result cost.
        """
        if masses.size > MAX_BINS:
            raise DistributionError(
                f"distribution spans {masses.size} bins, exceeding MAX_BINS="
                f"{MAX_BINS}; dt is too small for this analysis"
            )
        total = float(masses.sum())
        if not total > 0.0:  # also traps NaN totals from misuse
            raise DistributionError("total probability mass must be positive")
        if total != 1.0:
            masses = masses / total
        masses.flags.writeable = False
        self = object.__new__(cls)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "offset", int(offset))
        object.__setattr__(self, "masses", masses)
        return self

    @classmethod
    def delta(cls, dt: float, time: float) -> "DiscretePDF":
        """Point mass at the grid bin nearest ``time``."""
        if dt <= 0.0:
            raise DistributionError(f"dt must be positive, got {dt}")
        return cls(dt, int(round(time / dt)), np.ones(1))

    @classmethod
    def from_samples(cls, dt: float, samples: ArrayLike) -> "DiscretePDF":
        """Histogram samples onto the grid (nearest-bin assignment)."""
        if dt <= 0.0:
            raise DistributionError(f"dt must be positive, got {dt}")
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size == 0:
            raise DistributionError("cannot build a distribution from 0 samples")
        if not np.all(np.isfinite(arr)):
            raise DistributionError("samples must be finite")
        idx = np.rint(arr / dt).astype(np.int64)
        offset = int(idx.min())
        span = int(idx.max()) - offset + 1
        if span > MAX_BINS:
            raise DistributionError(
                f"samples span {span} bins, exceeding MAX_BINS={MAX_BINS}; "
                "dt is too small for this sample range"
            )
        masses = np.bincount(idx - offset).astype(np.float64)
        return cls(dt, offset, masses)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def n_bins(self) -> int:
        """Number of grid bins carrying the distribution."""
        return self.masses.size

    @property
    def times(self) -> np.ndarray:
        """Bin times in picoseconds, ``(offset + i) * dt``."""
        return (self.offset + np.arange(self.masses.size)) * self.dt

    @property
    def is_point_mass(self) -> bool:
        """True when the whole mass sits in a single bin."""
        return self.masses.size == 1

    @property
    def support(self) -> tuple:
        """(first bin time, last bin time) in picoseconds."""
        return (
            self.offset * self.dt,
            (self.offset + self.masses.size - 1) * self.dt,
        )

    def shifted_bins(self, bins: int) -> "DiscretePDF":
        """Same masses translated by an integer number of grid bins.

        The read-only mass array is shared, not renormalized, so the
        masses keep every bit and the trim-idempotence marker (a
        property of the masses alone) carries over."""
        if bins == 0:
            return self
        out = object.__new__(DiscretePDF)
        object.__setattr__(out, "dt", self.dt)
        object.__setattr__(out, "offset", self.offset + int(bins))
        object.__setattr__(out, "masses", self.masses)
        if "_trim_level" in self.__dict__:
            out.__dict__["_trim_level"] = self.__dict__["_trim_level"]
        return out

    def shifted(self, time: float) -> "DiscretePDF":
        """Translate by ``time`` ps, rounded to the nearest whole bin."""
        return self.shifted_bins(int(round(time / self.dt)))

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Expected value (ps)."""
        return float(np.dot(self.masses, self.times))

    def var(self) -> float:
        """Variance (ps^2)."""
        centered = self.times - self.mean()
        return float(np.dot(self.masses, centered * centered))

    def std(self) -> float:
        """Standard deviation (ps)."""
        return float(np.sqrt(self.var()))

    # ------------------------------------------------------------------
    # CDF / percentiles (piecewise-linear interpolant)
    # ------------------------------------------------------------------
    @cached_property
    def _cdf(self) -> np.ndarray:
        cdf = np.cumsum(self.masses)
        cdf.flags.writeable = False
        return cdf

    @cached_property
    def _unit_cdf(self) -> np.ndarray:
        """Cumulative masses with the final value pinned at exactly 1.

        The renormalized row the MAX kernel stacks onto the union grid
        (see ``repro.dist.ops._padded_cdfs`` for why the pin matters).
        Memoized per instance: result-cache sharing makes the same
        arrival feed many MAX reductions, and the division is bitwise
        deterministic, so computing it once changes nothing but cost.
        """
        cs = self._cdf
        if cs[-1] != 1.0:
            cs = cs / cs[-1]
            cs.flags.writeable = False
        return cs

    @cached_property
    def _knots(self) -> tuple:
        """(times, cumulative) knot arrays of the piecewise-linear CDF.

        A leading knot one bin below the support anchors the ramp at
        probability 0; the final knot is pinned to exactly 1.0 so
        queries beyond the support are exact.
        """
        xp = np.empty(self.masses.size + 1)
        xp[0] = (self.offset - 1) * self.dt
        xp[1:] = self.times
        fp = np.empty(self.masses.size + 1)
        fp[0] = 0.0
        # Clip cumulative-sum overshoot (rounding can push interior
        # values past 1) so fp stays monotone once the end is pinned.
        np.minimum(self._cdf, 1.0, out=fp[1:])
        fp[-1] = 1.0
        xp.flags.writeable = False
        fp.flags.writeable = False
        return xp, fp

    @cached_property
    def _ramp_floor(self) -> int:
        """Index of the first strictly-positive CDF knot (the clamp
        floor of :meth:`_inverse`); cached because the pruning bound
        evaluates inverses twice per perturbed node."""
        return int(self._knots[1].searchsorted(0.0, side="right"))

    @cached_property
    def _fp(self) -> bytes:
        """SHA-1 of the mass bytes: the content fingerprint the kernel
        result cache keys on (see :mod:`repro.dist.cache`).  Cached per
        instance, so a long-lived operand is hashed once however many
        keys name it, and later reads are plain attribute lookups."""
        return hashlib.sha1(np.ascontiguousarray(self.masses)).digest()

    def cdf(self) -> np.ndarray:
        """Cumulative mass through each bin (aligned with :attr:`times`)."""
        return self._cdf.copy()

    def cdf_at(self, t) -> Union[float, np.ndarray]:
        """P(X <= t): 0 below the support, exactly 1 at or beyond its end."""
        xp, fp = self._knots
        out = np.interp(t, xp, fp, left=0.0, right=1.0)
        if np.ndim(t) == 0:
            return float(out)
        return out

    def _inverse(self, ps: np.ndarray) -> np.ndarray:
        """Inverse CDF with inf-semantics: ``T(p) = inf{t : F(t) >= p}``.

        ``np.interp`` resolves duplicated knot levels (CDF plateaus from
        zero-mass bins) to the plateau's *right* edge; the paper's
        ``T(A, p)`` is the left edge, so the segment is located
        explicitly.  Accepts ``0 <= p <= 1`` (``p == 0`` maps to the
        ``p -> 0+`` limit, used by the gap metric's ramp level).
        """
        xp, fp = self._knots
        idx = fp.searchsorted(ps, side="left")
        # Clamp onto the first strictly-positive knot so p == 0 (and any
        # leading zero-mass plateau) lands on a segment with positive
        # rise; for p > 0 this is a no-op, leaving fp[idx-1] < p <=
        # fp[idx] with a positive denominator.  (Array methods rather
        # than np.* wrappers: this runs per pruning-bound evaluation.)
        idx = idx.clip(self._ramp_floor, fp.size - 1)
        lo = idx - 1
        frac = (ps - fp[lo]) / (fp[idx] - fp[lo])
        return xp[lo] + frac * (xp[idx] - xp[lo])

    def percentile(self, p: float) -> float:
        """Smallest time whose CDF reaches ``p`` (the paper's ``T(A, p)``)."""
        if not 0.0 < p <= 1.0:
            raise DistributionError(f"percentile level must be in (0, 1], got {p}")
        return float(self._inverse(np.asarray([p]))[0])

    def percentiles(self, levels: ArrayLike) -> np.ndarray:
        """Vectorized :meth:`percentile` over an array of levels."""
        ps = np.asarray(levels, dtype=np.float64)
        if ps.size and (ps.min() <= 0.0 or ps.max() > 1.0):
            raise DistributionError("percentile levels must be in (0, 1]")
        return self._inverse(ps)

    # ------------------------------------------------------------------
    # Tail trimming
    # ------------------------------------------------------------------
    def trimmed(self, trim_eps: float = 0.0) -> "DiscretePDF":
        """Collapse tail bins carrying at most ``trim_eps / 2`` mass per
        side onto the new boundary bins (exact-zero boundary bins are
        always stripped).

        The trim is **mass-preserving**: the removed tail mass is lumped
        onto the first/last kept bin rather than renormalized away, so
        interior masses are bitwise unchanged.  This keeps stochastic-
        dominance relations intact through trimming — a global rescale
        would shift every percentile by ~``trim_eps * support`` and leak
        noise into the Theorem-4 pruning bound.  Returns ``self`` when
        nothing is dropped, so repeated trimming is idempotent.
        """
        if trim_eps < 0.0:
            raise DistributionError(f"trim_eps must be >= 0, got {trim_eps}")
        # Idempotence memo: once trimmed at eps, every boundary bin
        # carries more than eps/2 lumped mass, so a repeat trim at the
        # same or a smaller eps provably drops nothing — skip the tail
        # probes entirely.  (Stored out-of-band on the instance dict;
        # the dataclass fields stay immutable.)
        level = self.__dict__.get("_trim_level")
        if level is not None and trim_eps <= level:
            return self
        half = trim_eps / 2.0
        n = self.masses.size
        # Fast path: at realistic trim_eps the cut lands within a few
        # bins of each boundary, so probing a block avoids two full
        # cumulative sums (the dominant cost of trimming large
        # distributions).  A cumulative sum's leading entries are
        # independent of the array tail, so when both probe blocks
        # already exceed ``half`` the cut indices and lumped masses are
        # bit-identical to the full computation below.
        block = 64
        masses = self.masses
        if n >= 2 * block:
            prefix = masses[:block].cumsum()
            tail_block = masses[n - block :][::-1].cumsum()
            if prefix[-1] > half and tail_block[-1] > half:
                lo = int(prefix.searchsorted(half, side="right"))
                hi_drop = int(tail_block.searchsorted(half, side="right"))
                hi = n - hi_drop
                if lo == 0 and hi == n:
                    self.__dict__["_trim_level"] = trim_eps
                    return self
                kept = masses[lo:hi].copy()
                if lo > 0:
                    kept[0] += prefix[lo - 1]
                if hi < n:
                    kept[-1] += tail_block[hi_drop - 1]
                out = DiscretePDF._trusted(self.dt, self.offset + lo, kept)
                out.__dict__["_trim_level"] = trim_eps
                return out
        cdf = self._cdf
        # Largest prefix with cumulative mass <= half, and symmetrically
        # the largest suffix; always keep at least one bin.
        lo = int(cdf.searchsorted(half, side="right"))
        tail = masses[::-1].cumsum()
        hi_drop = int(tail.searchsorted(half, side="right"))
        hi = n - hi_drop
        if lo >= hi:  # degenerate request: keep the heaviest single bin
            keep = int(np.argmax(masses))
            lo, hi = keep, keep + 1
        if lo == 0 and hi == n:
            self.__dict__["_trim_level"] = trim_eps
            return self
        kept = masses[lo:hi].copy()
        if lo > 0:
            kept[0] += cdf[lo - 1]
        if hi < n:
            kept[-1] += tail[n - hi - 1]
        out = DiscretePDF._trusted(self.dt, self.offset + lo, kept)
        out.__dict__["_trim_level"] = trim_eps
        return out

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def tv_distance(self, other: "DiscretePDF") -> float:
        """Total-variation distance ``0.5 * sum |a_i - b_i|`` on the
        union grid.

        The canonical "same distribution?" metric of the cross-backend
        harness: 0 for identical mass vectors, 1 for disjoint supports,
        and an upper bound on the absolute CDF difference at every
        time, so a TV tolerance bounds percentile drift too.  Requires
        matching ``dt`` (a :class:`~repro.errors.GridMismatchError`
        otherwise — distributions on different grids are incomparable).
        """
        if self.dt != other.dt:
            raise GridMismatchError(
                f"cannot compare distributions with dt={self.dt} and "
                f"dt={other.dt}"
            )
        lo = min(self.offset, other.offset)
        hi = max(self.offset + self.n_bins, other.offset + other.n_bins)
        diff = np.zeros(hi - lo)
        diff[self.offset - lo : self.offset - lo + self.n_bins] = self.masses
        diff[
            other.offset - lo : other.offset - lo + other.n_bins
        ] -= other.masses
        return float(0.5 * np.abs(diff).sum())

    def allclose(
        self, other: "DiscretePDF", *, atol: float = 1e-9, rtol: float = 0.0
    ) -> bool:
        """Mass-wise closeness on the union grid (``atol=0`` demands
        exact equality of the aligned mass vectors)."""
        if self.dt != other.dt:
            return False
        lo = min(self.offset, other.offset)
        hi = max(self.offset + self.n_bins, other.offset + other.n_bins)
        a = np.zeros(hi - lo)
        b = np.zeros(hi - lo)
        a[self.offset - lo : self.offset - lo + self.n_bins] = self.masses
        b[other.offset - lo : other.offset - lo + other.n_bins] = other.masses
        return bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lo, hi = self.support
        return (
            f"DiscretePDF(dt={self.dt:g}, bins={self.n_bins}, "
            f"support=[{lo:g}, {hi:g}] ps, mean={self.mean():.4g})"
        )
