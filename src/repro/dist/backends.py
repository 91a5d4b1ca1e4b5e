"""Pluggable convolution backends for the ADD kernel.

The paper's inner loop convolves discretized PDFs thousands of times
per sizing iteration.  ``np.convolve`` is O(n*m) — unbeatable for the
few-dozen-bin operands of the default 2 ps grid, but a wall past a few
thousand bins (BENCH_dist.json: 42k ops/s at 33 bins collapsing to
82 ops/s at 8193).  This module makes the kernel implementation a
*backend*: a small strategy object that turns two mass vectors into
their linear convolution, selected by name through
:class:`~repro.config.AnalysisConfig` and threaded by the engines
through every call site, so one knob switches the whole analysis.

Three backends ship:

* :class:`DirectBackend` — ``np.convolve``.  Exact to the last ulp and
  the reference every other backend is tested against.  A batch runs
  in the compiled tier's ADD kernel when the tier has it (``add_ok``):
  ``np.convolve``'s bits in one foreign call.  Without it the batch is
  an ``np.convolve`` loop, with the same bits.
* :class:`FFTBackend` — real-FFT pointwise product, O(N log N).  FFT
  round-off can produce tiny negative ringing and lose a few ulp of
  mass, which would violate the :class:`~repro.dist.pdf.DiscretePDF`
  contract (non-negative masses, total 1); the backend therefore clamps
  negatives to zero and rescales the result back to the operands' mass
  product before handing it over.  Its batched entry point is a plain
  loop: a stacked 2-D transform measured slower than the loop at the
  sizes ``auto`` sends to FFT (0.61x at 2049 bins, 0.39x at 8193).
* :class:`AutoBackend` — per-pair size dispatch between the two using a
  calibrated cost model.  Direct costs ~``k_d * n_a * n_b`` multiplies;
  FFT costs ~``k_f * N log2 N`` with ``N = n_a + n_b - 1``.  The
  measured ratio ``k_f / k_d`` on the benchmark machine is ~25
  (``scripts/bench_dist.py`` re-measures it), giving an equal-size
  crossover of ~512 bins while keeping delta-function and strongly
  asymmetric operands (where direct degenerates to O(N)) on the direct
  path.  Below the crossover ``auto`` *is* ``direct``, bit for bit —
  which is what lets it be the default without perturbing any
  reproducibility guarantee on ordinary grids.  The formula depends on
  the pair only through ``n_out`` and the product, so the output length
  below which every split goes direct (994 bins at ratio 25) is worked
  out once per instance; shorter pairs skip the formula.  A batch makes
  one call per side, so its direct-side pairs take the ADD kernel too.

Two more ship when the compiled tier (:mod:`repro.dist._compiled`) can
stand up its C library, and degrade to the pure-NumPy numerics above
(with one warning) when it cannot:

* :class:`CompiledBackend` — the direct convolution as a compiled
  inner loop.  Raw convolutions sit in the same 1e-12-TV equivalence
  class as ``fft`` (sequential instead of pairwise accumulation).
  Degraded, it *is* ``direct``, bit for bit.
* :class:`CompiledAutoBackend` — the ``auto`` dispatch with the
  compiled kernel on the direct side, re-calibrated against the same
  FFT backend (``scripts/bench_dist.py`` records the measured
  compiled↔fft crossover next to the direct↔fft one).

A backend only convolves.  Result construction (normalize and trim)
and the MAX, both through the level merge, and the Theorem-4 gap run
in the compiled tier for *every* backend, bitwise the NumPy code they
replace (see :mod:`repro.dist.ops`), so the compiled backends differ
from ``direct`` only in how they convolve.

Backends are deterministic and carry no *semantic* state: the same
operand pair always takes the same path and produces the same bits
(the FFT backend memoizes forward transforms of immutable mass
vectors, which changes when work happens, never its result), so
pruned-vs-brute-force bitwise equivalence holds under every backend —
both sizers resolve the same backend from the same config.
"""

from __future__ import annotations

import weakref
from typing import Protocol, Sequence, Union, runtime_checkable

import numpy as np

from ..config import KNOWN_BACKENDS
from ..errors import DistributionError
from . import _compiled

__all__ = [
    "ConvolutionBackend",
    "DirectBackend",
    "FFTBackend",
    "AutoBackend",
    "CompiledBackend",
    "CompiledAutoBackend",
    "BackendLike",
    "get_backend",
    "available_backends",
    "is_registry_backend",
    "AUTO_COST_RATIO",
    "EQUAL_SIZE_CROSSOVER_BINS",
    "COMPILED_AUTO_COST_RATIO",
    "COMPILED_EQUAL_SIZE_CROSSOVER_BINS",
]

#: Calibrated ``k_f / k_d`` cost ratio of the auto dispatch (see the
#: module docstring); ``scripts/bench_dist.py`` reports the measured
#: equal-size crossover this ratio implies on the current machine.
AUTO_COST_RATIO: float = 25.0

#: Equal-size operand count at which the calibrated cost model flips
#: from direct to FFT (n * n ~ AUTO_COST_RATIO * 2n * log2(2n)).
#: Documentation/benchmark anchor, not used by the dispatch itself.
EQUAL_SIZE_CROSSOVER_BINS: int = 512


@runtime_checkable
class ConvolutionBackend(Protocol):
    """Strategy interface: linear convolution of two mass vectors.

    Implementations must be pure functions of their operands (no
    internal state), return a length ``n_a + n_b - 1`` non-negative
    vector whose total equals ``a.sum() * b.sum()`` up to round-off,
    and be deterministic — the reproducibility guarantees of the
    pruned sizer rest on repeated calls giving identical bits.
    """

    name: str

    def convolve_masses(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Linear convolution of ``a`` and ``b`` (1-D, non-negative)."""
        ...

    def convolve_many(self, pairs: Sequence) -> Sequence:
        """Batched linear convolution of ``(a, b)`` operand pairs.

        Returns one output vector per pair, in order, each honoring
        the :meth:`convolve_masses` contract — **bitwise**: a batched
        row must equal the vector :meth:`convolve_masses` would return
        for the same pair, whatever the batch composition.  The result
        cache keys entries by operand content and offsets, never by the
        call that computed them, so this is what keeps cached batches
        of any composition interchangeable.  Backends are free to
        amortize work across pairs under that constraint (the direct
        and compiled backends convolve a whole batch in one foreign
        call);
        third-party backends may omit this method — the kernel layer
        falls back to a :meth:`convolve_masses` loop.  An empty batch
        returns ``[]``
        without performing any work (the level-batched engines dispatch
        whatever a level needs, which can be nothing once the result
        cache has resolved every pair).
        """
        ...


class DirectBackend:
    """O(n*m) ``np.convolve`` — the exact reference kernel."""

    name = "direct"

    def convolve_masses(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.convolve(a, b)

    def convolve_many(self, pairs: Sequence) -> Sequence:
        """The compiled tier's ADD kernel when it passed its self-check
        (``add_ok``): bitwise ``np.convolve``, one foreign call per
        batch, its rows in one buffer the level merge reads as it is.
        Otherwise the ``np.convolve`` loop, with the same bits."""
        p = _compiled.get_provider()
        if pairs and p is not None and p.add_ok:
            return p.add_many(pairs)
        return [np.convolve(a, b) for a, b in pairs]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DirectBackend()"


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth (2^a 3^b 5^c) integer >= ``n``.

    numpy's pocketfft handles these sizes at full speed; padding to one
    avoids the large-prime slow path without depending on scipy.
    """
    if n <= 6:
        return n
    best = 1 << (n - 1).bit_length()  # next power of two always works
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            x = p35
            while x < n:
                x *= 2
            if x < best:
                best = x
            p35 *= 3
        p5 *= 5
    return best


class FFTBackend:
    """O(N log N) real-FFT product with the PDF-contract repairs.

    The raw inverse transform carries round-off of order
    ``eps * N`` spread over the support: entries that should be zero
    come back as ~1e-17 values of either sign.  Negative entries are
    clamped (the contract requires non-negative masses) and the result
    is rescaled so its total equals ``a.sum() * b.sum()`` exactly as
    the direct kernel would preserve it — without the rescale, clamping
    would leak a few ulp of mass per convolution, which compounds over
    deep circuits.

    Forward transforms are memoized.  The SSTA inner loop convolves a
    small set of *reused* operands (every gate's delay PDF comes out of
    the :class:`~repro.timing.delay_model.DelayModel` cache; an arrival
    feeds every fan-out arc), and :class:`~repro.dist.pdf.DiscretePDF`
    mass vectors are immutable (read-only arrays), so their transforms
    can be cached safely.  Entries are keyed by array identity with a
    weak reference both to self-evict when the operand dies and to
    guard against ``id`` reuse; memoization changes which computation
    produces the bits, never the bits themselves (the same transform of
    the same array is bit-deterministic).
    """

    name = "fft"

    #: Skip the memo for transforms below this length — small FFTs cost
    #: less than the bookkeeping, and caching them would churn entries.
    MIN_CACHED_NFFT = 1024

    #: Entry cap counting every stored transform — one per (array,
    #: nfft) pair, so repeated pads of one long-lived operand are
    #: bounded too; the cache is cleared wholesale when full.  An nfft
    #: of 16384 holds ~128 KiB per entry, so the bound caps memory at
    #: a few MiB while realistic working sets stay far below it.
    MAX_CACHE_ENTRIES = 128

    def __init__(self) -> None:
        #: (id(array), nfft) -> (weakref to array, transform)
        self._rfft_cache: dict = {}

    def _rfft(self, arr: np.ndarray, nfft: int) -> np.ndarray:
        if nfft < self.MIN_CACHED_NFFT:
            return np.fft.rfft(arr, nfft)
        key = (id(arr), nfft)
        entry = self._rfft_cache.get(key)
        if entry is not None:
            ref, cached = entry
            if ref() is arr:
                return cached
            del self._rfft_cache[key]  # id was recycled by a dead array
        out = np.fft.rfft(arr, nfft)
        try:
            ref = weakref.ref(
                arr, lambda _r, key=key: self._rfft_cache.pop(key, None)
            )
        except TypeError:  # pragma: no cover - plain ndarrays are
            return out  # weakref-able; subclasses may not be
        if len(self._rfft_cache) >= self.MAX_CACHE_ENTRIES:
            self._rfft_cache.clear()
        self._rfft_cache[key] = (ref, out)
        return out

    def convolve_masses(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n = a.size + b.size - 1
        nfft = _next_fast_len(n)
        out = np.fft.irfft(self._rfft(a, nfft) * self._rfft(b, nfft), nfft)[:n]
        np.maximum(out, 0.0, out=out)
        total = out.sum()
        if total <= 0.0:  # pragma: no cover - all-zero operands are
            return out  # rejected upstream by DiscretePDF
        out *= (a.sum() * b.sum()) / total
        return out

    def convolve_many(self, pairs: Sequence) -> list:
        """A :meth:`convolve_masses` loop (keeping its forward-transform
        memo): bitwise the singleton path by construction (see the
        module docstring for why the batch is not stacked)."""
        return [self.convolve_masses(a, b) for a, b in pairs]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FFTBackend(cached={len(self._rfft_cache)})"


#: Process-wide kernel instances shared by the registry and every
#: AutoBackend, so there is exactly one FFT transform memo.
_DIRECT = DirectBackend()
_FFT = FFTBackend()

#: How far :func:`_direct_bound` scans; a cost ratio whose bound lies
#: beyond it just evaluates the cost formula for longer pairs.
_DIRECT_BOUND_SCAN = 1 << 14


def _direct_bound(cost_ratio: float) -> int:
    """Output length below which the cost model picks the direct side
    for *every* operand split.

    For a fixed ``n_out = n_a + n_b - 1`` the FFT cost is fixed and the
    direct cost ``n_a * n_b`` peaks at the even split, so scanning that
    split upward from 1 — with the dispatch's own expression, hence its
    bits — finds the first length where some pair could go to FFT.
    Shorter pairs can then skip the formula with no change of kernel.
    """
    for n_out in range(1, _DIRECT_BOUND_SCAN):
        half = (n_out + 1) // 2
        if half * (n_out + 1 - half) > cost_ratio * n_out * np.log2(n_out + 1):
            return n_out
    return _DIRECT_BOUND_SCAN


class AutoBackend:
    """Size-based dispatch between :class:`DirectBackend` and
    :class:`FFTBackend` using the calibrated cost model.

    Parameters
    ----------
    cost_ratio:
        The machine's ``k_f / k_d`` — FFT butterfly cost per
        ``N log2 N`` over direct cost per multiply.  Larger values
        favor direct longer.

    ``_direct`` is the direct-side kernel (:class:`DirectBackend`
    here); :class:`CompiledAutoBackend` swaps in the compiled one.
    """

    name = "auto"

    def __init__(self, cost_ratio: float = AUTO_COST_RATIO) -> None:
        if cost_ratio <= 0.0:
            raise DistributionError(
                f"cost_ratio must be positive, got {cost_ratio}"
            )
        self.cost_ratio = cost_ratio
        #: pairs with ``n_a + n_b - 1`` below this always go direct
        #: (994 bins at the default ratio), without the cost formula
        self.direct_below = _direct_bound(cost_ratio)
        # Shared singletons: auto's large-operand path must hit the
        # same transform memo as explicit "fft" calls, not a second
        # cache holding duplicate transforms.
        self._direct = _DIRECT
        self._fft = _FFT

    def chooses(self, n_a: int, n_b: int) -> str:
        """Name of the kernel this operand pair dispatches to: the
        direct side's or ``"fft"``."""
        n_out = n_a + n_b - 1
        if n_out < self.direct_below:
            return self._direct.name
        fft_cost = self.cost_ratio * n_out * np.log2(n_out + 1)
        return self._direct.name if n_a * n_b <= fft_cost else "fft"

    def convolve_masses(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.chooses(a.size, b.size) == "fft":
            return self._fft.convolve_masses(a, b)
        return self._direct.convolve_masses(a, b)

    def convolve_many(self, pairs: Sequence) -> Sequence:
        """Per-pair dispatch by the cost model, one batch per side:
        the direct-side pairs (bitwise the sequential path — the
        property the default config's reproducibility rests on) in one
        call to the direct kernel, the rest in one call to the FFT
        kernel.  Pairs shorter
        than :attr:`direct_below` skip the cost formula.  A batch with
        no FFT-side pair returns the direct kernel's rows as they are,
        so the level merge reads them packed."""
        bound = self.direct_below
        fft = [
            i for i, (a, b) in enumerate(pairs)
            if a.size + b.size > bound
            and self.chooses(a.size, b.size) == "fft"
        ]
        if not fft:
            return self._direct.convolve_many(pairs)
        on_fft = set(fft)
        direct = [i for i in range(len(pairs)) if i not in on_fft]
        out: list = [None] * len(pairs)
        for idx, kernel in ((direct, self._direct), (fft, self._fft)):
            rows = kernel.convolve_many([pairs[i] for i in idx])
            for i, row in zip(idx, rows):
                out[i] = row
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(cost_ratio={self.cost_ratio:g})"


class CompiledBackend:
    """Compiled direct convolution behind the backend protocol.

    Delegates to the C provider resolved by :mod:`repro.dist._compiled`
    and degrades to the pure-NumPy ``direct`` numerics (bitwise: the
    same ``np.convolve``) with one warning when no provider can be
    stood up or ``REPRO_DISABLE_COMPILED`` is set.  Provider resolution
    is lazy — importing this module never compiles anything.

    ``convolve_many`` returns the provider's rows: views into one
    buffer per batch, which the build step reads packed.
    """

    name = "compiled"

    @staticmethod
    def _provider():
        p = _compiled.get_provider()
        if p is None:
            _compiled.warn_degraded_once()
        return p

    def convolve_masses(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        p = self._provider()
        if p is None:
            return np.convolve(a, b)
        return p.conv_one(a, b)

    def convolve_many(self, pairs: Sequence) -> list:
        pairs = list(pairs)
        if not pairs:
            return []
        p = self._provider()
        if p is None:
            return [np.convolve(a, b) for a, b in pairs]
        return p.conv_many(pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledBackend(provider={_compiled.provider_kind()!r})"


#: Calibrated ``k_f / k_d`` for the compiled-auto dispatch.  The
#: compiled direct kernel runs ~2x the NumPy direct throughput at
#: sub-crossover sizes, pushing the equal-size crossover vs the same
#: FFT backend out accordingly; ``scripts/bench_dist.py`` re-measures
#: the crossover this implies and records it next to the direct one.
COMPILED_AUTO_COST_RATIO: float = 50.0

#: Equal-size operand count where the compiled-auto cost model flips
#: to FFT (documentation/benchmark anchor, like
#: :data:`EQUAL_SIZE_CROSSOVER_BINS`).
COMPILED_EQUAL_SIZE_CROSSOVER_BINS: int = 1024


class CompiledAutoBackend(AutoBackend):
    """The :class:`AutoBackend` dispatch with the compiled kernel on
    the direct side, under a re-calibrated cost ratio (the FFT side is
    the shared :class:`FFTBackend` singleton, same transform memo as
    explicit ``fft``).  Degraded, its direct side is the NumPy
    ``np.convolve``, at the same crossover.
    """

    name = "compiled-auto"

    def __init__(self, cost_ratio: float = COMPILED_AUTO_COST_RATIO) -> None:
        super().__init__(cost_ratio)
        self._direct = _COMPILED


#: Shared compiled singleton — compiled-auto routes its direct-side
#: calls through the same instance.
_COMPILED = CompiledBackend()

#: Shared singletons — resolution never allocates, and "auto" routes
#: its FFT-path calls through the same memo as "fft".
_REGISTRY = {
    "direct": _DIRECT,
    "fft": _FFT,
    "auto": AutoBackend(),
    "compiled": _COMPILED,
    "compiled-auto": CompiledAutoBackend(),
}

assert set(_REGISTRY) == set(KNOWN_BACKENDS), (
    "repro.config.KNOWN_BACKENDS and the backend registry disagree"
)

#: What the kernel entry points accept: a registry name or any object
#: honoring the :class:`ConvolutionBackend` protocol.
BackendLike = Union[str, ConvolutionBackend]


def available_backends() -> tuple:
    """Names resolvable by :func:`get_backend`, in registry order."""
    return tuple(_REGISTRY)


def is_registry_backend(kernel) -> bool:
    """True when ``kernel`` is one of the registry singletons — the
    only case where its *name* uniquely identifies the implementation
    in another process or a later run.  The cache snapshots (persisting
    entries under a backend name) gate on this: a custom instance
    aliasing a registry name must never be resolved by name into the
    registry kernel's bits."""
    name = getattr(kernel, "name", None)
    if not isinstance(name, str):
        return False
    return _REGISTRY.get(name) is kernel


def get_backend(spec: BackendLike) -> ConvolutionBackend:
    """Resolve a backend name (or pass a backend instance through).

    Raises :class:`~repro.errors.DistributionError` for unknown names
    or objects that do not implement the protocol, so a typo'd config
    fails loudly at the first kernel call rather than mid-analysis.
    """
    if isinstance(spec, str):
        backend = _REGISTRY.get(spec)
        if backend is None:
            raise DistributionError(
                f"unknown convolution backend {spec!r}; "
                f"available: {', '.join(_REGISTRY)}"
            )
        return backend
    if callable(getattr(spec, "convolve_masses", None)):
        return spec
    raise DistributionError(
        f"{spec!r} is neither a backend name nor a ConvolutionBackend"
    )
