"""Compiled providers for the ``compiled`` backend tier.

The :class:`~repro.dist.backends.CompiledBackend` family delegates its
inner loops to a *provider* resolved here: numba ``@njit`` kernels when
numba is importable (the ``[compiled]`` install extra), otherwise a
tiny C library compiled on first use with the system C compiler and
loaded through cffi (or ctypes when cffi is absent).  When neither
provider can be stood up — no numba, no compiler — ``get_provider()``
returns ``None`` and the compiled backends degrade to the pure-NumPy
``direct`` numerics with a single warning, so selecting ``compiled``
is always safe.

Three kernel families are provided, all operating on packed flat
buffers (operands concatenated, ``int64`` offset/length arrays) so a
whole level batch costs one foreign call:

* **convolve** — scatter-form direct convolution, scalar and batched;
* **trim** — the fused normalize-and-trim construction step: a mirror
  of ``DiscretePDF._trusted(...).trimmed(trim_eps)`` whose reductions
  run sequentially in compiled code.  This is where the cache-miss
  speedup lives: the stock path pays ~10 µs of per-result NumPy
  dispatch (sum, divide, cumsum, searchsorted) per pair, the fused
  path pays one compiled call per batch.
* **max sweep** — the padded-CDF product + adjacent difference of the
  grouped statistical MAX.  Unlike the convolve/trim family this one
  must be **bitwise identical** to the NumPy sweep (MAX cache keys
  carry no backend component), which it is by construction: the same
  multiplications and subtractions in the same order, with
  ``-ffp-contract=off`` pinning the C build.  A self-check verifies it
  and disables the sweep (never the provider) on any mismatch.

Equivalence classes: the convolve/trim family is a *tolerance* class
like the FFT backend — within 1e-12 total variation of ``direct`` but
not bitwise (sequential instead of pairwise reductions) — while the
max sweep is bitwise.  Within the compiled class itself everything is
deterministic and batch-invariant: scalar and batched paths run the
exact same compiled code per item.

``REPRO_DISABLE_COMPILED=1`` disables provider resolution entirely
(the kill switch); ``REPRO_COMPILED_CACHE`` overrides where the C
library is built (default ``~/.cache/repro/compiled``).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..config import MAX_BINS
from ..errors import DistributionError
from .pdf import DiscretePDF

__all__ = [
    "get_provider",
    "provider_kind",
    "reset_provider_cache",
    "DISABLE_ENV",
    "CACHE_DIR_ENV",
]

#: Kill switch: set to a non-empty value (other than ``0``) to disable
#: the compiled tier entirely; the compiled backends then run the
#: pure-NumPy direct numerics.
DISABLE_ENV = "REPRO_DISABLE_COMPILED"

#: Where the C provider caches its compiled shared library.
CACHE_DIR_ENV = "REPRO_COMPILED_CACHE"

# ----------------------------------------------------------------------
# C source.  The trim kernel mirrors DiscretePDF._trusted(...).trimmed:
# normalize by the total, cut the largest prefix/suffix whose
# cumulative normalized mass stays <= trim_eps/2, lump the dropped mass
# onto the boundary bins, renormalize the kept vector (skipped when
# nothing was cut, exactly like the stock path returning self).  The
# reductions are sequential — this module's own arithmetic class — so
# results agree with the stock path to ~n ulp (well inside 1e-12 TV)
# but are not bitwise.  The max sweep, by contrast, performs the exact
# operation sequence of np.prod(grid, axis=0) + the spelled-out diff,
# so it *is* bitwise (and is verified before use).
# ----------------------------------------------------------------------

_C_SOURCE = r"""
#include <math.h>
#include <string.h>

#define EXPORT __attribute__((visibility("default")))

static void conv_axpy(const double *a, long long na,
                      const double *b, long long nb, double *out)
{
    long long i, j;
    if (na < nb) {
        const double *tp = a; a = b; b = tp;
        long long tn = na; na = nb; nb = tn;
    }
    /* Scatter form with the shorter operand outermost: each output
       element accumulates its terms in ascending j, one rounding per
       term, independent of SIMD width. */
    for (j = 0; j < nb; ++j) {
        const double bj = b[j];
        double *o = out + j;
        for (i = 0; i < na; ++i)
            o[i] += a[i] * bj;
    }
}

/* Mirror of DiscretePDF._trusted(dt, off, raw).trimmed(trim_eps).
   Writes the kept (normalized) vector into `kept`, the cut index into
   *plo, and returns the kept length (< 0 on a non-positive total). */
static long long trim_one(const double *raw, long long n, double half,
                          double *kept, long long *plo)
{
    double total = 0.0, acc, tacc, lead, tlump;
    long long j, lo, hidrop, hi, klen;

    for (j = 0; j < n; ++j) total += raw[j];
    if (!(total > 0.0) || isinf(total)) return -1;

    /* Largest prefix of the normalized cdf with cumulative <= half
       (the cdf is non-decreasing, so the first excess ends the scan). */
    acc = 0.0; lead = 0.0; lo = 0;
    for (j = 0; j < n; ++j) {
        acc += raw[j] / total;
        if (acc <= half) { lo = j + 1; lead = acc; } else break;
    }
    /* Symmetric largest suffix, accumulated right-to-left. */
    tacc = 0.0; tlump = 0.0; hidrop = 0;
    for (j = n - 1; j >= 0; --j) {
        tacc += raw[j] / total;
        if (tacc <= half) { hidrop = n - j; tlump = tacc; } else break;
    }
    hi = n - hidrop;

    if (lo >= hi) {
        /* Degenerate request: keep the first-argmax bin and lump the
           full prefix/suffix sums onto it. */
        long long am = 0;
        double best = raw[0] / total, v;
        for (j = 1; j < n; ++j) {
            v = raw[j] / total;
            if (v > best) { best = v; am = j; }
        }
        lo = am; hi = am + 1;
        lead = 0.0;
        for (j = 0; j < lo; ++j) lead += raw[j] / total;
        tlump = 0.0;
        for (j = n - 1; j >= hi; --j) tlump += raw[j] / total;
    }

    if (lo == 0 && hi == n) {
        /* Nothing dropped: the trusted normalization is the result
           (no second renormalization, mirroring trimmed() returning
           self). */
        for (j = 0; j < n; ++j) kept[j] = raw[j] / total;
        *plo = 0;
        return n;
    }

    klen = hi - lo;
    for (j = 0; j < klen; ++j) kept[j] = raw[lo + j] / total;
    if (lo > 0) kept[0] += lead;
    if (hi < n) kept[klen - 1] += tlump;

    /* The _trusted renormalization of the kept vector. */
    acc = 0.0;
    for (j = 0; j < klen; ++j) acc += kept[j];
    if (!(acc > 0.0)) return -1;
    if (acc != 1.0)
        for (j = 0; j < klen; ++j) kept[j] /= acc;
    *plo = lo;
    return klen;
}

EXPORT long long repro_conv_batch(
    const double *A, const long long *aoff, const long long *alen,
    const double *B, const long long *boff, const long long *blen,
    double *OUT, const long long *ooff, long long k)
{
    long long i;
    for (i = 0; i < k; ++i) {
        long long na = alen[i], nb = blen[i];
        double *out = OUT + ooff[i];
        memset(out, 0, (size_t)(na + nb - 1) * sizeof(double));
        conv_axpy(A + aoff[i], na, B + boff[i], nb, out);
    }
    return 0;
}

EXPORT long long repro_conv_trim_batch(
    const double *A, const long long *aoff, const long long *alen,
    const double *B, const long long *boff, const long long *blen,
    double *OUT, const long long *ooff, double half,
    double *KEPT, long long *klo, long long *klen, long long k)
{
    long long i, r;
    for (i = 0; i < k; ++i) {
        long long na = alen[i], nb = blen[i];
        long long n = na + nb - 1;
        double *out = OUT + ooff[i];
        memset(out, 0, (size_t)n * sizeof(double));
        conv_axpy(A + aoff[i], na, B + boff[i], nb, out);
        r = trim_one(out, n, half, KEPT + ooff[i], klo + i);
        if (r < 0) return -(i + 1);
        klen[i] = r;
    }
    return 0;
}

EXPORT long long repro_trim_batch(
    const double *RAW, const long long *roff, const long long *rlen,
    double half, double *KEPT, long long *klo, long long *klen,
    long long k)
{
    long long i, r;
    for (i = 0; i < k; ++i) {
        r = trim_one(RAW + roff[i], rlen[i], half, KEPT + roff[i],
                     klo + i);
        if (r < 0) return -(i + 1);
        klen[i] = r;
    }
    return 0;
}

EXPORT long long repro_conv_trim_one(
    const double *a, long long na, const double *b, long long nb,
    double *out, double half, double *kept, long long *klo)
{
    long long n = na + nb - 1;
    memset(out, 0, (size_t)n * sizeof(double));
    conv_axpy(a, na, b, nb, out);
    return trim_one(out, n, half, kept, klo);
}

EXPORT long long repro_max_sweep(
    const double *CDF, const long long *cdfoff, const long long *cdflen,
    const long long *rstart,
    const long long *grow0, const long long *gk,
    const long long *gwidth, const long long *gooff,
    double *OUT, long long ngroups)
{
    long long g, r, w;
    for (g = 0; g < ngroups; ++g) {
        long long W = gwidth[g], r0 = grow0[g], k = gk[g];
        double *out = OUT + gooff[g];
        {
            const double *cdf = CDF + cdfoff[r0];
            long long s = rstart[r0], n = cdflen[r0];
            for (w = 0; w < W; ++w)
                out[w] = (w < s) ? 0.0 : (w < s + n ? cdf[w - s] : 1.0);
        }
        for (r = 1; r < k; ++r) {
            const double *cdf = CDF + cdfoff[r0 + r];
            long long s = rstart[r0 + r], n = cdflen[r0 + r];
            for (w = 0; w < W; ++w)
                out[w] *= (w < s) ? 0.0 : (w < s + n ? cdf[w - s] : 1.0);
        }
        for (w = W - 1; w >= 1; --w) out[w] = out[w] - out[w - 1];
    }
    return 0;
}
"""

#: Flags pin the arithmetic: no FMA contraction, no reassociation
#: (C forbids it below -ffast-math), so the max sweep's operation
#: sequence matches NumPy's on every conforming build.  SIMD width is
#: free to vary — each output element still accumulates its own terms
#: in the same order — so ``-march=native`` (tried first, with a
#: portable fallback) only changes speed, never bits, within one host's
#: cached build.
_C_FLAGS_BASE = (
    "-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno"
)
_C_FLAG_SETS = (
    _C_FLAGS_BASE + ("-march=native",),
    _C_FLAGS_BASE,
)

_ENTRY_POINTS = {
    "repro_conv_batch": 9,
    "repro_conv_trim_batch": 13,
    "repro_trim_batch": 8,
    "repro_conv_trim_one": 8,
    "repro_max_sweep": 10,
}

_CDEF = """
long long repro_conv_batch(const double *, const long long *, const long long *,
    const double *, const long long *, const long long *,
    double *, const long long *, long long);
long long repro_conv_trim_batch(const double *, const long long *, const long long *,
    const double *, const long long *, const long long *,
    double *, const long long *, double,
    double *, long long *, long long *, long long);
long long repro_trim_batch(const double *, const long long *, const long long *,
    double, double *, long long *, long long *, long long);
long long repro_conv_trim_one(const double *, long long, const double *, long long,
    double *, double, double *, long long *);
long long repro_max_sweep(const double *, const long long *, const long long *,
    const long long *, const long long *, const long long *,
    const long long *, const long long *, double *, long long);
"""


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro" / "compiled"


def _compile_library() -> Path:
    """Compile the C source into a content-addressed shared library,
    reusing a previous build when the source and flags are unchanged
    (later sessions skip straight to dlopen).
    ``-march=native`` is attempted first and dropped for compilers
    that reject it."""
    cc = (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )
    if cc is None:
        raise RuntimeError("no C compiler found")
    cache = _cache_dir()
    last_exc: Optional[BaseException] = None
    for flags in _C_FLAG_SETS:
        digest = hashlib.sha256(
            ("\x00".join((_C_SOURCE,) + flags)).encode()
        ).hexdigest()[:16]
        so_path = cache / f"repro_kernels-{digest}.so"
        if so_path.exists():
            return so_path
        cache.mkdir(parents=True, exist_ok=True)
        c_path = cache / f"repro_kernels-{digest}.c"
        c_path.write_text(_C_SOURCE)
        with tempfile.NamedTemporaryFile(
            dir=cache, suffix=".so", delete=False
        ) as tmp:
            tmp_path = Path(tmp.name)
        try:
            subprocess.run(
                [cc, *flags, "-o", str(tmp_path), str(c_path)],
                check=True,
                capture_output=True,
                timeout=120,
            )
            # Atomic publish: concurrent builders race benignly.
            os.replace(tmp_path, so_path)
            return so_path
        except BaseException as exc:
            tmp_path.unlink(missing_ok=True)
            last_exc = exc
    raise RuntimeError(f"C compilation failed: {last_exc}")


def _pack(arrs: Sequence[np.ndarray]):
    """Concatenate 1-D float64 vectors; returns (flat, offsets, lengths)."""
    lens = np.fromiter(
        (a.size for a in arrs), dtype=np.int64, count=len(arrs)
    )
    offs = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    return np.concatenate(arrs) if arrs else np.empty(0), offs, lens


def _build_result(
    dt: float, offset: int, kept: np.ndarray, trim_eps: float
) -> DiscretePDF:
    """Wrap a provider-normalized kept vector without re-reducing it.

    The compiled trim already normalized ``kept`` (its own sequential
    arithmetic — the compiled class's analog of ``_trusted``'s
    division), so construction only stamps the fields and the trim
    idempotence memo, exactly as ``trimmed()`` does on its output.
    Callers pass an already read-only buffer (or view of one) and a
    plain-int offset; fields go straight into the instance dict — the
    frozen-dataclass ``__setattr__`` guard is for users, and this
    constructor is the compiled twin of ``_trusted``'s
    ``object.__setattr__`` sequence.
    """
    out = object.__new__(DiscretePDF)
    out.__dict__.update(
        dt=dt, offset=offset, masses=kept, _trim_level=trim_eps
    )
    return out


def _check_bins(n: int) -> None:
    if n > MAX_BINS:
        raise DistributionError(
            f"distribution spans {n} bins, exceeding MAX_BINS="
            f"{MAX_BINS}; dt is too small for this analysis"
        )


class _CProvider:
    """C shared-library provider (cffi preferred, ctypes fallback)."""

    kind = "cext"

    def __init__(self) -> None:
        so_path = _compile_library()
        self._impl = self._load_cffi(so_path) or self._load_ctypes(so_path)
        if self._impl is None:
            raise RuntimeError("could not load compiled library")
        self.max_ok = True

    # -- loading -------------------------------------------------------
    @staticmethod
    def _load_cffi(so_path: Path):
        try:
            import cffi
        except ImportError:  # pragma: no cover - cffi is ubiquitous
            return None
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        lib = ffi.dlopen(str(so_path))

        def dbl(arr):
            return ffi.from_buffer("double[]", arr, require_writable=False)

        def wdbl(arr):
            return ffi.from_buffer("double[]", arr)

        def i64(arr):
            return ffi.from_buffer(
                "long long[]", arr, require_writable=False
            )

        def wi64(arr):
            return ffi.from_buffer("long long[]", arr)

        return {
            "lib": lib, "dbl": dbl, "wdbl": wdbl, "i64": i64, "wi64": wi64
        }

    @staticmethod
    def _load_ctypes(so_path: Path):  # pragma: no cover - cffi fallback
        import ctypes

        lib = ctypes.CDLL(str(so_path))
        for name, argc in _ENTRY_POINTS.items():
            fn = getattr(lib, name)
            fn.restype = ctypes.c_longlong
        dptr = ctypes.POINTER(ctypes.c_double)
        iptr = ctypes.POINTER(ctypes.c_longlong)

        def dbl(arr):
            return arr.ctypes.data_as(dptr)

        def i64(arr):
            return arr.ctypes.data_as(iptr)

        return {"lib": lib, "dbl": dbl, "wdbl": dbl, "i64": i64,
                "wi64": i64, "ctypes": True}

    def _call(self, name, *args):
        impl = self._impl
        fn = getattr(impl["lib"], name)
        if impl.get("ctypes"):  # pragma: no cover - cffi fallback
            import ctypes

            coerced = [
                ctypes.c_longlong(a) if isinstance(a, int)
                else ctypes.c_double(a) if isinstance(a, float)
                else a
                for a in args
            ]
            return int(fn(*coerced))
        return int(fn(*args))

    # -- convolve ------------------------------------------------------
    def conv_one(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        impl = self._impl
        n = a.size + b.size - 1
        out = np.empty(n)
        # Routed through the fused entry (one code path); the trim
        # writes into scratch and is discarded, the conv output is the
        # contract.
        rc = self._call(
            "repro_conv_trim_one",
            impl["dbl"](a), a.size, impl["dbl"](b), b.size,
            impl["wdbl"](out), 0.0, impl["wdbl"](np.empty(n)),
            impl["wi64"](np.empty(1, dtype=np.int64)),
        )
        if rc < 0:
            raise DistributionError("total probability mass must be positive")
        return out

    def conv_many(self, pairs: Sequence) -> list:
        if not pairs:
            return []
        impl = self._impl
        A, aoff, alen = _pack([p[0] for p in pairs])
        B, boff, blen = _pack([p[1] for p in pairs])
        olen = alen + blen - 1
        ooff = np.zeros(olen.size + 1, dtype=np.int64)
        np.cumsum(olen, out=ooff[1:])
        OUT = np.empty(int(ooff[-1]))
        rc = self._call(
            "repro_conv_batch",
            impl["dbl"](A), impl["i64"](aoff), impl["i64"](alen),
            impl["dbl"](B), impl["i64"](boff), impl["i64"](blen),
            impl["wdbl"](OUT), impl["i64"](ooff), len(pairs),
        )
        if rc != 0:  # pragma: no cover - conv_batch cannot fail
            raise DistributionError("compiled convolution failed")
        # Owned copies: callers (cache stores) must not pin the whole
        # batch buffer through one row.
        return [
            OUT[ooff[i]:ooff[i + 1]].copy() for i in range(len(pairs))
        ]

    # -- fused convolve + trim ----------------------------------------
    def conv_trim_one(
        self, a: np.ndarray, b: np.ndarray, dt: float, offset: int,
        trim_eps: float,
    ):
        impl = self._impl
        n = a.size + b.size - 1
        _check_bins(n)
        raw = np.empty(n)
        kept_buf = np.empty(n)
        klo = np.empty(1, dtype=np.int64)
        klen = self._call(
            "repro_conv_trim_one",
            impl["dbl"](a), a.size, impl["dbl"](b), b.size,
            impl["wdbl"](raw), trim_eps / 2.0,
            impl["wdbl"](kept_buf), impl["wi64"](klo),
        )
        if klen < 0:
            raise DistributionError("total probability mass must be positive")
        kept_buf.flags.writeable = False
        result = _build_result(
            dt, int(offset) + int(klo[0]), kept_buf[:klen], trim_eps
        )
        return raw, result

    def conv_trim_many(
        self, pairs: Sequence, dts, offsets, trim_eps: float,
        want_raws: bool,
    ):
        if not pairs:
            return [], []
        impl = self._impl
        A, aoff, alen = _pack([p[0] for p in pairs])
        B, boff, blen = _pack([p[1] for p in pairs])
        olen = alen + blen - 1
        _check_bins(int(olen.max()))
        ooff = np.zeros(olen.size + 1, dtype=np.int64)
        np.cumsum(olen, out=ooff[1:])
        OUT = np.empty(int(ooff[-1]))
        KEPT = np.empty(int(ooff[-1]))
        klo = np.empty(len(pairs), dtype=np.int64)
        klen = np.empty(len(pairs), dtype=np.int64)
        rc = self._call(
            "repro_conv_trim_batch",
            impl["dbl"](A), impl["i64"](aoff), impl["i64"](alen),
            impl["dbl"](B), impl["i64"](boff), impl["i64"](blen),
            impl["wdbl"](OUT), impl["i64"](ooff), trim_eps / 2.0,
            impl["wdbl"](KEPT), impl["wi64"](klo), impl["wi64"](klen),
            len(pairs),
        )
        if rc != 0:
            raise DistributionError("total probability mass must be positive")
        # Results are read-only views into the batch's kept buffer:
        # nothing else ever writes it, and the pinned overhead is
        # bounded by one raw-sized buffer per batch.  Raws (cache
        # stores) are copied out — long-lived entries must not pin the
        # batch.
        KEPT.flags.writeable = False
        results = []
        raws = [] if want_raws else None
        # Hot loop: this is the per-result cost the tier exists to
        # shrink, so the _build_result body is inlined (no call, one
        # dict rebind) — same fields, same semantics.
        new = object.__new__
        cls = DiscretePDF
        append = results.append
        for o, kl, lo, dt, off in zip(
            ooff.tolist(), klen.tolist(), klo.tolist(), dts, offsets
        ):
            out = new(cls)
            out.__dict__.update(
                dt=dt, offset=off + lo,
                masses=KEPT[o:o + kl], _trim_level=trim_eps,
            )
            append(out)
        if want_raws:
            for o, ol in zip(ooff.tolist(), olen.tolist()):
                raws.append(OUT[o:o + ol].copy())
        return raws, results

    # -- trim of precomputed raws -------------------------------------
    def trim_one(
        self, dt: float, offset: int, raw: np.ndarray, trim_eps: float
    ) -> DiscretePDF:
        raws, results = self.trim_many(
            [raw], [dt], [offset], trim_eps
        )
        return results[0]

    def trim_many(self, raws: Sequence, dts, offsets, trim_eps: float):
        if not raws:
            return None, []
        impl = self._impl
        RAW, roff, rlen = _pack(list(raws))
        _check_bins(int(rlen.max()))
        KEPT = np.empty(RAW.size)
        klo = np.empty(len(raws), dtype=np.int64)
        klen = np.empty(len(raws), dtype=np.int64)
        rc = self._call(
            "repro_trim_batch",
            impl["dbl"](RAW), impl["i64"](roff), impl["i64"](rlen),
            trim_eps / 2.0, impl["wdbl"](KEPT), impl["wi64"](klo),
            impl["wi64"](klen), len(raws),
        )
        if rc != 0:
            raise DistributionError("total probability mass must be positive")
        KEPT.flags.writeable = False
        results = []
        # Same inlined construction as conv_trim_many's hot loop.
        new = object.__new__
        cls = DiscretePDF
        append = results.append
        for o, kl, lo, dt, off in zip(
            roff.tolist(), klen.tolist(), klo.tolist(), dts, offsets
        ):
            out = new(cls)
            out.__dict__.update(
                dt=dt, offset=off + lo,
                masses=KEPT[o:o + kl], _trim_level=trim_eps,
            )
            append(out)
        return None, results

    # -- grouped MAX sweep --------------------------------------------
    def max_sweep(self, groups: Sequence) -> list:
        """``(lo, masses)`` per operand group — bitwise the NumPy
        ``_max_masses`` sweep (same multiplies, same order)."""
        impl = self._impl
        cdfs = []
        rstart = []
        grow0 = np.empty(len(groups), dtype=np.int64)
        gk = np.empty(len(groups), dtype=np.int64)
        gwidth = np.empty(len(groups), dtype=np.int64)
        gooff = np.zeros(len(groups) + 1, dtype=np.int64)
        los = []
        for g, pdfs in enumerate(groups):
            lo = min(p.offset for p in pdfs)
            width = max(p.offset + p.masses.size for p in pdfs) - lo
            los.append(lo)
            grow0[g] = len(cdfs)
            gk[g] = len(pdfs)
            gwidth[g] = width
            gooff[g + 1] = gooff[g] + width
            for p in pdfs:
                cdfs.append(p._unit_cdf)  # noqa: SLF001
                rstart.append(p.offset - lo)
        CDF, cdfoff, cdflen = _pack(cdfs)
        rstart_arr = np.asarray(rstart, dtype=np.int64)
        OUT = np.empty(int(gooff[-1]))
        rc = self._call(
            "repro_max_sweep",
            impl["dbl"](CDF), impl["i64"](cdfoff), impl["i64"](cdflen),
            impl["i64"](rstart_arr), impl["i64"](grow0), impl["i64"](gk),
            impl["i64"](gwidth), impl["i64"](gooff), impl["wdbl"](OUT),
            len(groups),
        )
        if rc != 0:  # pragma: no cover - sweep cannot fail
            raise DistributionError("compiled max sweep failed")
        return [
            (los[g], OUT[gooff[g]:gooff[g + 1]].copy())
            for g in range(len(groups))
        ]


class _NumbaProvider:
    """numba ``@njit(cache=True)`` provider — same packed layout and
    loop structure as the C provider, so the self-check exercises the
    identical contract."""

    kind = "numba"

    def __init__(self) -> None:
        from . import _compiled_numba as nb

        self._nb = nb
        self.max_ok = True
        # Trigger JIT compilation now; numba's on-disk cache makes
        # repeats cheap.
        a = np.asarray([0.25, 0.5, 0.25])
        self.conv_trim_one(a, a, 1.0, 0, 1e-9)
        self.max_sweep([(
            DiscretePDF(1.0, 0, a),
            DiscretePDF(1.0, 1, a),
        )])

    def conv_one(self, a, b):
        out = np.zeros(a.size + b.size - 1)
        self._nb.conv_into(a, b, out)
        return out

    def conv_many(self, pairs):
        return [self.conv_one(a, b) for a, b in pairs]

    def conv_trim_one(self, a, b, dt, offset, trim_eps):
        n = a.size + b.size - 1
        _check_bins(n)
        raw = np.zeros(n)
        self._nb.conv_into(a, b, raw)
        return raw, self.trim_one(dt, offset, raw, trim_eps)

    def conv_trim_many(self, pairs, dts, offsets, trim_eps, want_raws):
        raws, results = [], []
        for i, (a, b) in enumerate(pairs):
            raw, res = self.conv_trim_one(
                a, b, dts[i], offsets[i], trim_eps
            )
            raws.append(raw)
            results.append(res)
        return (raws if want_raws else None), results

    def trim_one(self, dt, offset, raw, trim_eps):
        _check_bins(raw.size)
        kept_buf = np.empty(raw.size)
        lo, klen = self._nb.trim_into(raw, trim_eps / 2.0, kept_buf)
        if klen < 0:
            raise DistributionError("total probability mass must be positive")
        kept_buf.flags.writeable = False
        return _build_result(
            dt, int(offset) + int(lo), kept_buf[:klen], trim_eps
        )

    def trim_many(self, raws, dts, offsets, trim_eps):
        return None, [
            self.trim_one(dts[i], offsets[i], raw, trim_eps)
            for i, raw in enumerate(raws)
        ]

    def max_sweep(self, groups):
        out = []
        for pdfs in groups:
            lo = min(p.offset for p in pdfs)
            width = max(p.offset + p.masses.size for p in pdfs) - lo
            CDF, cdfoff, cdflen = _pack(
                [p._unit_cdf for p in pdfs]  # noqa: SLF001
            )
            rstart = np.asarray(
                [p.offset - lo for p in pdfs], dtype=np.int64
            )
            masses = np.empty(width)
            self._nb.max_sweep_into(
                CDF, cdfoff, cdflen, rstart, width, masses
            )
            out.append((lo, masses))
        return out


# ----------------------------------------------------------------------
# Self-check: every provider proves its contract before first use.
# Convolve/trim differentials run against the stock NumPy path at the
# 1e-12-TV class boundary; the max sweep must be bitwise.  Conv/trim
# failure rejects the provider outright; a max-sweep mismatch only
# disables the sweep (the provider stays useful for ADD).
# ----------------------------------------------------------------------


def _tv(a: np.ndarray, b: np.ndarray) -> float:
    n = max(a.size, b.size)
    pa = np.zeros(n)
    pa[: a.size] = a
    pb = np.zeros(n)
    pb[: b.size] = b
    return 0.5 * float(np.abs(pa - pb).sum())


def _self_check(provider) -> None:
    rng = np.random.default_rng(20260808)
    cases = []
    for n_a, n_b in ((1, 1), (3, 7), (17, 17), (33, 129), (64, 64)):
        a = rng.random(n_a) + 1e-4
        b = rng.random(n_b) + 1e-4
        cases.append((a / a.sum(), b / b.sum()))
    for trim_eps in (0.0, 1e-9, 1e-3, 0.9):
        dts, offs = [1.0] * len(cases), [3] * len(cases)
        raws, results = provider.conv_trim_many(
            cases, dts, offs, trim_eps, True
        )
        raws2, results2 = provider.conv_trim_many(
            cases, dts, offs, trim_eps, True
        )
        for (a, b), raw, raw2, res, res2 in zip(
            cases, raws, raws2, results, results2
        ):
            ref_raw = np.convolve(a, b)
            if _tv(raw, ref_raw) > 1e-13 or not np.array_equal(raw, raw2):
                raise RuntimeError("compiled convolve failed self-check")
            ref = DiscretePDF._trusted(  # noqa: SLF001
                1.0, 3, ref_raw.copy()
            ).trimmed(trim_eps)
            # Generic masses sit nowhere near the eps/2 threshold, so
            # the compiled cut lands on the stock bin and the kept
            # vectors differ only in reduction round-off.
            if (
                res.offset != ref.offset
                or res.masses.size != ref.masses.size
                or _tv(res.masses, ref.masses) > 1e-12
            ):
                raise RuntimeError("compiled trim failed self-check")
            if (
                res2.offset != res.offset
                or not np.array_equal(res.masses, res2.masses)
            ):
                raise RuntimeError("compiled trim is not deterministic")
            # Scalar path must agree bitwise with the batched path.
            raw_s, res_s = provider.conv_trim_one(a, b, 1.0, 3, trim_eps)
            if not np.array_equal(raw_s, raw) or not np.array_equal(
                res_s.masses, res.masses
            ):
                raise RuntimeError("compiled scalar/batch paths disagree")
            # trim-of-raw must agree bitwise with fused conv+trim.
            re_res = provider.trim_one(1.0, 3, raw, trim_eps)
            if re_res.offset != res.offset or not np.array_equal(
                re_res.masses, res.masses
            ):
                raise RuntimeError("compiled trim replay disagrees")
    # Max sweep: bitwise or disabled.
    from .ops import _max_masses

    groups = []
    for k in (2, 3, 5):
        pdfs = []
        for i in range(k):
            m = rng.random(int(rng.integers(3, 40))) + 1e-4
            pdfs.append(DiscretePDF(2.0, int(rng.integers(-5, 6)), m))
        groups.append(tuple(pdfs))
    try:
        swept = provider.max_sweep(groups)
        for pdfs, (lo, masses) in zip(groups, swept):
            ref_lo, ref = _max_masses(pdfs)
            if lo != ref_lo or not np.array_equal(masses, ref):
                raise RuntimeError("not bitwise")
    except Exception:
        provider.max_ok = False


_lock = threading.Lock()
_resolved = False
_provider = None
_fail_reason: Optional[str] = None


def get_provider():
    """The process-wide compiled provider, or ``None`` when the tier
    is unavailable (kill switch set, numba absent *and* no compiler,
    or a provider failed its self-check)."""
    global _resolved, _provider, _fail_reason
    if _resolved:
        return _provider
    with _lock:
        if _resolved:
            return _provider
        provider = None
        reason = None
        if os.environ.get(DISABLE_ENV, "0") not in ("", "0"):
            reason = f"{DISABLE_ENV} is set"
        else:
            try:
                import numba  # noqa: F401

                provider = _NumbaProvider()
            except Exception as exc:
                numba_reason = f"numba unavailable ({exc.__class__.__name__})"
                try:
                    provider = _CProvider()
                except Exception as c_exc:
                    reason = (
                        f"{numba_reason}; C build failed "
                        f"({c_exc.__class__.__name__}: {c_exc})"
                    )
            if provider is not None:
                try:
                    _self_check(provider)
                except Exception as exc:
                    provider = None
                    reason = f"self-check failed ({exc})"
        _provider = provider
        _fail_reason = reason
        _resolved = True
    return _provider


def provider_kind() -> Optional[str]:
    """``"numba"``, ``"cext"``, or ``None`` (resolving if needed)."""
    p = get_provider()
    return None if p is None else p.kind


def fail_reason() -> Optional[str]:
    get_provider()
    return _fail_reason


def reset_provider_cache() -> None:
    """Forget the resolved provider (tests toggle the kill switch and
    patch the numba import; the next use re-resolves)."""
    global _resolved, _provider, _fail_reason
    with _lock:
        _resolved = False
        _provider = None
        _fail_reason = None


_warned = False


def warn_degraded_once() -> None:
    """One warning per process the first time a compiled backend runs
    degraded (pure-NumPy direct numerics)."""
    global _warned
    if _warned:
        return
    _warned = True
    warnings.warn(
        "compiled kernel tier unavailable "
        f"({fail_reason() or 'unknown reason'}); the 'compiled' backends "
        "fall back to the pure-NumPy direct kernels "
        "(install the [compiled] extra for the numba tier)",
        RuntimeWarning,
        stacklevel=3,
    )
