"""The compiled kernel tier: a small C library built on first use.

A ~630-line C source is compiled once with the system C compiler
(content-addressed under ``~/.cache/repro/compiled``) and loaded
through cffi, or ctypes when cffi is absent.  When no compiler is
available, or the library fails its self-check, ``get_provider()``
returns ``None`` and every caller runs the pure-NumPy code instead.

Four kernel families, all operating on packed flat buffers (operands
concatenated, ``int64`` offset/length arrays) so a whole level batch
costs one foreign call:

* **add** — ``np.convolve`` for a batch of pairs over the batch's
  distinct operands, each packed once, with the raw outputs back to back
  (the layout the **level merge** reads).  **Bitwise**
  ``np.convolve``: it runs numpy's own correlate loop (the operand swap,
  the reversed shorter operand, the left ramp, middle and right ramp,
  and the small-kernel path for a shorter operand of at most 11 bins)
  and calls the same BLAS ``ddot`` numpy calls, so it gives numpy's bits
  under whichever ``ddot`` kernel the CPU selected.  The ``direct``
  backend runs every batch through it (``auto`` its direct-side pairs);
  its rows are pending until read, and a level merge handed them still
  pending runs the ADD inside its own call.
* **level merge** — every ADD and MAX result is constructed here, under
  every backend.  One call builds a batch's raw ADD outputs
  (``DiscretePDF._trusted(dt, off, raw).trimmed(trim_eps)``: normalize,
  cut the tails, lump the dropped mass onto the boundary bins,
  renormalize), takes every group's MAX over them and over finished
  operands (the padded-CDF product and its adjacent difference), and
  builds those results the same way.  A one-operand group is its ADD as
  built (straight into the output), so a batch of ADD results is a
  merge of one-operand groups, and a finished-only MAX batch is a merge
  with no raws.  The call sizes its own output, and given a base
  operand per group (a perturbation front's unperturbed arrivals) it
  also reports which results are bitwise their base and computes the
  others' Theorem-4 gap with the **gap** kernel's code, so a front
  level is one foreign call.  **Bitwise**
  the NumPy expressions: sums reproduce ``np.sum``'s pairwise
  reduction, cumulative sums are sequential like ``np.cumsum``, the
  64-bin probe and ``argmax`` fallback of ``trimmed`` are mirrored
  branch for branch, and the CDF product makes the same multiplications
  and subtractions in the same order.
* **gap** — ``max_percentile_gap(a, b)`` (the Theorem-4 δ) from the
  operands' ``(dt, offset, masses)``, bitwise the NumPy body: the knots,
  the inf-semantics inverse and ``np.interp`` (branch order, NaN retry)
  are mirrored exactly.
* **convolve** — scatter-form direct convolution for the opt-in
  ``compiled``/``compiled-auto`` backends.  This one is a *tolerance*
  class (sequential instead of pairwise accumulation: within 1e-12
  total variation of ``direct``), which is why those backends are not
  the default.

``-ffp-contract=off`` pins the build's arithmetic (no FMA
contraction).  A self-check proves each bitwise kernel on fixed
vectors before first use; a mismatch clears only that kernel's flag
(``merge_ok``, ``gap_ok``, ``add_ok``) and its callers fall back to
NumPy, which gives the same bits.  A convolution that fails its
tolerance check rejects the provider outright.  The kernels keep no
module-level state and allocate their scratch per call, so concurrent
threads may call them at once.

The **add** kernel's ``ddot`` is the ``cblas_ddot`` symbol of the BLAS
library numpy itself loaded (:func:`_blas_ddot`): its name and integer
width come from ``numpy.show_config``, the library from the shared
objects mapped into the process, and its address is passed into each
call.  When it is not found (a numpy without CBLAS, a platform without
``/proc/self/maps``) ``add_ok`` is cleared and callers keep the
``np.convolve`` loop, which gives the same bits.

``REPRO_DISABLE_COMPILED=1`` disables provider resolution entirely
(the kill switch); ``REPRO_COMPILED_CACHE`` overrides where the C
library is built.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from collections.abc import Sequence
from typing import Optional

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
#: the compiled tier entirely; every kernel then runs its NumPy code.
DISABLE_ENV = "REPRO_DISABLE_COMPILED"

#: Where the C provider caches its compiled shared library.
CACHE_DIR_ENV = "REPRO_COMPILED_CACHE"

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
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

/* NumPy's pairwise summation of a contiguous double vector. */
static double pw(const double *a, long long n)
{
    long long i;
    if (n < 8) {
        double res = 0.0;
        for (i = 0; i < n; ++i) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        for (i = 0; i < 8; ++i) r[i] = a[i];
        for (i = 8; i < n - (n % 8); i += 8) {
            r[0] += a[i + 0]; r[1] += a[i + 1];
            r[2] += a[i + 2]; r[3] += a[i + 3];
            r[4] += a[i + 4]; r[5] += a[i + 5];
            r[6] += a[i + 6]; r[7] += a[i + 7];
        }
        res = ((r[0] + r[1]) + (r[2] + r[3])) +
              ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i) res += a[i];
        return res;
    }
    {
        long long n2 = n / 2;
        n2 -= n2 % 8;
        return pw(a, n2) + pw(a + n2, n - n2);
    }
}

/* np.sum: the identity-initialised reduction. */
static double np_sum(const double *a, long long n)
{
    return 0.0 + pw(a, n);
}

/* Sequential (np.cumsum) sum of a[lo..hi), ascending or descending. */
static double cum_up(const double *a, long long lo, long long hi)
{
    double acc = a[lo];
    long long j;
    for (j = lo + 1; j < hi; ++j) acc += a[j];
    return acc;
}

static double cum_down(const double *a, long long hi, long long lo)
{
    double acc = a[hi];
    long long j;
    for (j = hi - 1; j >= lo; --j) acc += a[j];
    return acc;
}

/* Mirror of DiscretePDF._trusted(dt, off, raw).trimmed(2 * half).
   Writes the kept, normalized vector to m[0..klen) (m has room for n
   values, and may be raw itself), the cut index to *plo, and returns
   klen (-1 on a total that is not positive and finite). */
static long long build_one(const double *raw, long long n, double half,
                           double *m, long long *plo)
{
    double total = np_sum(raw, n), lead = 0.0, tlump = 0.0, acc;
    long long j, lo = 0, hi = n, hidrop = 0, klen;
    int probed = 0;

    if (!(total > 0.0) || isinf(total)) return -1;
    if (total != 1.0)
        for (j = 0; j < n; ++j) m[j] = raw[j] / total;
    else if (m != raw)
        memcpy(m, raw, (size_t)n * sizeof(double));

    if (n >= 128) {
        /* trimmed()'s 64-bin probe of each tail. */
        double pre[64], tail[64];
        pre[0] = m[0];
        tail[0] = m[n - 1];
        for (j = 1; j < 64; ++j) {
            pre[j] = pre[j - 1] + m[j];
            tail[j] = tail[j - 1] + m[n - 1 - j];
        }
        if (pre[63] > half && tail[63] > half) {
            probed = 1;
            for (lo = 0; lo < 64 && pre[lo] <= half; ++lo) ;
            for (hidrop = 0; hidrop < 64 && tail[hidrop] <= half; ++hidrop) ;
            hi = n - hidrop;
            if (lo > 0) lead = pre[lo - 1];
            if (hidrop > 0) tlump = tail[hidrop - 1];
        }
    }
    if (!probed) {
        acc = m[0];
        lo = 0;
        if (acc <= half) {
            for (lo = 1; lo < n; ++lo) {
                lead = acc;
                acc += m[lo];
                if (!(acc <= half)) break;
            }
            if (lo == n) lead = acc;
        }
        acc = m[n - 1];
        hidrop = 0;
        if (acc <= half) {
            for (hidrop = 1; hidrop < n; ++hidrop) {
                tlump = acc;
                acc += m[n - 1 - hidrop];
                if (!(acc <= half)) break;
            }
            if (hidrop == n) tlump = acc;
        }
        hi = n - hidrop;
        if (lo >= hi) {
            /* Degenerate request: keep the first heaviest bin. */
            long long keep = 0;
            for (j = 1; j < n; ++j)
                if (m[j] > m[keep]) keep = j;
            lo = keep;
            hi = keep + 1;
            hidrop = n - hi;
            if (lo > 0) lead = cum_up(m, 0, lo);
            if (hi < n) tlump = cum_down(m, n - 1, hi);
        }
    }
    if (lo == 0 && hi == n) {
        *plo = 0;
        return n;
    }
    klen = hi - lo;
    memmove(m, m + lo, (size_t)klen * sizeof(double));
    if (lo > 0) m[0] += lead;
    if (hi < n) m[klen - 1] += tlump;
    total = np_sum(m, klen);
    if (!(total > 0.0)) return -1;
    if (total != 1.0)
        for (j = 0; j < klen; ++j) m[j] /= total;
    *plo = lo;
    return klen;
}

/* The BLAS ddot numpy's own dot calls, passed in by address: with
   64-bit (ILP64) or 32-bit integers.  numpy's DOUBLE_dot returns
   0.0 + ddot(n, x, 1, y, 1), and so does this. */
typedef double (*ddot64_fn)(long long, const double *, long long,
                            const double *, long long);
typedef double (*ddot32_fn)(int, const double *, int, const double *,
                            int);

static double bdot(unsigned long long fn, int ilp64, long long n,
                   const double *x, const double *y)
{
    double s = 0.0;
    if (ilp64)
        s += ((ddot64_fn)(uintptr_t)fn)(n, x, 1, y, 1);
    else
        s += ((ddot32_fn)(uintptr_t)fn)((int)n, x, 1, y, 1);
    return s;
}

/* np.convolve(a, v): numpy's _pyarray_correlate in mode "full" after
   convolve's swap.  The longer operand comes first (they swap only
   when v is strictly longer), and the shorter one is reversed into
   vr.  Output k is 0.0 + ddot over the overlap: the left ramp
   (n = 1 .. n2 - 1), the n1 - n2 + 1 middle outputs (n = n2), the
   right ramp (n back down to 1).  For n2 <= 11 numpy's small-kernel
   path computes the middle outputs without BLAS, s = 0.0 then
   s += a[i + j] * vr[j] for ascending j, and so does this. */
static void conv_np(const double *a, long long n1, const double *v,
                    long long n2, double *vr, double *out,
                    unsigned long long fn, int ilp64)
{
    long long i, j, mid;
    if (n2 > n1) {
        const double *tp = a; a = v; v = tp;
        long long tn = n1; n1 = n2; n2 = tn;
    }
    for (j = 0; j < n2; ++j) vr[j] = v[n2 - 1 - j];
    for (i = 1; i < n2; ++i) *out++ = bdot(fn, ilp64, i, a, vr + n2 - i);
    mid = n1 - n2 + 1;
    if (n2 <= 11) {
        for (i = 0; i < mid; ++i) {
            double s = 0.0;
            for (j = 0; j < n2; ++j) s += a[i + j] * vr[j];
            *out++ = s;
        }
    } else {
        for (i = 0; i < mid; ++i) *out++ = bdot(fn, ilp64, n2, a + i, vr);
    }
    for (i = n2 - 1; i >= 1; --i)
        *out++ = bdot(fn, ilp64, i, a + n1 - i, vr);
}

/* Operand i of a packed buffer starts where operand i - 1 ended. */

/* The batched ADD: pair p is np.convolve(operand ia[p], operand ib[p])
   of the nops operands in OPS (olen[i] values each), written back to
   back into OUT.  Each distinct operand is packed once, however many
   pairs read it.  Returns 0, 1 when scratch cannot be allocated, or 2
   on an operand index out of range. */
EXPORT long long repro_add_batch(
    unsigned long long ddot, int ilp64, const double *OPS,
    const long long *olen, long long nops, const long long *ia,
    const long long *ib, long long npairs, double *OUT)
{
    long long i, p, x, y, top = 0, widest = 1;
    const double **start;
    double *vr;
    for (i = 0; i < nops; ++i)
        if (olen[i] > widest) widest = olen[i];
    /* vr first: malloc's alignment, like the array numpy allocates for
       the reversed operand (an SSE ddot kernel's summation order
       follows the alignment of its second vector). */
    vr = (double *)malloc(
        (size_t)widest * sizeof(double) + (size_t)nops * sizeof(double *));
    if (vr == NULL) return 1;
    start = (const double **)(vr + widest);
    for (i = 0; i < nops; ++i) {
        start[i] = OPS + top;
        top += olen[i];
    }
    for (p = 0; p < npairs; ++p) {
        x = ia[p];
        y = ib[p];
        if (x < 0 || x >= nops || y < 0 || y >= nops) {
            free(vr);
            return 2;
        }
        conv_np(start[x], olen[x], start[y], olen[y], vr, OUT, ddot, ilp64);
        OUT += olen[x] + olen[y] - 1;
    }
    free(vr);
    return 0;
}

EXPORT void repro_conv(const double *a, long long na,
                       const double *b, long long nb, double *out)
{
    memset(out, 0, (size_t)(na + nb - 1) * sizeof(double));
    conv_axpy(a, na, b, nb, out);
}

EXPORT void repro_conv_batch(
    const double *A, const long long *alen,
    const double *B, const long long *blen, double *OUT, long long k)
{
    long long i;
    for (i = 0; i < k; ++i) {
        repro_conv(A, alen[i], B, blen[i], OUT);
        A += alen[i];
        B += blen[i];
        OUT += alen[i] + blen[i] - 1;
    }
}

/* Row r of a group is operand r's unit CDF (DiscretePDF._unit_cdf:
   the sequential cumulative sum of its n masses, divided by its final
   value unless that is exactly 1) placed at bin s of the group's union
   range of W bins; below it the row is 0, above it 1.  The first row
   is stored into OUT, each later one multiplied in, in order.  The
   product's values are finite and non-negative, so multiplying by a 0
   row bin stores +0.0 and multiplying by a 1 leaves the value as it
   is: only the operand's own bins are computed. */
static void sweep_row(const double *M, long long n, long long s,
                      long long W, int first, double *OUT)
{
    double last = M[0], acc = M[0], v;
    long long j, w;
    for (j = 1; j < n; ++j) last += M[j];
    for (w = 0; w < s; ++w) OUT[w] = 0.0;
    OUT += s;
    for (j = 0; j < n; ++j) {
        if (j > 0) acc += M[j];
        v = (last != 1.0) ? acc / last : acc;
        if (first) OUT[j] = v;
        else OUT[j] *= v;
    }
    if (first)
        for (w = s + n; w < W; ++w) OUT[w - s] = 1.0;
}

/* The product's adjacent difference: the MAX's raw masses, in place. */
static void sweep_diff(double *OUT, long long W)
{
    long long w;
    for (w = W - 1; w >= 1; --w) OUT[w] = OUT[w] - OUT[w - 1];
}

/* Operand j of a level: a finished vector (m), or raw ADD i not built
   yet (m NULL; n values at offset at of the level's raw buffer, at
   absolute offset off).  Building sets m, off and n. */
typedef struct { const double *m; long long off, n, at; } operand;

/* Build raw operand op (build_one at half) from raw into m, which may
   be raw itself. */
static int build_raw(operand *op, const double *raw, double half,
                     double *m)
{
    long long cut, klen = build_one(raw, op->n, half, m, &cut);
    if (klen < 0) return 0;
    op->m = m;
    op->off += cut;
    op->n = klen;
    return 1;
}

static double gap_body(const double *ma, long long na, long long offa,
                       const double *mb, long long nb, long long offb,
                       double dt, double noise_floor, double *fa);

/* The level merge: a level's ADDs built and every group's MAX taken
   and built, without a result object per ADD, in one call.

   IX packs the level's index arrays back to back: rlen[nraw],
   roff[nraw], flen[nfin], foff[nfin], gk[ngroups], base[ngroups] (only
   when check is set), then src.  Raw ADD i is rlen[i] values at
   absolute offset roff[i]: the next values of RAW (back to back), or,
   when nops > 0, row i of the ADD batch this call runs first
   (repro_add_batch over the nops operands of OPS with ia = ab[0..nraw),
   ib = ab[nraw..2 nraw); RAW is then unread).  Each raw is built (build_one
   at half) once, on first use.  Finished operand f is flen[f] values
   of FIN at offset foff[f].  Operand j of the level is raw ADD src[j]
   when src[j] >= 0, else finished operand ~src[j]; group g owns the
   next gk[g] operands.  A one-operand group (always a raw ADD) yields
   that ADD as built, straight into OUT; any other group the MAX of its
   operands, built at the same half.

   Results go back to back into OUT (room for ocap values: the span of
   each group's operands before trimming, capped at max_bins, summed
   over the groups); OMETA[3g], OMETA[3g+1] receive result g's absolute
   offset and length.  When check is set, group g with base[g] >= 0 is
   compared with finished operand base[g]: OMETA[3g+2] is 1 when the
   result is bitwise that operand (same offset and length, equal
   elements), else 0 and GAP[g] is max_percentile_gap(base, result) on
   grid dts[g] (NaN when its scratch cannot be allocated); groups not
   compared get -1.

   Returns 0, or 1 with ERR = OMETA + 3 ngroups set to ERR[0] = 1
   (ERR[1] = bins of a distribution longer than max_bins), 2 (a total
   that is not positive), 3 (ERR[1] = the room OUT needs; nothing is
   written), 4 (out of memory) or 5 (an operand index out of range;
   nothing is written). */
EXPORT long long repro_merge_level(
    unsigned long long ddot, int ilp64, const double *OPS,
    const long long *olen, long long nops, const long long *ab,
    const double *RAW, const double *FIN, const long long *IX,
    long long nraw, long long nfin, long long ngroups, int check,
    const double *dts, double half, long long max_bins,
    double noise_floor, double *OUT, long long ocap, long long *OMETA,
    double *GAP)
{
    const long long *rlen = IX, *roff = rlen + nraw, *flen = roff + nraw;
    const long long *foff = flen + nfin, *gk = foff + nfin;
    const long long *base = gk + ngroups;
    const long long *src = base + (check ? ngroups : 0), *s;
    operand *ops, *op;
    const operand *b;
    long long *ERR = OMETA + 3 * ngroups;
    double *own = NULL, *kept = NULL, *gs = NULL;
    const double *raws = RAW;
    long long i, g, r, k, j, lo = 0, hi = 0, end, W, klen, cut, off;
    long long need = 0, total = 0, gcap = 0;
    int same;

    /* Indices and room first, so nothing is written on a bad call. */
    for (g = 0, s = src; g < ngroups; ++g, s += k) {
        k = gk[g];
        if (k < 1) { ERR[0] = 5; return 1; }
        for (r = 0; r < k; ++r) {
            j = s[r];
            if (j >= nraw || (j < 0 && ~j >= nfin)) { ERR[0] = 5; return 1; }
            off = j >= 0 ? roff[j] : foff[~j];
            end = off + (j >= 0 ? rlen[j] : flen[~j]);
            if (r == 0 || off < lo) lo = off;
            if (r == 0 || end > hi) hi = end;
        }
        need += hi - lo < max_bins ? hi - lo : max_bins;
        if (check && base[g] >= nfin) { ERR[0] = 5; return 1; }
    }
    for (i = 0; i < nraw; ++i) {
        if (rlen[i] > max_bins) { ERR[0] = 1; ERR[1] = rlen[i]; return 1; }
        total += rlen[i];
    }
    if (need > ocap) { ERR[0] = 3; ERR[1] = need; return 1; }
    /* The ADD rows this call runs must be the lengths it was told. */
    for (i = 0; nops > 0 && i < nraw; ++i) {
        j = ab[i];
        k = ab[nraw + i];
        if (j < 0 || j >= nops || k < 0 || k >= nops
            || rlen[i] != olen[j] + olen[k] - 1) {
            ERR[0] = 5;
            return 1;
        }
    }

    ops = (operand *)malloc((size_t)(nraw + nfin + 1) * sizeof(operand));
    if (ops == NULL) { ERR[0] = 4; return 1; }
    if (nops > 0) {
        /* The ADD rows are this call's own: build them in place. */
        own = (double *)malloc((size_t)(total + 1) * sizeof(double));
        if (own == NULL) { ERR[0] = 4; goto fail; }
        switch (repro_add_batch(ddot, ilp64, OPS, olen, nops, ab,
                                ab + nraw, nraw, own)) {
        case 0: break;
        case 1: ERR[0] = 4; goto fail;
        default: ERR[0] = 5; goto fail;
        }
        raws = kept = own;
    }
    for (i = 0, total = 0; i < nraw; ++i) {
        ops[i].m = NULL;
        ops[i].off = roff[i];
        ops[i].n = rlen[i];
        ops[i].at = total;
        total += rlen[i];
    }
    for (i = 0; i < nfin; ++i) {
        ops[nraw + i].m = FIN;
        ops[nraw + i].off = foff[i];
        ops[nraw + i].n = flen[i];
        FIN += flen[i];
    }
#define OPND(j) (ops + (s[j] >= 0 ? s[j] : nraw + ~s[j]))
    for (g = 0, s = src; g < ngroups; ++g, s += k) {
        k = gk[g];
        if (k == 1) {
            op = OPND(0);
            if (op->m == NULL) {
                if (!build_raw(op, raws + op->at, half, OUT)) {
                    ERR[0] = 2;
                    goto fail;
                }
            } else {
                memcpy(OUT, op->m, (size_t)op->n * sizeof(double));
            }
            off = op->off;
            klen = op->n;
        } else {
            for (r = 0; r < k; ++r) {
                op = OPND(r);
                if (op->m != NULL) continue;
                if (kept == NULL) {
                    kept = (double *)malloc(
                        (size_t)(total + 1) * sizeof(double));
                    if (kept == NULL) { ERR[0] = 4; goto fail; }
                }
                if (!build_raw(op, raws + op->at, half, kept + op->at)) {
                    ERR[0] = 2;
                    goto fail;
                }
            }
            lo = OPND(0)->off;
            hi = lo + OPND(0)->n;
            for (r = 1; r < k; ++r) {
                op = OPND(r);
                if (op->off < lo) lo = op->off;
                if (op->off + op->n > hi) hi = op->off + op->n;
            }
            W = hi - lo;
            if (W > max_bins) { ERR[0] = 1; ERR[1] = W; goto fail; }
            for (r = 0; r < k; ++r) {
                op = OPND(r);
                sweep_row(op->m, op->n, op->off - lo, W, r == 0, OUT);
            }
            sweep_diff(OUT, W);
            klen = build_one(OUT, W, half, OUT, &cut);
            if (klen < 0) { ERR[0] = 2; goto fail; }
            off = lo + cut;
        }
        OMETA[3 * g] = off;
        OMETA[3 * g + 1] = klen;
        OMETA[3 * g + 2] = -1;
        if (check && base[g] >= 0) {
            b = ops + nraw + base[g];
            same = b->off == off && b->n == klen;
            for (i = 0; same && i < klen; ++i) same = b->m[i] == OUT[i];
            OMETA[3 * g + 2] = same;
            if (!same) {
                if (b->n + klen + 2 > gcap) {
                    free(gs);
                    gcap = 2 * (b->n + klen + 2);
                    gs = (double *)malloc((size_t)gcap * sizeof(double));
                    if (gs == NULL) gcap = 0;
                }
                GAP[g] = gs == NULL ? NAN
                    : gap_body(b->m, b->n, b->off, OUT, klen, off, dts[g],
                               noise_floor, gs);
            }
        }
        OUT += klen;
    }
#undef OPND
    free(gs);
    if (kept != own) free(kept);
    free(own);
    free(ops);
    return 0;
fail:
    free(gs);
    if (kept != own) free(kept);
    free(own);
    free(ops);
    return 1;
}

/* DiscretePDF._knots: fp[0] = 0, fp[i+1] = min(cumsum[i], 1),
   fp[n] = 1.  The time knots are (off - 1 + i) * dt, computed on use. */
static void knots(const double *m, long long n, double *fp)
{
    double acc = m[0];
    long long i;
    fp[0] = 0.0;
    fp[1] = (acc < 1.0 || isnan(acc)) ? acc : 1.0;
    for (i = 1; i < n; ++i) {
        acc += m[i];
        fp[i + 1] = (acc < 1.0 || isnan(acc)) ? acc : 1.0;
    }
    fp[n] = 1.0;
}

#define XP(off, i, dt) ((double)((off) - 1 + (i)) * (dt))

/* np.searchsorted(fp, p, side="left") on a sorted fp of length len:
   the count of knots below p.  Walking from the previous answer gives
   the same count as a bisection; the gap's levels arrive as two sorted
   runs, so the walk is linear overall. */
static long long search(const double *fp, long long len, double p,
                        long long idx)
{
    while (idx > 0 && !(fp[idx - 1] < p)) --idx;
    while (idx < len && fp[idx] < p) ++idx;
    return idx;
}

/* DiscretePDF._inverse for one level; *hint carries the search. */
static double inverse(const double *fp, long long len, long long floor_,
                      long long off, double dt, double p, long long *hint)
{
    long long idx = *hint = search(fp, len, p, *hint), lo;
    double frac, xl;
    if (idx < floor_) idx = floor_;
    if (idx > len - 1) idx = len - 1;
    lo = idx - 1;
    frac = (p - fp[lo]) / (fp[idx] - fp[lo]);
    xl = XP(off, lo, dt);
    return xl + frac * (XP(off, idx, dt) - xl);
}

/* np.interp(x, xp, fp, left=0.0, right=1.0), branch for branch; the
   segment index j (the last knot at or below x) is walked from *hint. */
static double interp(const double *fp, long long len, long long off,
                     double dt, double x, long long *hint)
{
    long long j = *hint;
    double xj, xj1, slope, res;
    if (isnan(x)) return x;
    if (x > XP(off, len - 1, dt)) return 1.0;
    if (x < XP(off, 0, dt)) return 0.0;
    while (j + 1 < len && XP(off, j + 1, dt) <= x) ++j;
    while (j > 0 && XP(off, j, dt) > x) --j;
    *hint = j;
    if (j == len - 1) return fp[j];
    xj = XP(off, j, dt);
    if (xj == x) return fp[j];
    xj1 = XP(off, j + 1, dt);
    slope = (fp[j + 1] - fp[j]) / (xj1 - xj);
    res = slope * (x - xj) + fp[j];
    if (isnan(res)) {
        res = slope * (x - xj1) + fp[j + 1];
        if (isnan(res) && fp[j] == fp[j + 1]) res = fp[j];
    }
    return res;
}

/* max_percentile_gap(a, b) with scratch fa of na + nb + 2 values. */
static double gap_body(const double *ma, long long na, long long offa,
                       const double *mb, long long nb, long long offb,
                       double dt, double noise_floor, double *fa)
{
    long long la = na + 1, lb = nb + 1, fla, flb, i;
    long long ha = 0, hb = 0, hx = 0;
    double *fb = fa + la, best = -INFINITY, p, qa, qb, g, margin;
    knots(ma, na, fa);
    knots(mb, nb, fb);
    /* _ramp_floor: searchsorted(fp, 0.0, side="right"). */
    for (fla = 0; fla < la && fa[fla] <= 0.0; ++fla) ;
    for (flb = 0; flb < lb && fb[flb] <= 0.0; ++flb) ;
    for (i = 0; i < la + lb; ++i) {
        p = i < la ? fa[i] : fb[i - la];
        qa = inverse(fa, la, fla, offa, dt, p, &ha);
        qb = inverse(fb, lb, flb, offb, dt, p, &hb);
        g = qa - qb;
        margin = p - interp(fa, la, offa, dt, qb, &hx);
        if (!(margin > noise_floor) && !(g < 0.0 || isnan(g))) g = 0.0;
        if (isnan(g)) { best = g; break; }
        if (g > best) best = g;
    }
    return best;
}

/* max_percentile_gap(a, b).  Returns NaN when scratch cannot be
   allocated (the caller then runs the NumPy code). */
EXPORT double repro_gap(
    const double *ma, long long na, long long offa,
    const double *mb, long long nb, long long offb,
    double dt, double noise_floor)
{
    double best, *fa = (double *)malloc((size_t)(na + nb + 2) * sizeof(double));
    if (fa == NULL) return NAN;
    best = gap_body(ma, na, offa, mb, nb, offb, dt, noise_floor, fa);
    free(fa);
    return best;
}
"""

#: Flags pin the arithmetic: no FMA contraction, no reassociation
#: (C forbids it below -ffast-math), so every bitwise kernel's
#: operation sequence matches NumPy's on every conforming build.  SIMD
#: width is free to vary — each output element still accumulates its
#: own terms in the same order — so ``-march=native`` (tried first,
#: with a portable fallback) only changes speed, never bits.
_C_FLAGS_BASE = (
    "-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno"
)
_C_FLAG_SETS = (
    _C_FLAGS_BASE + ("-march=native",),
    _C_FLAGS_BASE,
)

_CDEF = """
void repro_conv(const double *, long long, const double *, long long,
    double *);
void repro_conv_batch(const double *, const long long *,
    const double *, const long long *, double *, long long);
long long repro_merge_level(unsigned long long, int, const double *,
    const long long *, long long, const long long *, const double *,
    const double *, const long long *, long long, long long, long long,
    int, const double *, double, long long, double, double *, long long,
    long long *, double *);
double repro_gap(const double *, long long, long long,
    const double *, long long, long long, double, double);
long long repro_add_batch(unsigned long long, int, const double *,
    const long long *, long long, const long long *, const long long *,
    long long, double *);
"""


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro" / "compiled"


def _compile_library(rebuild: bool = False) -> Path:
    """Compile the C source into a content-addressed shared library,
    reusing a previous build when the source and flags are unchanged
    (later sessions skip straight to dlopen).  ``rebuild`` discards a
    cached library first.  ``-march=native`` is attempted first and
    dropped for compilers that reject it.

    Every build writes its source and its library to temp files of its
    own and publishes the library with one atomic rename, so processes
    resolving the provider at once never compile or load a half-written
    file."""
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
        if rebuild:
            so_path.unlink(missing_ok=True)
        elif so_path.exists():
            return so_path
        cache.mkdir(parents=True, exist_ok=True)
        stem = f"repro_kernels-{digest}-"
        with tempfile.NamedTemporaryFile(
            "w", dir=cache, prefix=stem, suffix=".c", delete=False
        ) as src:
            src.write(_C_SOURCE)
        c_path = Path(src.name)
        tmp_path = c_path.with_suffix(".so")
        try:
            subprocess.run(
                [cc, *flags, "-o", str(tmp_path), str(c_path)],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp_path, so_path)
            return so_path
        except BaseException as exc:
            tmp_path.unlink(missing_ok=True)
            last_exc = exc
        finally:
            c_path.unlink(missing_ok=True)
    raise RuntimeError(f"C compilation failed: {last_exc}")


@functools.lru_cache(maxsize=None)
def _blas_ddot() -> Optional[tuple]:
    """``(address, ilp64)`` of the ``cblas_ddot`` numpy's own ``dot``
    calls, or ``None`` when it cannot be found.

    ``np.convolve`` reaches BLAS through that symbol, and the BLAS
    library picks its ``ddot`` kernel (and so its summation order) per
    CPU at load time; calling the same function is what makes the ADD
    kernel bitwise ``np.convolve`` on every core type.  The symbol's
    name and integer width come from ``numpy.show_config`` (a
    scipy-openblas build prefixes ``scipy_``; an ILP64 build suffixes
    ``64_``), and the library is looked up among the shared objects
    already mapped into this process (``/proc/self/maps``), so nothing
    new is loaded."""
    import ctypes

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        with open("/proc/self/maps") as maps:
            mapped = [line.split(None, 5)[-1].strip() for line in maps]
    except (TypeError, KeyError, OSError):
        # An older numpy without ``mode``, no BLAS entry, no /proc.
        return None
    ilp64 = "USE64BITINT" in blas.get("openblas configuration", "")
    prefix = "scipy_" if blas.get("name", "").startswith("scipy-") else ""
    symbol = f"{prefix}cblas_ddot{'64_' if ilp64 else ''}"
    for path in dict.fromkeys(mapped):
        if "blas" not in os.path.basename(path).lower():
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            fn = getattr(lib, symbol)
        except (OSError, AttributeError):
            continue
        return ctypes.cast(fn, ctypes.c_void_p).value, ilp64
    return None


def _lengths(arrs: Sequence[np.ndarray]) -> np.ndarray:
    """The sizes of 1-D vectors, as an int64 array."""
    return np.fromiter(map(len, arrs), dtype=np.int64, count=len(arrs))


def _packed(arrs: Sequence[np.ndarray]) -> np.ndarray:
    """The vectors back to back, as one contiguous float64 buffer (the
    layout every kernel reads through its ``double *``)."""
    if len(arrs) == 1:
        return np.ascontiguousarray(arrs[0], dtype=np.float64)
    if not arrs:
        return np.empty(0)
    return np.concatenate(arrs, dtype=np.float64)


class _Rows(Sequence):
    """The raw vectors of one batched convolution: row ``i`` is a view
    of ``lengths[i]`` values of the packed ``buffer``, made on access.
    :meth:`_CProvider.merge_level` consumes the packed form directly, so
    a batch that is only built never materializes its rows.

    Rows of :meth:`_CProvider.add_many` are pending until first read:
    ``buffer`` runs the ADD then, and a merge handed them still pending
    runs the ADD inside its own call instead (``_add`` holds the
    provider, the packed operands and their ``(ia, ib, rlen)`` index).
    """

    __slots__ = ("_buffer", "lengths", "_ends", "_add")

    def __init__(self, buffer, lengths: np.ndarray, add=None) -> None:
        self._buffer = buffer
        self.lengths = lengths
        self._ends = None
        self._add = add

    @property
    def buffer(self) -> np.ndarray:
        if self._buffer is None:
            provider, operands, index = self._add
            self._buffer = provider._run_add(operands, index)
        return self._buffer

    def __len__(self) -> int:
        return self.lengths.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if self._ends is None:
            self._ends = np.cumsum(self.lengths).tolist()
        end = self._ends[i]
        return self.buffer[end - int(self.lengths[i]):end]


def _new_pdfs(buffer: np.ndarray, offsets, lengths, dts, trim_eps) -> list:
    """Finished results from kernel output: result ``i`` is the next
    ``lengths[i]`` values of ``buffer`` at ``offsets[i]``, trimmed at
    ``trim_eps`` — the fields ``_trusted``/``trimmed`` would set, the
    trim-idempotence memo included."""
    # Hot loop: one exact-length read-only view per result into one
    # bytes copy of the call's output (frombuffer over bytes is born
    # read-only, cheaper than copy + flags).  The results of one call
    # share that copy: they are one level's arrivals or front results,
    # stored and dropped together, and no per-result bytes object is
    # made (-1.3 MB peak RSS on a cold c432 sizing run).  Fields go
    # straight into the instance dict.
    data = buffer.tobytes()
    frombuffer = np.frombuffer
    f64 = np.dtype(np.float64)
    new = object.__new__
    setattr_ = object.__setattr__
    cls = DiscretePDF
    results = []
    append = results.append
    start = 0
    for off, kl, dt in zip(offsets, lengths, dts):
        out = new(cls)
        setattr_(out, "__dict__", {
            "dt": dt, "offset": off,
            "masses": frombuffer(data, f64, kl, start),
            "_trim_level": trim_eps,
        })
        start += 8 * kl
        append(out)
    return results


#: Stand-ins for the arrays a merge call does not read (no fused ADD,
#: no base operands).
_NO_DOUBLES = np.zeros(1)
_NO_INTS = np.zeros(1, dtype=np.int64)


class _CProvider:
    """C shared-library provider (cffi preferred, ctypes fallback).

    Batched entry points return views into one per-call buffer: the
    raw vectors are transient.  Built results own exact-length arrays.
    """

    kind = "cext"

    def __init__(self, rebuild: bool = False) -> None:
        so_path = _compile_library(rebuild)
        try:
            self._lib, self._dbl, self._i64 = self._load(so_path)
        except OSError:
            # A cached library that no longer loads (truncated by a
            # crash, built for another host): rebuild it once.
            so_path = _compile_library(rebuild=True)
            self._lib, self._dbl, self._i64 = self._load(so_path)
        self.gap_ok = True
        self.merge_ok = True
        ddot = _blas_ddot()
        self._ddot, self._ilp64 = ddot if ddot is not None else (0, False)
        self.add_ok = ddot is not None
        from .metrics import _VERTICAL_NOISE_FLOOR

        self._floor = _VERTICAL_NOISE_FLOOR
        self._no_dbl = self._dbl(_NO_DOUBLES)
        self._no_i64 = self._i64(_NO_INTS)

    # -- loading -------------------------------------------------------
    @classmethod
    def _load(cls, so_path: Path):
        """``(lib, dbl, i64)``: the library and the two array-to-pointer
        adapters (float64 and int64 buffers)."""
        return cls._load_cffi(so_path) or cls._load_ctypes(so_path)

    @staticmethod
    def _load_cffi(so_path: Path):
        try:
            import cffi
        except ImportError:  # pragma: no cover - cffi is ubiquitous
            return None
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        lib = ffi.dlopen(str(so_path))
        # The backend's from_buffer with the pointer types resolved
        # once: this runs several times per kernel call.
        from_buffer = ffi._backend.from_buffer  # noqa: SLF001
        return (
            lib,
            functools.partial(from_buffer, ffi.typeof("double[]")),
            functools.partial(from_buffer, ffi.typeof("long long[]")),
        )

    @staticmethod
    def _load_ctypes(so_path: Path):
        import ctypes

        lib = ctypes.CDLL(str(so_path))
        d = ctypes.POINTER(ctypes.c_double)
        i = ctypes.POINTER(ctypes.c_longlong)
        n, f = ctypes.c_longlong, ctypes.c_double
        for name, restype, argtypes in (
            ("repro_conv", None, (d, n, d, n, d)),
            ("repro_conv_batch", None, (d, i, d, i, d, n)),
            ("repro_merge_level", n, (ctypes.c_ulonglong, ctypes.c_int, d,
                                      i, n, i, d, d, i, n, n, n,
                                      ctypes.c_int, d, f, n, f, d, n, i,
                                      d)),
            ("repro_gap", f, (d, n, n, d, n, n, f, f)),
            ("repro_add_batch", n, (ctypes.c_ulonglong, ctypes.c_int, d,
                                    i, n, i, i, n, d)),
        ):
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
        return (
            lib,
            lambda arr: arr.ctypes.data_as(d),
            lambda arr: arr.ctypes.data_as(i),
        )

    # -- convolve ------------------------------------------------------
    def conv_one(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(a, dtype=np.float64)
        b = np.ascontiguousarray(b, dtype=np.float64)
        out = np.empty(a.size + b.size - 1)
        dbl = self._dbl
        self._lib.repro_conv(dbl(a), a.size, dbl(b), b.size, dbl(out))
        return out

    def conv_many(self, pairs: Sequence) -> Sequence:
        if not pairs:
            return []
        dbl, i64 = self._dbl, self._i64
        firsts, seconds = zip(*pairs)
        alen, blen = _lengths(firsts), _lengths(seconds)
        olen = alen + blen - 1
        OUT = np.empty(int(olen.sum()))
        self._lib.repro_conv_batch(
            dbl(_packed(firsts)), i64(alen), dbl(_packed(seconds)),
            i64(blen), dbl(OUT), len(pairs),
        )
        return _Rows(OUT, olen)

    # -- the ADD ---------------------------------------------------------
    def add_many(self, pairs: Sequence) -> "_Rows":
        """``np.convolve(a, b)`` per pair ``(a, b)``, bitwise, through
        one foreign call: the rows back to back in one buffer.  Each
        distinct operand (by identity) is packed once, however many
        pairs read it.  The rows are pending (see :class:`_Rows`): a
        level merge given them runs the ADD in its own call, anything
        else that reads them runs it on first read.  Only valid while
        :attr:`add_ok`."""
        # The caller's pairs hold every operand, so no id is reused
        # while ``index`` lives.
        index: dict = {}
        operands = []
        ia = []
        ib = []
        rlen = []
        for a, b in pairs:
            key = id(a)
            x = index.get(key)
            if x is None:
                x = index[key] = len(operands)
                operands.append(a)
            key = id(b)
            y = index.get(key)
            if y is None:
                y = index[key] = len(operands)
                operands.append(b)
            ia.append(x)
            ib.append(y)
            rlen.append(len(a) + len(b) - 1)
        idx = np.array((ia, ib, rlen), dtype=np.int64)
        return _Rows(None, idx[2], (self, operands, idx))

    def _run_add(self, operands: Sequence, idx: np.ndarray) -> np.ndarray:
        """The packed rows of the pairs ``idx = (ia, ib, rlen)``: row
        ``p`` is ``np.convolve(operands[ia[p]], operands[ib[p]])``.
        ``rlen[p]`` must be its length, the sum of the two operand
        lengths minus one: the kernel writes each row into a buffer of
        ``sum(rlen)`` values, after checking the row's two indices."""
        OUT = np.empty(int(idx[2].sum()))
        dbl, i64 = self._dbl, self._i64
        rc = self._lib.repro_add_batch(
            self._ddot, self._ilp64, dbl(_packed(operands)),
            i64(_lengths(operands)), len(operands), i64(idx[0]),
            i64(idx[1]), idx.shape[1], dbl(OUT),
        )
        if rc == 1:
            raise MemoryError("ADD kernel could not allocate")
        if rc:
            raise IndexError("ADD operand index out of range")
        return OUT

    # -- the level merge: every ADD and MAX result ----------------------
    def merge_level(
        self, raws: Sequence, roffs: Sequence, fins: Sequence,
        foffs: Sequence, src: Sequence, gk: Sequence, dts,
        trim_eps: float, bases: Optional[Sequence] = None,
    ):
        """One result per group, on grid ``dts[g]``: a one-operand
        group's is its raw ADD built, any other group's the built MAX of
        its operands — bitwise building every raw ADD
        (``DiscretePDF._trusted(dt, off, raw).trimmed(trim_eps)``) and
        merging the objects, through one foreign call and with no
        object per ADD.  Raw ADD ``i`` is ``raws[i]`` at offset
        ``roffs[i]``; finished operand ``f`` is ``fins[f]`` (masses) at
        ``foffs[f]``; operand ``j`` of the level is raw ADD ``src[j]``
        when ``src[j] >= 0``, else finished operand ``~src[j]``; group
        ``g`` owns the next ``gk[g]`` operands.  Either operand set may
        be empty.  Pending :meth:`add_many` rows are convolved inside
        the same call.

        ``bases`` (one :class:`DiscretePDF` or None per group) adds the
        perturbation front's per-node checks to the call: for a group
        whose base is on its grid, whether the result is bitwise the
        base (``_identical``), and if not the Theorem-4 gap
        ``max_percentile_gap(base, result)``, bitwise the gap kernel,
        stored in the result's ``_gap`` slot as ``(base, gap)`` (see
        ``PerturbationFront._percentile_gap``).  The call then returns
        ``(results, same)``, ``same[g]`` being True, False or None (not
        compared).  Only valid while :attr:`gap_ok` too."""
        if trim_eps < 0.0:
            raise DistributionError(f"trim_eps must be >= 0, got {trim_eps}")
        dbl, i64 = self._dbl, self._i64
        no_dbl = self._no_dbl
        ngroups = len(gk)
        if type(raws) is _Rows and raws._buffer is None:
            _provider, operands, idx = raws._add
            ops_p, olen_p, nops, ab_p, raw_p = (
                dbl(_packed(operands)), i64(_lengths(operands)),
                len(operands), i64(idx), no_dbl,
            )
            rlen = raws.lengths.tolist()
        else:
            if type(raws) is _Rows:
                raw_p, rlen = dbl(raws.buffer), raws.lengths.tolist()
            else:
                raw_p, rlen = dbl(_packed(raws)), list(map(len, raws))
            ops_p, olen_p, nops, ab_p = no_dbl, self._no_i64, 0, self._no_i64
        check = bases is not None
        if check:
            fins = list(fins)
            foffs = list(foffs)
            sel = []
            for base, dt in zip(bases, dts, strict=True):
                if base is None or base.dt != dt:
                    sel.append(-1)
                else:
                    sel.append(len(fins))
                    fins.append(base.masses)
                    foffs.append(base.offset)
            dts_p = dbl(np.array(dts, dtype=np.float64))
            GAP = np.empty(ngroups)
            gap_p = dbl(GAP)
        else:
            sel = ()
            dts_p = gap_p = no_dbl
        flen = list(map(len, fins))
        IX = np.array(
            [*rlen, *roffs, *flen, *foffs, *gk, *sel, *src], dtype=np.int64
        )
        head = (
            self._ddot, self._ilp64, ops_p, olen_p, nops, ab_p, raw_p,
            dbl(_packed(fins)), i64(IX), len(rlen), len(fins), ngroups,
            check, dts_p, trim_eps / 2.0, MAX_BINS, self._floor,
        )
        OMETA = np.empty(3 * ngroups + 2, dtype=np.int64)
        tail = (i64(OMETA), gap_p)
        merge = self._lib.repro_merge_level
        # The room the call needs is each group's operand span before
        # trimming.  The operands' own lengths cover it unless a group's
        # supports leave gaps; then the call writes nothing and reports
        # the exact room, and runs again.
        OUT = np.empty(sum(rlen) + sum(flen) + 64 * ngroups)
        failed = merge(*head, dbl(OUT), OUT.size, *tail)
        if failed and OMETA[3 * ngroups] == 3:
            OUT = np.empty(int(OMETA[3 * ngroups + 1]))
            failed = merge(*head, dbl(OUT), OUT.size, *tail)
        if failed:
            kind, value = OMETA[3 * ngroups:].tolist()
            if kind == 1:
                raise DistributionError(
                    f"distribution spans {value} bins, exceeding "
                    f"MAX_BINS={MAX_BINS}; dt is too small for this analysis"
                )
            if kind == 2:
                raise DistributionError(
                    "total probability mass must be positive"
                )
            if kind == 4:
                raise MemoryError("level merge could not allocate")
            if kind == 5:
                raise IndexError("merge operand index out of range")
            raise RuntimeError(f"level merge failed (code {kind})")
        meta = OMETA.tolist()
        lengths = meta[1:3 * ngroups:3]
        results = _new_pdfs(
            OUT[:sum(lengths)], meta[0:3 * ngroups:3], lengths, dts, trim_eps
        )
        if not check:
            return results
        same: list = [None] * ngroups
        for g, flag in enumerate(meta[2:3 * ngroups:3]):
            if flag < 0:
                continue
            same[g] = flag == 1
            if flag == 0:
                gap = float(GAP[g])
                if gap == gap:  # NaN: no scratch; the caller recomputes
                    object.__setattr__(results[g], "_gap", (bases[g], gap))
        return results, same

    # -- the Theorem-4 gap ---------------------------------------------
    def gap(self, a: DiscretePDF, b: DiscretePDF, floor: float) -> float:
        """``max_percentile_gap(a, b)`` under the vertical noise
        ``floor``, bitwise; NaN when the kernel could not allocate its
        scratch (callers fall back)."""
        dbl = self._dbl
        am, bm = a.masses, b.masses
        return self._lib.repro_gap(
            dbl(am), am.size, a.offset, dbl(bm), bm.size, b.offset,
            float(a.dt), floor,
        )


# ----------------------------------------------------------------------
# Self-check: the provider proves its contract before first use.  Raw
# convolutions must sit within the 1e-12-TV class of np.convolve (a
# failure rejects the provider); each bitwise kernel must reproduce its
# NumPy expression exactly on fixed vectors, or only its flag clears.
# ----------------------------------------------------------------------


def _tv(a: np.ndarray, b: np.ndarray) -> float:
    n = max(a.size, b.size)
    pa = np.zeros(n)
    pa[: a.size] = a
    pb = np.zeros(n)
    pb[: b.size] = b
    return 0.5 * float(np.abs(pa - pb).sum())


def _same(p: DiscretePDF, q: DiscretePDF) -> bool:
    return p.offset == q.offset and np.array_equal(p.masses, q.masses)


def _check_vectors(rng) -> list:
    """Raw vectors that take every branch of the level merge's build:
    short and long, probe taken and not, exact zeros, a total of
    exactly 1."""
    raws = [rng.random(n) + 1e-4 for n in (1, 7, 8, 9, 127, 128, 129, 300)]
    spiky = np.zeros(200)
    spiky[[3, 100, 196]] = (0.25, 0.5, 0.25)
    raws.append(spiky)
    tails = rng.random(150) * 1e-13
    tails[40:110] += 1.0
    raws.append(tails)
    return raws


def _self_check(provider) -> None:
    rng = np.random.default_rng(20260808)
    cases = []
    for n_a, n_b in ((1, 1), (3, 7), (17, 17), (33, 129), (64, 64)):
        a = rng.random(n_a) + 1e-4
        b = rng.random(n_b) + 1e-4
        cases.append((a / a.sum(), b / b.sum()))
    raws = provider.conv_many(cases)
    for (a, b), raw, raw2 in zip(cases, raws, provider.conv_many(cases)):
        if _tv(raw, np.convolve(a, b)) > 1e-13 or not np.array_equal(
            raw, raw2
        ):
            raise RuntimeError("compiled convolve failed self-check")
        if not np.array_equal(provider.conv_one(a, b), raw):
            raise RuntimeError("compiled scalar/batch paths disagree")

    from .metrics import _VERTICAL_NOISE_FLOOR, _numpy_gap

    pdfs = [DiscretePDF(2.0, 3, raw) for raw in _check_vectors(rng)]
    try:
        for a in pdfs:
            for b in (pdfs[0], pdfs[4], a.shifted_bins(1), a):
                gap = provider.gap(a, b, _VERTICAL_NOISE_FLOOR)
                if gap != _numpy_gap(a, b):
                    raise RuntimeError("not bitwise")
    except Exception:
        provider.gap_ok = False

    try:
        _check_merge(provider, rng)
    except Exception:
        provider.merge_ok = False

    try:
        if provider.add_ok:
            _check_add(provider, rng)
    except Exception:
        provider.add_ok = False


def _check_merge(provider, rng) -> None:
    """The level merge against building every ADD and merging the
    objects (the NumPy expressions): every raw as a one-operand group
    (the ADD results), mixed groups of raw ADDs and finished operands
    (a raw shared by two groups among them), and MAX groups of 2, 3 and
    5 finished operands with no raws at all.  While :attr:`gap_ok`,
    each call also compares its results with base operands: none, the
    expected result itself (bitwise equal), a finished operand (the
    gap) and one on another grid (not compared)."""
    from .metrics import _numpy_gap
    from .ops import _max_masses

    trusted = DiscretePDF._trusted  # noqa: SLF001
    raws = _check_vectors(rng)
    roffs = [int(o) for o in rng.integers(-20, 20, len(raws))]
    fins = [
        DiscretePDF(
            2.0, int(rng.integers(-20, 20)),
            rng.random(int(rng.integers(1, 60))) + 1e-4,
        )
        for _ in range(4)
    ]
    fin_masses = [f.masses for f in fins]
    fin_offs = [f.offset for f in fins]
    coarse = DiscretePDF(4.0, 0, np.ones(3))
    mixed = ((0,), (1, ~0), (2, 3, 4), (~1, ~2), (5, 6, ~3, 7), (8,),
             (9, 0))
    singles = [(j,) for j in range(len(raws))]
    finished = ((~0, ~1), (~3, ~0, ~2), (~2, ~1, ~0, ~3, ~1))

    for trim_eps in (0.0, 1e-9, 1e-3, 0.9):
        adds = [
            trusted(2.0, off, raw.copy()).trimmed(trim_eps)
            for raw, off in zip(raws, roffs)
        ]
        for groups, use_raws in (
            (singles, True), (mixed, True), (finished, False)
        ):
            refs = []
            for group in groups:
                pdfs = [adds[j] if j >= 0 else fins[~j] for j in group]
                if len(pdfs) == 1:
                    refs.append(pdfs[0])
                else:
                    lo, masses = _max_masses(pdfs)
                    refs.append(trusted(2.0, lo, masses).trimmed(trim_eps))
            bases = None
            if provider.gap_ok:
                bases = [
                    (None, ref, fins[g % 4], coarse)[g % 4]
                    for g, ref in enumerate(refs)
                ]
            merged = provider.merge_level(
                raws if use_raws else (), roffs if use_raws else (),
                fin_masses, fin_offs, [j for group in groups for j in group],
                [len(group) for group in groups], [2.0] * len(groups),
                trim_eps, bases,
            )
            if bases is not None:
                merged, same = merged
                for res, ref, base, flag in zip(merged, refs, bases, same):
                    if base is None or base.dt != 2.0:
                        ok = flag is None and not hasattr(res, "_gap")
                    elif _same(ref, base):
                        ok = flag is True and not hasattr(res, "_gap")
                    else:
                        slot = getattr(res, "_gap", None)
                        ok = (flag is False and slot[0] is base
                              and slot[1] == _numpy_gap(base, ref))
                    if not ok:
                        raise RuntimeError("not bitwise")
            for res, ref in zip(merged, refs, strict=True):
                if not _same(res, ref) or res.dt != 2.0:
                    raise RuntimeError("not bitwise")


def _check_add(provider, rng) -> None:
    """The ADD kernel against ``np.convolve`` on every length pair in
    1..24 x 1..24 (both sides of the small-kernel bound at 11/12, and
    both operand orders) and on long pairs up to the 994-bin bound;
    while :attr:`merge_ok`, also its rows convolved inside a level
    merge against the merge of the ``np.convolve`` rows."""
    operands = [rng.random(n) for n in range(1, 25)]
    operands += [rng.random(n) for n in (223, 40, 600, 394)]
    operands[5][[0, 3]] = 0.0
    ia, ib = zip(*itertools.product(range(24), repeat=2))
    ia += (24, 25, 26, 27)
    ib += (25, 24, 27, 26)
    pairs = [(operands[i], operands[j]) for i, j in zip(ia, ib)]
    refs = [np.convolve(a, b) for a, b in pairs]
    for row, ref in zip(provider.add_many(pairs), refs, strict=True):
        if row.tobytes() != ref.tobytes():
            raise RuntimeError("not bitwise")
    if not provider.merge_ok:
        return
    # Every ninth pair and the long ones: the merge runs the rows with
    # the code checked above, so this checks how it reads them.
    pairs = pairs[::9] + pairs[-4:]
    refs = refs[::9] + refs[-4:]
    n = len(pairs)
    roffs = [int(o) for o in rng.integers(-20, 20, n)]
    # One-operand groups, then pairs of neighbouring rows.
    src = list(range(n)) + [j for p in range(0, n - 1, 2) for j in (p, p + 1)]
    gk = [1] * n + [2] * (n // 2)
    args = (roffs, (), (), src, gk, [2.0] * len(gk), 1e-9)
    fused = provider.merge_level(provider.add_many(pairs), *args)
    for res, ref in zip(fused, provider.merge_level(refs, *args),
                        strict=True):
        if not _same(res, ref):
            raise RuntimeError("not bitwise")


_lock = threading.Lock()
_resolved = False
_provider = None
_fail_reason: Optional[str] = None


def _resolve():
    """Build, load and self-check the C provider; a library that fails
    to load or fails its self-check is rebuilt once before giving up."""
    if os.environ.get(DISABLE_ENV, "0") not in ("", "0"):
        return None, f"{DISABLE_ENV} is set"
    reason = None
    for rebuild in (False, True):
        try:
            provider = _CProvider(rebuild)
        except Exception as exc:
            return None, f"C build failed ({exc.__class__.__name__}: {exc})"
        try:
            _self_check(provider)
            return provider, None
        except Exception as exc:
            reason = f"self-check failed ({exc})"
    return None, reason


def get_provider():
    """The process-wide compiled provider, or ``None`` when the tier
    is unavailable (kill switch set, no compiler, or the provider
    failed its self-check)."""
    global _resolved, _provider, _fail_reason
    if _resolved:
        return _provider
    with _lock:
        if not _resolved:
            _provider, _fail_reason = _resolve()
            _resolved = True
    return _provider


def provider_kind() -> Optional[str]:
    """``"cext"`` or ``None`` (resolving if needed)."""
    p = get_provider()
    return None if p is None else p.kind


def fail_reason() -> Optional[str]:
    get_provider()
    return _fail_reason


def reset_provider_cache() -> None:
    """Forget the resolved provider (tests toggle the kill switch; the
    next use re-resolves)."""
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
        "fall back to the pure-NumPy direct kernels",
        RuntimeWarning,
        stacklevel=3,
    )
