"""numba ``@njit`` kernels for the compiled backend tier.

Imported only when numba itself imports (see
:mod:`repro.dist._compiled`); loop structure and arithmetic mirror the
C provider exactly — sequential reductions, scatter-form convolution,
the padded-CDF product in ascending row order — so both providers sit
in the same equivalence class and pass the same self-check.
``cache=True`` persists the compiled machine code across processes
(later sessions and CI runs reuse it instead of re-JITting).
"""

from __future__ import annotations

import numpy as np
from numba import njit

__all__ = ["conv_into", "trim_into", "max_sweep_into"]


@njit(cache=True)
def conv_into(a, b, out):
    """Scatter-form direct convolution into a zeroed ``out`` buffer."""
    na = a.size
    nb = b.size
    if na < nb:
        a, b = b, a
        na, nb = nb, na
    for j in range(nb):
        bj = b[j]
        for i in range(na):
            out[i + j] += a[i] * bj


@njit(cache=True)
def trim_into(raw, half, kept):
    """Normalize-and-trim mirror of ``_trusted(...).trimmed()``.

    Writes the kept (normalized) vector into ``kept`` and returns
    ``(lo, klen)``; ``klen < 0`` flags a non-positive total.
    """
    n = raw.size
    total = 0.0
    for j in range(n):
        total += raw[j]
    if not (total > 0.0) or np.isinf(total):
        return 0, -1

    acc = 0.0
    lead = 0.0
    lo = 0
    for j in range(n):
        acc += raw[j] / total
        if acc <= half:
            lo = j + 1
            lead = acc
        else:
            break
    tacc = 0.0
    tlump = 0.0
    hidrop = 0
    for j in range(n - 1, -1, -1):
        tacc += raw[j] / total
        if tacc <= half:
            hidrop = n - j
            tlump = tacc
        else:
            break
    hi = n - hidrop

    if lo >= hi:
        am = 0
        best = raw[0] / total
        for j in range(1, n):
            v = raw[j] / total
            if v > best:
                best = v
                am = j
        lo = am
        hi = am + 1
        lead = 0.0
        for j in range(lo):
            lead += raw[j] / total
        tlump = 0.0
        for j in range(n - 1, hi - 1, -1):
            tlump += raw[j] / total

    if lo == 0 and hi == n:
        for j in range(n):
            kept[j] = raw[j] / total
        return 0, n

    klen = hi - lo
    for j in range(klen):
        kept[j] = raw[lo + j] / total
    if lo > 0:
        kept[0] += lead
    if hi < n:
        kept[klen - 1] += tlump
    ktotal = 0.0
    for j in range(klen):
        ktotal += kept[j]
    if not (ktotal > 0.0):
        return 0, -1
    if ktotal != 1.0:
        for j in range(klen):
            kept[j] /= ktotal
    return lo, klen


@njit(cache=True)
def max_sweep_into(CDF, cdfoff, cdflen, rstart, width, out):
    """Padded-CDF product + adjacent difference for one operand group,
    bitwise the NumPy ``_max_masses`` sweep."""
    k = cdflen.size
    s = rstart[0]
    n = cdflen[0]
    o = cdfoff[0]
    for w in range(width):
        if w < s:
            out[w] = 0.0
        elif w < s + n:
            out[w] = CDF[o + w - s]
        else:
            out[w] = 1.0
    for r in range(1, k):
        s = rstart[r]
        n = cdflen[r]
        o = cdfoff[r]
        for w in range(width):
            if w < s:
                v = 0.0
            elif w < s + n:
                v = CDF[o + w - s]
            else:
                v = 1.0
            out[w] *= v
    for w in range(width - 1, 0, -1):
        out[w] = out[w] - out[w - 1]
