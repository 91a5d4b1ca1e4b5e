"""Vectorized propagation kernels: ADD (convolution) and MAX.

These two operations are the paper's entire numeric inner loop: a gate
arc adds its delay to the fan-in arrival by discrete **convolution**,
and converging arrivals merge through the **independence statistical
maximum** ``F_max(t) = F_a(t) * F_b(t)`` — the upper-bound max of
Agarwal et al. DAC'03 [3].  Both are pure functions of their operands,
which is what lets the perturbation fronts and the incremental updater
reproduce a full SSTA **bitwise**.

Every ADD and MAX result is constructed (normalized, its tails
trimmed) by one compiled call, the level merge of
:mod:`~repro.dist._compiled`, under every backend: ADD results as
one-operand groups (:func:`_build_results`), MAX results with their CDF
product (:func:`stat_max_groups`), bitwise the NumPy expressions.
Without the tier (no compiler, or ``REPRO_DISABLE_COMPILED`` set) those
NumPy expressions run, one group at a time, and give the same bits.
The per-result NumPy dispatch, not arithmetic, is what the tier saves.

:class:`OpCounter` instruments the kernels transparently: every kernel
takes an optional ``counter`` and tallies one unit per pairwise
operation, giving the raw work statistics behind Table 2 without the
call sites doing any accounting of their own.  Tallies count
*statistical* operations, so they are invariant under the convolution
backend choice — a pairwise ADD is one convolution whether the direct
or the FFT kernel computed it.

The convolution implementation itself is pluggable (see
:mod:`~repro.dist.backends`): every kernel takes a ``backend`` — a
registry name or a :class:`~repro.dist.backends.ConvolutionBackend` —
defaulting to ``auto``, which is bit-identical to the historical
direct kernel below the crossover.  The MAX kernels accept the same
argument for call-site uniformity (engines thread one backend choice
through every operation); the independence max is a CDF product, not a
convolution, so its numerics are backend-invariant by construction.
Which kernel convolves a pair is the backend's choice alone (its
``convolve_many``); this module never asks which backend it holds.

The kernels are memo-free: every request is computed, except that a
batch convolves an (arrival, delay) object pair it holds twice only
once.  :func:`convolve_many` batches a node's (or a level's) fan-in
ADDs through the backend's ``convolve_many`` entry point, bitwise
identical to sequential calls, and :func:`stat_max_groups` batches many
independent MAX reductions into one level-merge call.  The singleton
entry points are one-element batches of these, so each kernel has one
code path.

A level whose ADD results only feed its MAX merges keeps them raw:
``convolve_many(..., defer=True)`` returns a :class:`DeferredAdds` (raw
backend outputs and offsets), and ``stat_max_groups(..., adds=...)``
builds them, takes every group's MAX and builds the results in the
same call, bitwise building the ADD objects and merging them, which is
also what runs without the tier.  When the compiled ADD kernel took the
whole batch, its rows are still pending then, and the same call
convolves them too.  A perturbation front's level also passes each
node's base arrival (``bases=``): the call then reports which results
are bitwise their base and gives the others their Theorem-4 gap, so a
front level is one foreign call.

Reuse lives one layer up, in the timing engines: the whole-node memo
of :class:`~repro.dist.cache.ConvolutionCache` (whose hits the engines
tally on the counter as *hits*, never as computed operations) and the
identity-matched arc memo of an SSTA pass
(:class:`~repro.timing.ssta.ArcMemo`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import DistributionError, GridMismatchError
from . import _compiled
from .backends import BackendLike, get_backend
from .pdf import DiscretePDF

__all__ = [
    "OpCounter",
    "DeferredAdds",
    "convolve",
    "convolve_many",
    "stat_max",
    "stat_max_many",
    "stat_max_groups",
]


@dataclass
class OpCounter:
    """Tally of statistical operations performed through the kernels.

    One *convolution* is one pairwise ADD; one *max op* is one pairwise
    independence MAX (an n-way merge counts n - 1).  Counters are
    additive: thread one instance through an analysis to attribute all
    of its work, or keep separate instances and :meth:`merge` them.

    Cache hits are tallied **distinctly**: a node served from the
    node memo of a :class:`~repro.dist.cache.ConvolutionCache`
    increments :attr:`convolve_cache_hits` (one per gate arc) and
    :attr:`max_cache_hits` (its MAX merge) and leaves the mult/add
    tallies untouched — :attr:`convolutions` and
    :attr:`max_ops` count only the operations actually computed, so
    cached work is visible without inflating the Table-2 statistics.
    The invariant the tests pin: *computed + hits* equals the cache-off
    tally of the same request sequence.
    """

    convolutions: int = 0
    max_ops: int = 0
    convolve_cache_hits: int = 0
    max_cache_hits: int = 0

    @property
    def total_ops(self) -> int:
        """Convolutions plus max reductions actually *computed*
        (cache hits excluded)."""
        return self.convolutions + self.max_ops

    @property
    def cache_hits(self) -> int:
        """Requests served from the result cache (ADD plus MAX)."""
        return self.convolve_cache_hits + self.max_cache_hits

    @property
    def total_requests(self) -> int:
        """Statistical operations *requested*: computed plus cached.
        Invariant under the cache knob (and the backend choice)."""
        return self.total_ops + self.cache_hits

    @property
    def cache_hit_rate(self) -> float:
        """cache_hits / total_requests (0.0 before any request)."""
        if self.total_requests == 0:
            return 0.0
        return self.cache_hits / self.total_requests

    def merge(self, other: "OpCounter") -> None:
        """Fold another counter's tallies into this one (cache-hit
        fields included — hits must survive aggregation distinctly,
        never be folded into the computed-op tallies)."""
        self.convolutions += other.convolutions
        self.max_ops += other.max_ops
        self.convolve_cache_hits += other.convolve_cache_hits
        self.max_cache_hits += other.max_cache_hits

    def reset(self) -> None:
        """Zero every tally."""
        self.convolutions = 0
        self.max_ops = 0
        self.convolve_cache_hits = 0
        self.max_cache_hits = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OpCounter(convolutions={self.convolutions}, "
            f"max_ops={self.max_ops}, "
            f"convolve_cache_hits={self.convolve_cache_hits}, "
            f"max_cache_hits={self.max_cache_hits})"
        )


def _grid_mismatch(dt: float, other: float) -> GridMismatchError:
    return GridMismatchError(
        f"cannot combine distributions with dt={dt} and dt={other}; "
        "regrid explicitly before mixing analyses"
    )


def _require_same_grid(pdfs: Sequence[DiscretePDF]) -> float:
    dt = pdfs[0].dt
    for p in pdfs[1:]:
        if p.dt != dt:
            raise _grid_mismatch(dt, p.dt)
    return dt


def _build_results(raws: Sequence, dts, offsets, trim_eps: float) -> list:
    """``DiscretePDF._trusted(dt, off, raw).trimmed(trim_eps)`` for
    every raw kernel output.

    Runs the compiled level merge, one one-operand group per raw, when
    it passed its bitwise self-check, the NumPy expression otherwise:
    the same bits either way, so no answer, cache key or pruning
    decision depends on which.  Raws are fresh, finite, non-negative
    vectors (the backend and MAX contracts); they may become the masses
    of a result.
    """
    p = _compiled.get_provider()
    n = len(raws)
    if n and p is not None and p.merge_ok:
        return p.merge_level(
            raws, offsets, (), (), range(n), [1] * n, dts, trim_eps
        )
    trusted = DiscretePDF._trusted  # noqa: SLF001
    return [
        trusted(dt, off, raw).trimmed(trim_eps)
        for raw, dt, off in zip(raws, dts, offsets)
    ]


class DeferredAdds:
    """The ADD results of one :func:`convolve_many` batch before
    construction: the backend's raw outputs with their grids and
    absolute offsets, and no :class:`DiscretePDF` per result.

    A level whose ADD results only feed its MAX merges hands them to
    :func:`stat_max_groups` in this form (a group operand ``i`` of type
    ``int`` stands for the result of pair ``i``), where the compiled
    tier builds them and takes every MAX in one call.  ``raws``,
    ``dts`` and ``offsets`` describe the batch's distinct pairs;
    ``slots[i]`` is the distinct pair behind pair ``i`` (None when
    every pair is distinct).  :meth:`built` constructs the results
    instead — once; later calls return the same list.
    """

    __slots__ = ("raws", "dts", "offsets", "slots", "trim_eps", "_built")

    def __init__(self, raws, dts: list, offsets: list,
                 slots: Optional[list], trim_eps: float) -> None:
        self.raws = raws
        self.dts = dts
        self.offsets = offsets
        self.slots = slots
        self.trim_eps = trim_eps
        self._built: Optional[list] = None

    def __len__(self) -> int:
        return len(self.offsets if self.slots is None else self.slots)

    def built(self) -> list:
        """One :class:`DiscretePDF` per pair, exactly what
        ``convolve_many`` without ``defer`` returns."""
        if self._built is None:
            self._built = _shared(
                _build_results(self.raws, self.dts, self.offsets,
                               self.trim_eps),
                self.slots,
            )
            self.raws = None
        return self._built


def _shared(results: list, slots: Optional[list]) -> list:
    """Per-pair results from per-distinct-pair ones."""
    return results if slots is None else [results[j] for j in slots]


def convolve(
    a: DiscretePDF,
    b: DiscretePDF,
    *,
    trim_eps: float = 0.0,
    counter: Optional[OpCounter] = None,
    backend: BackendLike = "auto",
) -> DiscretePDF:
    """Distribution of the sum of two independent arrivals (ADD).

    Offsets add, so no regridding happens: the result lives on the same
    ``dt`` grid at offset ``a.offset + b.offset``.  ``trim_eps`` total
    tail mass is trimmed afterwards (split between the tails).
    ``backend`` selects the convolution kernel (default ``auto``).  A
    one-pair :func:`convolve_many` batch.
    """
    return convolve_many(
        [(a, b)], trim_eps=trim_eps, counter=counter, backend=backend
    )[0]


def convolve_many(
    pairs: Sequence,
    *,
    trim_eps: float = 0.0,
    counter: Optional[OpCounter] = None,
    backend: BackendLike = "auto",
    defer: bool = False,
):
    """Batched ADD: one :func:`convolve` result per ``(a, b)`` pair.

    The SSTA inner loop convolves every fan-in arrival with its arc's
    delay PDF before one MAX reduction; this entry point hands all of a
    node's (or level's) pairs to the backend at once, so a compiled
    backend convolves them in one foreign call.

    Equivalence contract with the looped path: **bitwise identical per
    pair regardless of batch composition**, for every shipped backend
    (see ``ConvolutionBackend.convolve_many``).  The timing engines
    rely on it: the node and arc memos share results between batches
    of any composition.  Backends without a ``convolve_many`` method
    fall back to a ``convolve_masses`` loop.  An empty batch never
    touches the backend.

    A batch computes each distinct ``(a, b)`` object pair once: a pair
    repeated in the batch (two gates with one delay object reading one
    net) shares the first one's result object.  The counter still
    tallies one convolution per pair — the operations the analysis
    requested, which the level scheduler and the sequential walk agree
    on whatever the batch composition.

    The distinct pairs go to the backend in one ``convolve_many`` call,
    which picks the kernel per pair (under ``direct`` and ``auto`` the
    compiled tier's ADD kernel takes every pair ``np.convolve`` would,
    with its bits, in one foreign call whose rows the level merge reads
    as they are).

    With ``defer`` the results come back unconstructed, as one
    :class:`DeferredAdds`: the level scheduler passes them to
    :func:`stat_max_groups`, which builds them and merges in one
    compiled call.  Without it they are that batch's
    :meth:`DeferredAdds.built` results.  The convolutions and the tally
    are the same either way.
    """
    if not pairs:
        return []
    kernel = get_backend(backend)
    # The caller's pairs hold every operand, so no id is reused while
    # ``index`` lives.
    index: dict = {}
    distinct = []
    batch = []
    slots = []
    for pair in pairs:
        a, b = pair
        if a.dt != b.dt:
            raise _grid_mismatch(a.dt, b.dt)
        key = (id(a), id(b))
        j = index.get(key)
        if j is None:
            j = index[key] = len(distinct)
            distinct.append(pair)
            batch.append((a.masses, b.masses))
        slots.append(j)
    if counter is not None:
        counter.convolutions += len(slots)
    if callable(getattr(kernel, "convolve_many", None)):
        raws = kernel.convolve_many(batch)
    else:
        raws = [kernel.convolve_masses(a, b) for a, b in batch]
    adds = DeferredAdds(
        raws,
        [a.dt for a, _b in distinct],
        [a.offset + b.offset for a, b in distinct],
        slots if len(distinct) < len(slots) else None,
        trim_eps,
    )
    return adds if defer else adds.built()


def _padded_cdfs(pdfs: Sequence[DiscretePDF]) -> tuple:
    """Stack every operand's CDF onto the union bin range.

    Returns ``(lo_offset, matrix)`` where row i holds operand i's CDF
    sampled at each union bin: 0 below its support, its cumulative
    masses within, and exactly 1 above.

    Each row is renormalized by its own final cumulative: tail trimming
    and cumulative-sum round-off leave ``cs[-1]`` a few ulp shy of 1,
    and carrying that deficit rightwards deflates the CDF product —
    each mass-deficient operand drags the merged CDF down (never up),
    biasing every MAX percentile late by up to ``k`` operands' combined
    deficit.  Dividing by ``cs[-1]`` pins every row's plateau at
    exactly 1.0 while preserving monotonicity (masses are non-negative,
    so the cumulative never exceeds its final value).
    """
    lo = min(p.offset for p in pdfs)
    hi = max(p.offset + p.n_bins for p in pdfs)
    width = hi - lo
    grid = np.empty((len(pdfs), width))
    for i, p in enumerate(pdfs):
        start = p.offset - lo
        n = p.masses.size
        # Cached per instance: the renormalizing division happens once
        # per distribution, not once per MAX it participates in.
        grid[i, :start] = 0.0
        grid[i, start : start + n] = p._unit_cdf  # noqa: SLF001
        grid[i, start + n :] = 1.0
    return lo, grid


def _max_masses(pdfs: Sequence[DiscretePDF]) -> tuple:
    """``(lo_offset, raw mass vector)`` of the independence MAX: the
    NumPy reference the compiled level merge reproduces bitwise."""
    lo, grid = _padded_cdfs(pdfs)
    cdf = np.prod(grid, axis=0)
    # Adjacent difference, spelled out: bitwise np.diff(cdf, prepend=0)
    # without the wrapper's concatenate/broadcast machinery (this runs
    # once per MAX reduction).
    masses = np.empty_like(cdf)
    masses[0] = cdf[0]
    np.subtract(cdf[1:], cdf[:-1], out=masses[1:])
    return lo, masses


def stat_max(
    a: DiscretePDF,
    b: DiscretePDF,
    *,
    trim_eps: float = 0.0,
    counter: Optional[OpCounter] = None,
    backend: BackendLike = "auto",
) -> DiscretePDF:
    """Independence statistical maximum (MAX) of two arrivals.

    ``F_max = F_a * F_b`` bin by bin on the union grid — exact under
    the engine's global independence assumption, an upper bound on the
    true circuit-delay CDF in the presence of reconvergence [3].
    ``backend`` is validated for call-site uniformity; the max numerics
    are backend-invariant.
    """
    return stat_max_groups(
        [(a, b)], trim_eps=trim_eps, counter=counter, backend=backend
    )[0]


def stat_max_many(
    pdfs: Sequence[DiscretePDF],
    *,
    trim_eps: float = 0.0,
    counter: Optional[OpCounter] = None,
    backend: BackendLike = "auto",
    adds: Optional[DeferredAdds] = None,
) -> DiscretePDF:
    """Independence MAX of any number of arrivals in one vectorized
    reduction (one CDF product over the stacked union grid).

    A single operand passes through untouched apart from trimming —
    convolution results already trimmed at the same ``trim_eps`` come
    back identically, preserving bitwise reproducibility.  ``backend``
    is validated for call-site uniformity; the max numerics are
    backend-invariant.  A one-group :func:`stat_max_groups` batch
    (``adds`` as there).
    """
    if len(pdfs) == 0:
        raise DistributionError("stat_max_many needs at least one distribution")
    return stat_max_groups(
        [pdfs], trim_eps=trim_eps, counter=counter, backend=backend,
        adds=adds,
    )[0]


def stat_max_groups(
    groups: Sequence,
    *,
    trim_eps: float = 0.0,
    counter: Optional[OpCounter] = None,
    backend: BackendLike = "auto",
    adds: Optional[DeferredAdds] = None,
    bases: Optional[Sequence] = None,
):
    """Batched MAX: one :func:`stat_max_many` result per operand group.

    The level-batched engines merge every node of a topological level
    in one call, amortizing the per-reduction dispatch the per-node
    path pays.  Every group's result is **bitwise identical** whatever
    the batch composition, and single-operand groups pass through
    trimming without touching the counter.  There is no MAX memo: a
    MAX request reaches this kernel only behind a node-memo miss, where
    it almost never recurs (see :mod:`repro.dist.cache`).  An empty
    batch is a no-op.

    ``adds`` supplies deferred ADD results (:func:`convolve_many` with
    ``defer``): an ``int`` operand ``i`` stands for ``adds[i]``.

    With the compiled tier's level merge (``merge_ok``), one foreign
    call takes every group: unbuilt ADDs at this ``trim_eps`` go in
    raw, so it builds them, takes every MAX and builds the results,
    and only the group results become objects; built ADDs and finished
    operands go in as they are.  Without it the NumPy expressions run:
    the ADDs are built (:meth:`DeferredAdds.built`) and each group's
    CDF product is taken and built in turn.  Both give the same bits
    and the same tallies.

    ``bases`` (one :class:`DiscretePDF` or None per group) asks for a
    perturbation front's per-node checks: the call then returns
    ``(results, same)``.  Where the merge built a group's result and
    the gap kernel is trusted too (``gap_ok``), ``same[i]`` says
    whether the result is bitwise ``bases[i]``, and a result that is
    not carries ``max_percentile_gap(bases[i], result)`` in its gap
    slot; everywhere else ``same[i]`` is None and the caller checks.
    """
    if not groups:
        return ([], []) if bases is not None else []
    # Validate once; the max numerics are backend-invariant.
    get_backend(backend)
    p = _compiled.get_provider()
    fused = p is not None and p.merge_ok
    if adds is not None and not (
        fused and adds._built is None and adds.trim_eps == trim_eps
    ):
        built = adds.built()
        groups = [
            [built[op] if type(op) is int else op for op in pdfs]
            for pdfs in groups
        ]
        adds = None
    results: list = [None] * len(groups)
    same: list = [None] * len(groups)
    todo: list = []
    for i, pdfs in enumerate(groups):
        if len(pdfs) == 0:
            raise DistributionError(
                "stat_max_groups needs at least one distribution per group"
            )
        if len(pdfs) == 1 and type(pdfs[0]) is not int:
            results[i] = pdfs[0].trimmed(trim_eps)
        else:
            todo.append(i)
    if not todo:
        return (results, same) if bases is not None else results
    multi = [groups[i] for i in todo]
    if fused:
        # Operand ``j`` of the call is raw ADD ``src[j]``, or finished
        # operand ``~src[j]``.
        slots = adds.slots if adds is not None else None
        src = []
        dts = []
        fins = []
        foffs = []
        for pdfs in multi:
            dt = None
            for op in pdfs:
                if type(op) is int:
                    j = op if slots is None else slots[op]
                    op_dt = adds.dts[j]
                    src.append(j)
                else:
                    op_dt = op.dt
                    src.append(~len(fins))
                    fins.append(op.masses)
                    foffs.append(op.offset)
                if dt is None:
                    dt = op_dt
                elif op_dt != dt:
                    raise _grid_mismatch(dt, op_dt)
            dts.append(dt)
        checked = None
        if bases is not None and p.gap_ok:
            checked = [bases[i] for i in todo]
        merged = p.merge_level(
            adds.raws if adds is not None else (),
            adds.offsets if adds is not None else (),
            fins, foffs, src, list(map(len, multi)), dts, trim_eps,
            checked,
        )
        if checked is not None:
            merged, flags = merged
            for i, flag in zip(todo, flags):
                same[i] = flag
    else:
        dts = [_require_same_grid(pdfs) for pdfs in multi]
        computed = [_max_masses(pdfs) for pdfs in multi]
        merged = _build_results(
            [masses for _lo, masses in computed], dts,
            [lo for lo, _masses in computed], trim_eps,
        )
    if counter is not None:
        counter.max_ops += sum(len(pdfs) - 1 for pdfs in multi)
    for i, result in zip(todo, merged):
        results[i] = result
    return (results, same) if bases is not None else results
