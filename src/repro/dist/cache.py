"""Keyed result cache for the timing engines (the optimizer memo).

The sizing loop re-evaluates sensitivity by re-running SSTA
perturbation fronts, and across candidate gates and optimizer
iterations the *same* timing nodes are re-merged from the same fan-in
thousands of times: sibling fronts re-visit one another's territory,
and a warm service request replays a whole earlier analysis.
:class:`ConvolutionCache` memoizes those finished results.

Design constraints, in order:

1. **Finished results under absolute keys.**  A cache hit must return
   exactly the bits a fresh computation would produce.  Every key names
   its operands' absolute offsets, so a hit is a recurrence of the very
   request that computed the entry, and the stored (immutable) result
   object is returned outright.  An entry is that finished result and
   nothing else.  A translated recurrence (same masses, other offsets)
   is a miss and recomputes.  Over pruned, brute-force and heuristic
   sizing, SSTA and service traffic, no hit was ever translated
   (0 of ~47k), so nothing is kept to rebuild one.
2. **Content keys, not identity keys.**  Keys are fingerprints of the
   operand mass vectors (plus ``dt``, offsets, the trim epsilon, and
   the backend), so re-created but equal operands hit — a fresh
   circuit copy in a warm service process, or a snapshot loaded by
   another process — and a resized gate's new delay PDF (new masses,
   new fingerprint) can never alias a stale entry.  Fingerprints are
   SHA-1 digests of the immutable mass bytes, memoized per
   :class:`~repro.dist.pdf.DiscretePDF` instance (its ``_fp``
   attribute), so repeated lookups of long-lived operands cost O(1).
3. **Bounded memory.**  The cache is an LRU over a fixed number of
   entries (:data:`DEFAULT_CACHE_CAPACITY` by default); eviction churn
   at tiny capacities is exercised by the property suite.

The LRU holds one memo kind, **node**: a timing node's whole merged
arrival, probed by every engine (full, incremental and backward SSTA,
the perturbation fronts) before any kernel work (:meth:`lookup_node`).

There is no gap memo.  A front's Theorem-4 gap recurs only where its
perturbed result does, on a node-memo hit against the same base
arrival, so it lives on that result object
(``PerturbationFront._percentile_gap``): no key, no lock, no LRU entry.

There is no per-operation memo either.  A kernel request only happens
behind a node-memo miss, which means the node's fan-in changed, so its
MAX almost never recurs (a cold 10-iteration pruned c432 sizing run
never repeats one).  Its ADDs do recur, but the recurring ones are the
unperturbed arcs a perturbation front re-requests from the base pass,
and those are matched by object identity in the base pass's own arc
memo (:class:`~repro.timing.ssta.ArcMemo`) with no hashing and no LRU
traffic.  A content-hashed ADD memo cost more on a cold sizing run
than it saved, and its entries pushed node entries out of the LRU.

The cache is *enabled per analysis* through
``AnalysisConfig(cache=...)`` (see :mod:`repro.config`) and threaded
by every engine the same way the backend knob is.

**Thread safety.**  One instance may be shared by any number of
threads (the analysis service holds a single process-wide cache under
a :class:`~socketserver.ThreadingMixIn` server).  Every public
operation — lookup, store, save, clear, byte-budget eviction — runs
under one internal mutex, so the LRU order, the entry map, the byte
accounting, and the :class:`CacheStats` tallies are updated
atomically per operation.  The stats share that mutex, so a probe
or store takes one lock, and the batched kernels probe or store a
whole batch under one acquisition.  A lookup and the store that follows
its miss are deliberately *not* one atomic unit (two threads may race to
compute the same entry — the second store replaces the first with a
bitwise-identical result, so values never depend on the interleaving,
only the hit/miss split does).  The lock is never held while kernel
work runs: the cache does no computation of its own.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import DistributionError
from .pdf import DiscretePDF

__all__ = ["ConvolutionCache", "CacheStats", "DEFAULT_CACHE_CAPACITY"]

#: Default entry bound.  A c432 sizing iteration's working set is
#: thousands of entries (one per distinct node arrival across the base
#: SSTA and every perturbation front), and an undersized cache
#: *thrashes* — each iteration evicts what the next would have hit.
#: 32k entries hold the paper suite's working sets with room to spare
#: while bounding memory at tens of MiB of ~100-bin float64 vectors.
DEFAULT_CACHE_CAPACITY: int = 32768

#: Monotonic sequence for snapshot temp-file names: combined with pid
#: and thread id it makes every :meth:`ConvolutionCache.save` writer's
#: temp path unique, so concurrent flushes can never interleave bytes
#: in one temp file (each rename is then atomic per writer).
_SAVE_SEQ = itertools.count()


@dataclass
class CacheStats:
    """Lifetime hit/miss/eviction tallies of one cache instance.

    Thread-safe: every mutation (:meth:`record`, :meth:`reset`,
    :meth:`merge`) runs under an internal lock, and multi-field reads
    go through :meth:`snapshot` for a consistent view.  Bare ``+=`` on
    the fields is not atomic in CPython — concurrent writers must use
    :meth:`record`, which is what makes the final tallies equal the
    merged per-thread deltas in the threaded stress suite.  The owning
    :class:`ConvolutionCache` shares this lock as its operation mutex
    and mutates the fields directly while holding it, so a probe or
    store takes one lock, not two.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "_lock", threading.Lock())

    # The lock is an implementation detail: it must not participate in
    # dataclass equality/repr and cannot ride a pickle.
    def __getstate__(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__["_lock"] = threading.Lock()

    @property
    def requests(self) -> int:
        """Total lookups served (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """hits / requests (0.0 before any lookup)."""
        hits, misses, _ = self.snapshot()
        if hits + misses == 0:
            return 0.0
        return hits / (hits + misses)

    def record(
        self, *, hits: int = 0, misses: int = 0, evictions: int = 0
    ) -> None:
        """Atomically add deltas to the tallies (the only mutation path
        that is safe under concurrent writers)."""
        with self._lock:
            self.hits += hits
            self.misses += misses
            self.evictions += evictions

    def snapshot(self) -> tuple:
        """Consistent ``(hits, misses, evictions)`` triple — reading
        the fields one by one can interleave with a concurrent
        :meth:`record`."""
        with self._lock:
            return (self.hits, self.misses, self.evictions)

    def reset(self) -> None:
        """Zero all tallies (the entries themselves are untouched)."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def merge(self, other: "CacheStats") -> None:
        """Fold another stats record into this one — the aggregation
        helper for reporting across several caches or runs (e.g.
        summing per-circuit warm-start snapshots).  Pure integer
        addition, so merging any number of records in any order yields
        the same aggregate (pinned by the merge-semantics suite)."""
        hits, misses, evictions = other.snapshot()
        self.record(hits=hits, misses=misses, evictions=evictions)


#: Coarse per-entry bookkeeping overhead (key tuple, OrderedDict slot,
#: object headers) used by the byte accounting.  The dominant term is
#: the mass vectors, which are measured exactly; this constant only
#: keeps many-small-entry caches from reading as free.
_ENTRY_OVERHEAD_BYTES = 256


class _Entry:
    """One memoized result: ``result`` is the finished
    :class:`DiscretePDF`; ``backend`` the resolved backend object the
    entry was computed under, verified
    identically on hit so two distinct backend instances sharing a name
    can never serve each other's bits; ``nbytes`` its approximate
    resident size, fixed at construction: the byte accounting adds it
    on store and subtracts it on evict or replace.
    """

    __slots__ = ("result", "backend", "nbytes")

    def __init__(self, result, backend) -> None:
        self.result = result
        self.backend = backend
        self.nbytes = _ENTRY_OVERHEAD_BYTES + result.masses.nbytes


class ConvolutionCache:
    """Size-bounded LRU memo over node arrivals.

    Parameters
    ----------
    capacity:
        Maximum number of stored results (>= 1).  The least recently
        used entry is evicted when the bound is reached.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if not isinstance(capacity, int) or isinstance(capacity, bool):
            raise DistributionError(
                f"cache capacity must be an int, got {capacity!r}"
            )
        if capacity < 1:
            raise DistributionError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict" = OrderedDict()
        # Operation mutex: every public lookup/store/save/evict runs
        # under it (see the module docstring's thread-safety contract).
        # It is the stats' own lock, so tallies are mutated in place
        # under it and ``stats.snapshot()`` stays consistent.  A plain
        # (non-reentrant) Lock — internal helpers never call back into
        # public methods (or ``stats.record``) while holding it.
        self._lock = self.stats._lock  # noqa: SLF001
        self._bytes = 0

    # The lock cannot ride a pickle; everything else can.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = self.stats._lock  # noqa: SLF001

    # ------------------------------------------------------------------
    # Coercion (the AnalysisConfig.cache knob)
    # ------------------------------------------------------------------
    @classmethod
    def coerce(cls, spec) -> Optional["ConvolutionCache"]:
        """Resolve the config knob: None (off), an int capacity, or an
        existing instance (shared between derived configs)."""
        if spec is None:
            return None
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, int) and not isinstance(spec, bool):
            return cls(capacity=spec)
        raise DistributionError(
            "cache must be None, an int capacity, or a ConvolutionCache; "
            f"got {spec!r}"
        )

    # ------------------------------------------------------------------
    # LRU plumbing (callers hold self._lock)
    # ------------------------------------------------------------------
    def _get(self, key: tuple, backend) -> Optional[_Entry]:
        """Probe one key: the entry on a hit, None on a miss.  An entry
        stored under a different backend object (a distinct instance
        sharing the stored one's name) is the miss it is: the caller
        recomputes."""
        entries = self._entries
        entry = entries.get(key)
        if entry is not None:
            entries.move_to_end(key)
            if entry.backend is backend:
                self.stats.hits += 1
                return entry
        self.stats.misses += 1
        return None

    def _put(self, key: tuple, entry: _Entry) -> None:
        entries = self._entries
        old = entries.setdefault(key, entry)
        if old is not entry:
            # Replacing a racing thread's (bitwise-identical) store or
            # a backend-mismatched entry: refresh value and recency.
            entries[key] = entry
            entries.move_to_end(key)
            self._bytes += entry.nbytes - old.nbytes
            return
        self._bytes += entry.nbytes
        # The new entry is the most recent, so it is never the victim.
        while len(entries) > self.capacity:
            _k, evicted = entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Whole-node arrival memo (the engines' coarse-grained fast path)
    # ------------------------------------------------------------------
    # A timing node's arrival is a pure function of its fan-in operand
    # contents *and absolute offsets*: memoizing at node granularity
    # lets a perturbation front that re-visits a node with unchanged
    # inputs (the dominant case across candidate fronts and optimizer
    # iterations) skip the whole convolve-batch + MAX pipeline for one
    # dict probe.  Keys use absolute offsets, so a hit returns the
    # exact stored object a fresh computation would reproduce bitwise.

    def lookup_node(self, key: tuple, backend) -> Optional[DiscretePDF]:
        """Memoized whole-node arrival for a key built by
        :meth:`node_key`, or None.  The resolved backend object is
        verified identically — two distinct instances sharing a name
        (e.g. ``AutoBackend``s with different cost ratios) must never
        serve each other's bits."""
        with self._lock:
            entry = self._get(("node",) + key, backend)
        return None if entry is None else entry.result

    def store_node(self, key: tuple, result: DiscretePDF, backend) -> None:
        entry = _Entry(result, backend)
        with self._lock:
            self._put(("node",) + key, entry)

    @staticmethod
    def node_key(parts, trim_eps: float, backend) -> tuple:
        """Node-memo key from ``(arrival, delay-or-None)`` fan-in parts
        (absolute offsets; delay ``None`` marks a virtual arc)."""
        return (
            trim_eps,
            getattr(backend, "name", type(backend).__name__),
            tuple([
                (
                    arr.dt,
                    arr.offset,
                    arr._fp,  # noqa: SLF001
                    None if d is None else d.offset,
                    None if d is None else d._fp,  # noqa: SLF001
                )
                for arr, d in parts
            ]),
        )

    # ------------------------------------------------------------------
    # Persistence (cross-run warm starts)
    # ------------------------------------------------------------------
    # Keys are content fingerprints (SHA-1 of mass bytes) plus grid,
    # epsilon, offset, and backend-*name* components — nothing
    # process-specific — so entries are valid in any process that
    # resolves the same registry kernels.  Snapshots ride the
    # memo-stripped serialization of ``DiscretePDF.__getstate__``: an
    # entry is its key, its finished result, and its backend name.
    # Only registry-kernel entries are saved — a non-registry backend
    # instance cannot be identified by name alone, and writing it under
    # its name could alias a different implementation's entries on
    # load.  A format-2 file written while the cache still held an ADD,
    # a MAX or a gap kind carries ``"conv"``, ``"max"`` or ``"gap"``
    # entries that no engine probes any more: :meth:`load` (and so
    # :meth:`merge_snapshots` and the multi-worker front) skips them,
    # so a warm start never fills the LRU with dead entries.

    #: Snapshot format version (bump on any layout change).  Files of
    #: another format are rejected, never translated: delete them.
    SNAPSHOT_FORMAT: int = 2

    #: First key element of every kind an engine probes.
    _LIVE_KINDS = frozenset({"node"})

    def save(self, path) -> int:
        """Write every (registry-kernel) entry to ``path`` in LRU
        order, returning the number of entries written.  Loading the
        file into a fresh cache (:meth:`load`) reproduces the entries
        and their recency order; statistics are not persisted."""
        from .backends import is_registry_backend

        entries = []
        # Snapshot the LRU order under the lock (cheap walk); the
        # pickle dump below runs unlocked on the gathered immutable
        # entry fields, so a long flush never stalls concurrent
        # lookups for the disk write's duration.
        with self._lock:
            items = list(self._entries.items())
        for key, entry in items:
            if is_registry_backend(entry.backend):
                entries.append((key, entry.result, entry.backend.name))
        payload = {
            "format": self.SNAPSHOT_FORMAT,
            "capacity": self.capacity,
            "entries": entries,
        }
        # Atomic replace: a crash or full disk mid-dump must not
        # destroy the previous good snapshot (warm starts depend on
        # it surviving every run that reads it).  The temp name is
        # unique per *writer*, not per process: a pid-only suffix let
        # the SIGTERM-drain flush and the periodic flusher thread (or
        # any two unsynchronized threads) interleave writes into one
        # temp file and rename garbage over the good snapshot.
        path = os.fspath(path)
        tmp = (
            f"{path}.tmp.{os.getpid()}.{threading.get_native_id()}"
            f".{next(_SAVE_SEQ)}"
        )
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return len(entries)

    @classmethod
    def merge_snapshots(
        cls,
        paths: Sequence,
        out_path,
        *,
        capacity: int = DEFAULT_CACHE_CAPACITY,
    ) -> int:
        """Fold several snapshot files into one (the multi-worker
        service front's reconciliation step: per-worker snapshots merge
        into the shared warm-start file a restarted worker seeds from).

        ``paths`` are loaded in order; entries are content-keyed, so a
        key appearing in several snapshots carries a bitwise-identical
        result everywhere and later occurrences simply refresh its
        recency.  Missing and corrupt inputs are skipped — a worker
        that crashed mid-write must not poison the union of its
        healthy peers.  Returns the number of entries written (0 when
        no input contributed; no file is written then).
        """
        merged = cls(capacity)
        contributed = False
        for path in paths:
            try:
                loaded = cls.load(path, capacity=capacity)
            except (OSError, DistributionError):
                continue
            contributed = True
            for key, entry in loaded._entries.items():
                merged._entries[key] = entry
                merged._entries.move_to_end(key)
        while len(merged._entries) > merged.capacity:
            merged._entries.popitem(last=False)
        if not contributed:
            return 0
        merged._bytes = sum(e.nbytes for e in merged._entries.values())
        return merged.save(out_path)

    @classmethod
    def load(cls, path, *, capacity: Optional[int] = None) -> "ConvolutionCache":
        """Rebuild a cache from a :meth:`save` snapshot.

        ``capacity`` overrides the recorded bound (the oldest entries
        are dropped if the snapshot exceeds it).  Entries of a kind no
        engine probes any more are skipped.  Backend names are
        resolved against the current registry, so hits served from
        loaded entries pass the same identity check fresh entries do.
        Snapshots are trusted input (they are pickles): load only
        files you wrote.
        """
        from .backends import get_backend

        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except (
            pickle.UnpicklingError, EOFError, AttributeError, ImportError,
        ) as exc:
            # ImportError covers foreign pickles referencing modules
            # this build does not have (including snapshots written by
            # a version that has since moved a class).
            raise DistributionError(
                f"corrupt cache snapshot {path!r}: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise DistributionError(
                f"corrupt cache snapshot {path!r}: not a snapshot payload"
            )
        fmt = payload.get("format")
        if fmt != cls.SNAPSHOT_FORMAT:
            raise DistributionError(
                f"cache snapshot {os.fspath(path)!r} has unsupported "
                f"format {fmt!r} (expected {cls.SNAPSHOT_FORMAT}); "
                "delete it to start cold"
            )
        try:
            cache = cls(
                capacity if capacity is not None else payload["capacity"]
            )
            for key, result, name in payload["entries"]:
                if key[0] not in cls._LIVE_KINDS:
                    continue
                cache._entries[key] = _Entry(result, get_backend(name))
        except DistributionError:
            raise
        except (
            KeyError, IndexError, ValueError, TypeError, AttributeError,
        ) as exc:
            # A payload that unpickled but has the wrong shape (hand
            # edit, partial write that still parses) is corruption too.
            raise DistributionError(
                f"corrupt cache snapshot {path!r}: {exc}"
            ) from exc
        while len(cache._entries) > cache.capacity:
            cache._entries.popitem(last=False)
        cache._bytes = sum(e.nbytes for e in cache._entries.values())
        return cache

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def approx_bytes(self) -> int:
        """Approximate resident size of the stored entries (exact for
        the mass vectors, a fixed per-entry constant for bookkeeping)
        — the quantity the service's memory budget is enforced
        against."""
        with self._lock:
            return self._bytes

    def evict_to_bytes(self, budget_bytes: int) -> int:
        """Evict LRU entries until :attr:`approx_bytes` fits within
        ``budget_bytes`` (which may be 0 to drop everything), returning
        the number of entries evicted.  The eviction tally counts them
        like capacity evictions."""
        if budget_bytes < 0:
            raise DistributionError(
                f"byte budget must be >= 0, got {budget_bytes}"
            )
        evicted = 0
        with self._lock:
            while self._entries and self._bytes > budget_bytes:
                _k, entry = self._entries.popitem(last=False)
                self._bytes -= entry.nbytes
                evicted += 1
            self.stats.evictions += evicted
        return evicted

    def clear(self) -> None:
        """Drop every entry (stats are kept; see ``stats.reset()``)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return (
            f"ConvolutionCache(entries={len(self._entries)}/"
            f"{self.capacity}, hits={s.hits}, misses={s.misses}, "
            f"evictions={s.evictions})"
        )
