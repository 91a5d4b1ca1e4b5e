"""Shared domain state of the analysis service.

:class:`ServiceState` is the long-lived layer every request handler
dispatches into: loaded circuits with their timing graphs and delay
models stay resident across requests, and ONE process-wide
content-addressed :class:`~repro.dist.cache.ConvolutionCache` is
threaded through every analysis — entries are content-keyed, so a
family of sized variants of the same circuit shares most convolutions
and concurrent users warm each other's runs instead of recomputing
from cold.

Lock discipline (three levels, acquired strictly downward — no method
ever takes a higher-level lock while holding a lower one, so the
hierarchy is deadlock-free by construction):

1. ``ServiceState._lock`` (top) guards the *registries*: the session
   table, the resident-circuit table, and the latency metrics.  It is
   held only for dict probes/inserts and timestamp updates — never
   while kernel work runs.
2. ``_ResidentCircuit.lock`` (middle) serializes analyses that share
   one resident entry's mutable memos (the
   :class:`~repro.timing.delay_model.DelayModel` PDF cache and the
   per-instance ``DiscretePDF`` memos).  Distinct entries — different
   circuits, scales, or analysis configs — run fully concurrently.
   Sizing requests never take it: they load a fresh circuit copy per
   request (the sizer mutates gate widths) and share only the cache.
3. ``ConvolutionCache`` internal lock (bottom) makes every cache
   operation atomic; it is acquired inside the kernels, under any of
   the above.

Results are bitwise independent of request interleaving: cache hits
replay the exact bits a fresh computation would produce (the PR-3
contract), so a server-mediated analysis equals its local serial twin
no matter how many sessions run concurrently — the invariant the
concurrent-session suite and the ``service`` benchmark section pin.

Eviction policy: resident circuits idle beyond ``ttl_s`` (or beyond
``max_resident``, LRU-first) and sessions idle beyond ``session_ttl_s``
are dropped at request boundaries; when ``cache_budget_bytes`` is set,
the shared cache is trimmed LRU-first to the budget after every
request (:meth:`ConvolutionCache.evict_to_bytes`).

Snapshot lifecycle: when constructed with ``cache_file`` the state
warm-starts from the snapshot if it exists, and :meth:`flush` writes
the cache back through the atomic writer (tmp + ``os.replace``), so a
crash can never destroy the previous good snapshot.  The server wires
:meth:`flush` to a periodic timer, ``atexit``, and SIGTERM drain.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import AnalysisConfig, DEFAULT_CONFIG
from ..core.brute_force_sizer import BruteForceStatisticalSizer
from ..core.deterministic_sizer import DeterministicSizer
from ..core.heuristic_sizer import HeuristicStatisticalSizer
from ..core.pruned_sizer import PrunedStatisticalSizer
from ..dist.cache import DEFAULT_CACHE_CAPACITY, ConvolutionCache
from ..dist.ops import OpCounter
from ..errors import OptimizationError, ServiceError
from ..netlist.benchmarks import PAPER_SUITE, load
from ..timing.delay_model import DelayModel
from ..timing.graph import TimingGraph
from ..timing.ssta import run_ssta
from ..timing.sta import run_sta
from ..timing.yield_analysis import delay_at_yield, timing_yield, yield_curve
from .protocol import pdf_to_wire, sizing_result_to_wire

__all__ = ["ServiceState", "SIZERS", "OVERRIDABLE_CONFIG_FIELDS"]

#: Sizer verbs accepted by /optimize.
SIZERS = {
    "pruned": PrunedStatisticalSizer,
    "heuristic": HeuristicStatisticalSizer,
    "brute": BruteForceStatisticalSizer,
    "deterministic": DeterministicSizer,
}

#: AnalysisConfig fields a session or request may override.  ``cache``
#: is deliberately absent: the whole point of the service is the ONE
#: shared cache.
OVERRIDABLE_CONFIG_FIELDS = (
    "dt", "tail_eps", "percentile", "sigma_fraction",
    "truncation_sigma", "delta_w", "backend", "level_batch",
)

#: Default percentile levels reported by /analyze (matches the golden
#: sink files).
DEFAULT_PERCENTILES = (0.5, 0.9, 0.99)

#: Latency samples kept per endpoint for the p50/p99 report.
_LATENCY_WINDOW = 8192


class _Session:
    """One client session: config overrides plus usage tallies."""

    __slots__ = (
        "session_id", "created", "last_used", "overrides",
        "requests", "kernel_hits", "kernel_requests",
    )

    def __init__(self, session_id: str, overrides: dict, now: float) -> None:
        self.session_id = session_id
        self.created = now
        self.last_used = now
        self.overrides = overrides
        self.requests = 0
        self.kernel_hits = 0
        self.kernel_requests = 0

    @property
    def hit_rate(self) -> float:
        if self.kernel_requests == 0:
            return 0.0
        return self.kernel_hits / self.kernel_requests

    def describe(self) -> dict:
        return {
            "requests": self.requests,
            "kernel_hits": self.kernel_hits,
            "kernel_requests": self.kernel_requests,
            "hit_rate": self.hit_rate,
            "idle_s": max(0.0, time.monotonic() - self.last_used),
            "overrides": dict(self.overrides),
        }


class _ResidentCircuit:
    """A loaded circuit with its timing graph and delay model.

    ``lock`` serializes analyses sharing this entry (level-2 of the
    lock discipline); the registry key already encodes every config
    field the delay model depends on, so one entry never serves two
    numerically different configurations.
    """

    __slots__ = ("key", "circuit", "graph", "model", "lock", "last_used")

    def __init__(self, key: tuple, circuit, graph, model, now: float) -> None:
        self.key = key
        self.circuit = circuit
        self.graph = graph
        self.model = model
        self.lock = threading.Lock()
        self.last_used = now


def _quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sorted sample."""
    idx = min(
        len(sorted_values) - 1,
        max(0, int(round(q * (len(sorted_values) - 1)))),
    )
    return sorted_values[idx]


def _config_signature(config: AnalysisConfig) -> tuple:
    """Everything a resident delay model's numerics depend on (the
    cache is a bitwise-transparent knob)."""
    return tuple(
        getattr(config, f) for f in OVERRIDABLE_CONFIG_FIELDS
    )


class ServiceState:
    """Long-lived shared state behind the analysis server."""

    def __init__(
        self,
        *,
        config: AnalysisConfig = DEFAULT_CONFIG,
        cache=DEFAULT_CACHE_CAPACITY,
        cache_file=None,
        ttl_s: float = 3600.0,
        session_ttl_s: float = 3600.0,
        max_resident: int = 32,
        cache_budget_bytes: Optional[int] = None,
        seed_file=None,
        worker_id: Optional[int] = None,
        stats_sidecar=None,
    ) -> None:
        if max_resident < 1:
            raise ServiceError(
                f"max_resident must be >= 1, got {max_resident}"
            )
        if ttl_s <= 0 or session_ttl_s <= 0:
            raise ServiceError("TTLs must be positive")
        if cache_budget_bytes is not None and cache_budget_bytes < 0:
            raise ServiceError(
                f"cache budget must be >= 0, got {cache_budget_bytes}"
            )
        self.base_config = config.with_updates(cache=None)
        self.ttl_s = float(ttl_s)
        self.session_ttl_s = float(session_ttl_s)
        self.max_resident = int(max_resident)
        self.cache_budget_bytes = cache_budget_bytes
        self.cache_file = None
        self.loaded_entries = 0
        self.worker_id = worker_id
        self.stats_sidecar = (
            None if stats_sidecar is None else os.fspath(stats_sidecar)
        )
        if cache_file is not None:
            self.cache_file = os.fspath(cache_file)
        seed_file = None if seed_file is None else os.fspath(seed_file)
        # The ONE process-wide cache.  Warm-start from the snapshot
        # when one exists; its capacity knob still applies.
        # ``seed_file`` is the fallback warm start: a frontend worker
        # flushes to its *own* snapshot path but seeds from the shared
        # reconciled one on first boot, so every worker starts from
        # the union of its predecessors' caches.
        capacity = (
            cache.capacity
            if isinstance(cache, ConvolutionCache)
            else int(cache) if cache else DEFAULT_CACHE_CAPACITY
        )
        if self.cache_file is not None and _exists(self.cache_file):
            self.cache = ConvolutionCache.load(
                self.cache_file, capacity=capacity
            )
            self.loaded_entries = len(self.cache)
        elif seed_file is not None and _exists(seed_file):
            self.cache = ConvolutionCache.load(seed_file, capacity=capacity)
            self.loaded_entries = len(self.cache)
        elif isinstance(cache, ConvolutionCache):
            self.cache = cache
        else:
            self.cache = ConvolutionCache(capacity)
        self._lock = threading.Lock()
        self._sessions: Dict[str, _Session] = {}
        self._resident: Dict[tuple, _ResidentCircuit] = {}
        self._latencies: Dict[str, deque] = {}
        self._request_counts: Dict[str, int] = {}
        self._started = time.monotonic()
        self._flush_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Config + session resolution
    # ------------------------------------------------------------------
    def _resolve_config(
        self, session: Optional[_Session], overrides: Optional[dict]
    ) -> AnalysisConfig:
        """Base config + session overrides + request overrides, with
        the shared cache always attached."""
        merged: dict = {}
        if session is not None:
            merged.update(session.overrides)
        if overrides:
            for field in overrides:
                if field not in OVERRIDABLE_CONFIG_FIELDS:
                    raise ServiceError(
                        f"config field {field!r} is not overridable; "
                        f"allowed: {OVERRIDABLE_CONFIG_FIELDS}"
                    )
            merged.update(overrides)
        try:
            config = self.base_config.with_updates(**merged)
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"bad config override: {exc}") from exc
        return config.with_updates(cache=self.cache)

    def _session(self, session_id: Optional[str]) -> Optional[_Session]:
        if session_id is None:
            return None
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise ServiceError(f"unknown session {session_id!r}")
            session.last_used = time.monotonic()
            session.requests += 1
            return session

    def open_session(self, overrides: Optional[dict] = None) -> str:
        overrides = dict(overrides or {})
        # Validate now so a bad session fails at open, not first use.
        self._resolve_config(None, overrides)
        session_id = uuid.uuid4().hex[:16]
        now = time.monotonic()
        with self._lock:
            self._sessions[session_id] = _Session(session_id, overrides, now)
        return session_id

    def close_session(self, session_id: str) -> dict:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise ServiceError(f"unknown session {session_id!r}")
        return session.describe()

    def _tally_session(
        self, session: Optional[_Session], hits: int, requests: int
    ) -> None:
        if session is None:
            return
        with self._lock:
            session.kernel_hits += hits
            session.kernel_requests += requests

    # ------------------------------------------------------------------
    # Resident circuits + eviction
    # ------------------------------------------------------------------
    def _resident_entry(
        self, name: str, scale: float, config: AnalysisConfig
    ) -> _ResidentCircuit:
        key = (name, float(scale), _config_signature(config))
        now = time.monotonic()
        with self._lock:
            self._evict_expired_locked(now)
            entry = self._resident.get(key)
            if entry is not None:
                entry.last_used = now
                return entry
        # Build outside the registry lock — loading a circuit is real
        # work and must not stall unrelated requests.  A concurrent
        # builder of the same key may win the insert race below; both
        # entries are equivalent, so first-in wins and the loser's
        # build is discarded.
        circuit = _load_circuit(name, scale)
        graph = TimingGraph(circuit)
        model = DelayModel(circuit, config=config)
        entry = _ResidentCircuit(key, circuit, graph, model, now)
        with self._lock:
            existing = self._resident.get(key)
            if existing is not None:
                existing.last_used = time.monotonic()
                return existing
            # Make room LRU-first before inserting past the bound.
            while len(self._resident) >= self.max_resident:
                lru_key = min(
                    self._resident,
                    key=lambda k: self._resident[k].last_used,
                )
                del self._resident[lru_key]
            self._resident[key] = entry
            return entry

    def _evict_expired_locked(self, now: float) -> None:
        """Drop idle sessions and resident circuits past their TTLs
        (caller holds ``self._lock``)."""
        dead = [
            sid for sid, s in self._sessions.items()
            if now - s.last_used > self.session_ttl_s
        ]
        for sid in dead:
            del self._sessions[sid]
        stale = [
            key for key, e in self._resident.items()
            if now - e.last_used > self.ttl_s
        ]
        for key in stale:
            del self._resident[key]

    def _enforce_cache_budget(self) -> None:
        if self.cache_budget_bytes is not None:
            self.cache.evict_to_bytes(self.cache_budget_bytes)

    # ------------------------------------------------------------------
    # Request handlers (the server routes dispatch here)
    # ------------------------------------------------------------------
    def analyze(
        self,
        circuit: str,
        *,
        scale: float = 1.0,
        session_id: Optional[str] = None,
        config_overrides: Optional[dict] = None,
        percentiles: Iterable[float] = DEFAULT_PERCENTILES,
    ) -> dict:
        """One SSTA + STA pass over a resident circuit.

        Returns a wire-ready dict whose ``sink`` field round-trips the
        sink distribution bitwise (see :mod:`repro.service.protocol`).
        """
        session = self._session(session_id)
        config = self._resolve_config(session, config_overrides)
        entry = self._resident_entry(circuit, scale, config)
        counter = OpCounter()
        with entry.lock:
            ssta = run_ssta(entry.graph, entry.model,
                            config=config, counter=counter)
            sta = run_sta(entry.graph, entry.model)
        sink = ssta.sink_pdf
        self._tally_session(session, counter.cache_hits,
                            counter.total_requests)
        self._enforce_cache_budget()
        return {
            "circuit": circuit,
            "scale": float(scale),
            "gates": entry.circuit.n_gates,
            "sta_delay": sta.circuit_delay,
            "mean": sink.mean(),
            "std": sink.std(),
            "percentiles": [
                [float(p), sink.percentile(float(p))]
                for p in percentiles
            ],
            "sink": pdf_to_wire(sink),
            "kernel": {
                "convolutions": counter.convolutions,
                "max_ops": counter.max_ops,
                "cache_hits": counter.cache_hits,
                "requests": counter.total_requests,
            },
        }

    def optimize(
        self,
        circuit: str,
        *,
        iterations: int = 25,
        scale: float = 1.0,
        sizer: str = "pruned",
        session_id: Optional[str] = None,
        config_overrides: Optional[dict] = None,
    ) -> dict:
        """One sizing run on a **fresh** circuit copy (sizers mutate
        gate widths; only the convolution cache is shared)."""
        session = self._session(session_id)
        config = self._resolve_config(session, config_overrides)
        try:
            sizer_cls = SIZERS[sizer]
        except KeyError:
            raise ServiceError(
                f"unknown sizer {sizer!r}; one of {sorted(SIZERS)}"
            ) from None
        if sizer == "deterministic":
            # The deterministic baseline never touches the statistical
            # kernels; drop the cache so its run matches the local CLI
            # exactly.
            config = config.with_updates(cache=None)
        fresh = _load_circuit(circuit, scale)
        try:
            runner = sizer_cls(
                fresh, config=config, max_iterations=int(iterations)
            )
        except (TypeError, ValueError, OptimizationError) as exc:
            # Construction-time failures are bad *requests* (e.g.
            # iterations < 1); failures inside run() stay domain
            # errors.
            raise ServiceError(f"bad optimize request: {exc}") from exc
        result = runner.run()
        hits = result.cache_hits
        requests = hits + sum(
            s.stats.convolutions + s.stats.max_ops for s in result.steps
        )
        self._tally_session(session, hits, requests)
        self._enforce_cache_budget()
        return {
            "circuit": circuit,
            "scale": float(scale),
            "sizer": sizer,
            "cache_hit_rate": result.cache_hit_rate,
            "result": sizing_result_to_wire(result),
        }

    def yield_query(
        self,
        circuit: str,
        *,
        scale: float = 1.0,
        target: Optional[float] = None,
        n_points: int = 12,
        session_id: Optional[str] = None,
        config_overrides: Optional[dict] = None,
    ) -> dict:
        """Timing-yield queries on the resident sink distribution."""
        session = self._session(session_id)
        config = self._resolve_config(session, config_overrides)
        entry = self._resident_entry(circuit, scale, config)
        counter = OpCounter()
        with entry.lock:
            sink = run_ssta(entry.graph, entry.model,
                            config=config, counter=counter).sink_pdf
        self._tally_session(session, counter.cache_hits,
                            counter.total_requests)
        self._enforce_cache_budget()
        targets, yields = yield_curve(sink, n_points=int(n_points))
        out = {
            "circuit": circuit,
            "scale": float(scale),
            "delay_at_yield": [
                [y, delay_at_yield(sink, y)]
                for y in (0.50, 0.90, 0.95, 0.99)
            ],
            "yield_curve": [
                [float(t), float(y)] for t, y in zip(targets, yields)
            ],
            "sink": pdf_to_wire(sink),
        }
        if target is not None:
            out["target"] = float(target)
            out["yield_at_target"] = timing_yield(sink, float(target))
        return out

    # ------------------------------------------------------------------
    # Introspection + lifecycle
    # ------------------------------------------------------------------
    def record_latency(self, endpoint: str, seconds: float) -> None:
        with self._lock:
            bucket = self._latencies.get(endpoint)
            if bucket is None:
                bucket = self._latencies[endpoint] = deque(
                    maxlen=_LATENCY_WINDOW
                )
            bucket.append(seconds)
            self._request_counts[endpoint] = (
                self._request_counts.get(endpoint, 0) + 1
            )

    def stats(self) -> dict:
        """Aggregate service statistics (the /stats payload)."""
        hits, misses, evictions = self.cache.stats.snapshot()
        with self._lock:
            sessions = {
                sid: s.describe() for sid, s in self._sessions.items()
            }
            resident = [
                {
                    "circuit": key[0],
                    "scale": key[1],
                    "idle_s": max(0.0, time.monotonic() - e.last_used),
                }
                for key, e in self._resident.items()
            ]
            latency = {}
            for endpoint, bucket in self._latencies.items():
                values = sorted(bucket)
                latency[endpoint] = {
                    "count": self._request_counts.get(endpoint, 0),
                    "p50_ms": _quantile(values, 0.50) * 1e3,
                    "p99_ms": _quantile(values, 0.99) * 1e3,
                }
        requests = hits + misses
        return {
            "uptime_s": time.monotonic() - self._started,
            # Which process answered: the multi-worker front load-
            # balances one port across N workers, so stats are per
            # worker; the parent reconciles sidecars for the union.
            "worker": {"id": self.worker_id, "pid": os.getpid()},
            "cache": {
                "entries": len(self.cache),
                "capacity": self.cache.capacity,
                "approx_bytes": self.cache.approx_bytes,
                "budget_bytes": self.cache_budget_bytes,
                "hits": hits,
                "misses": misses,
                "evictions": evictions,
                "requests": requests,
                "hit_rate": hits / requests if requests else 0.0,
                "loaded_from_snapshot": self.loaded_entries,
                "snapshot_file": self.cache_file,
            },
            "sessions": sessions,
            "resident_circuits": resident,
            "requests": latency,
        }

    def flush(self) -> int:
        """Write the cache snapshot (atomic replace), returning the
        number of entries written; 0 when no ``cache_file`` is set.
        Serialized through one flush lock so the periodic flusher,
        SIGTERM drain, and atexit hook never interleave on one path
        (and each save's temp file is additionally unique per writer,
        so even an out-of-band ``cache.save`` cannot corrupt it).
        When a ``stats_sidecar`` is configured, the cache tallies ride
        along as a small JSON the frontend parent folds together via
        ``CacheStats.merge``."""
        if self.cache_file is None:
            return 0
        with self._flush_lock:
            saved = self.cache.save(self.cache_file)
            if self.stats_sidecar is not None:
                hits, misses, evictions = self.cache.stats.snapshot()
                payload = {
                    "worker_id": self.worker_id,
                    "pid": os.getpid(),
                    "entries": len(self.cache),
                    "hits": hits,
                    "misses": misses,
                    "evictions": evictions,
                }
                tmp = f"{self.stats_sidecar}.tmp.{os.getpid()}"
                try:
                    with open(tmp, "w") as fh:
                        json.dump(payload, fh)
                    os.replace(tmp, self.stats_sidecar)
                except OSError:  # pragma: no cover - disk full etc.
                    pass
            return saved


def _exists(path: str) -> bool:
    return os.path.exists(path)


def _load_circuit(name: str, scale: float):
    known = PAPER_SUITE + ["c17"]
    if name not in known:
        raise ServiceError(
            f"unknown circuit {name!r}; available: {known}"
        )
    try:
        return load(name, scale=float(scale))
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"bad circuit request: {exc}") from exc
