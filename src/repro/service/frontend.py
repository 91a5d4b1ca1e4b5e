"""Pre-fork multi-worker front for the analysis service.

One listening port, N worker **processes**: the front binds
``SO_REUSEPORT`` sockets — one per worker, all on the same address —
and lets the kernel balance incoming connections across them.  Each
worker is a complete single-process service (its own
:class:`~repro.service.state.ServiceState`, its own bounded-admission
:class:`~repro.service.server.AnalysisServer`), so a worker crash
takes out only its in-flight requests and the parent respawns it;
nothing is shared mutably between workers at request time.

What *is* shared is warm state, reconciled through the existing
snapshot machinery rather than through locks:

* **Snapshot reconciliation.**  Worker ``i`` flushes its cache to its
  own file ``{base}.w{i}`` (atomic per-writer temp + rename) but
  *seeds* from the shared ``{base}`` on first boot.  A parent-side
  reconciler periodically folds ``{base}`` plus every worker file back
  into ``{base}`` via :meth:`ConvolutionCache.merge_snapshots` — so a
  respawned (or newly added) worker warm-starts from the union of its
  predecessors' work.  Entries are content-keyed and hits replay
  bitwise, so merge order cannot change any answer, only cost.
* **Stats reconciliation.**  Each worker's flush writes a tiny JSON
  sidecar of its cache tallies; the parent folds them with
  :meth:`CacheStats.merge` into ``{base}.stats.json`` — the
  aggregate hit-rate the benchmark's ``service`` rows record.

The front changes *where* a request runs, never *what* it returns:
every admitted request executes the same serial code path a lone local
run would (the bitwise invariant pinned by the frontend suite).

``SO_REUSEPORT`` is Linux/BSD; :func:`reuseport_available` probes for
it and the CLI falls back to the single-process server elsewhere.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing as mp
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config import (
    AnalysisConfig,
    DEFAULT_CONFIG,
    DEFAULT_SERVICE_DRAIN_TIMEOUT_S,
    DEFAULT_SERVICE_HANDLER_THREADS,
    DEFAULT_SERVICE_QUEUE_DEPTH,
    DEFAULT_SERVICE_RETRY_AFTER_S,
    DEFAULT_SERVICE_WORKERS,
)
from ..dist.cache import CacheStats, ConvolutionCache, DEFAULT_CACHE_CAPACITY
from ..errors import ServiceError

__all__ = [
    "ServiceFrontend",
    "WorkerSpec",
    "reuseport_available",
    "worker_cache_file",
    "worker_stats_sidecar",
    "merged_stats_file",
]

#: How often the parent folds worker snapshots back into the base.
DEFAULT_RECONCILE_INTERVAL_S = 30.0

#: Automatic respawns allowed per worker slot before the slot is
#: declared dead (a crash-looping worker must not melt the host).
DEFAULT_RESPAWN_LIMIT = 3


def worker_cache_file(base: str, index: int) -> str:
    """Worker ``index``'s private snapshot path beside the shared one."""
    return f"{base}.w{index}"


def worker_stats_sidecar(base: str, index: int) -> str:
    """Worker ``index``'s cache-tally sidecar path."""
    return f"{base}.stats.w{index}.json"


def merged_stats_file(base: str) -> str:
    """The parent's reconciled aggregate of all worker sidecars."""
    return f"{base}.stats.json"


def reuseport_available(host: str = "127.0.0.1") -> bool:
    """Probe whether two sockets can actually share one TCP port via
    ``SO_REUSEPORT`` (the constant existing is not enough — some
    kernels define it and refuse it)."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    first = second = None
    try:
        first = _bind_reuseport(host, 0, listen=False)
        port = first.getsockname()[1]
        second = _bind_reuseport(host, port, listen=False)
        return True
    except OSError:
        return False
    finally:
        for sock in (first, second):
            if sock is not None:
                sock.close()


def _bind_reuseport(host: str, port: int, *, listen: bool) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen:
            sock.listen(128)
    except OSError:
        sock.close()
        raise
    return sock


@dataclass
class WorkerSpec:
    """Everything a worker process needs to run its service — plain
    picklable data, shipped through the ``spawn`` start method (no
    state object crosses the fork; each worker builds its own)."""

    config: AnalysisConfig = DEFAULT_CONFIG
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    #: The *shared* snapshot path; workers derive their private
    #: ``{base}.w{i}`` / sidecar paths from it.  None disables
    #: persistence and reconciliation both.
    cache_file: Optional[str] = None
    cache_budget_bytes: Optional[int] = None
    ttl_s: float = 3600.0
    session_ttl_s: float = 3600.0
    max_resident: int = 32
    handler_threads: int = DEFAULT_SERVICE_HANDLER_THREADS
    queue_depth: int = DEFAULT_SERVICE_QUEUE_DEPTH
    retry_after_s: float = DEFAULT_SERVICE_RETRY_AFTER_S
    drain_timeout_s: float = DEFAULT_SERVICE_DRAIN_TIMEOUT_S
    flush_interval_s: Optional[float] = 300.0
    quiet: bool = True

    def __post_init__(self) -> None:
        # The state cannot pickle a live cache across spawn; the spec
        # must carry the capacity knob only.
        if self.config.cache is not None:
            self.config = self.config.with_updates(cache=None)
        if self.cache_file is not None:
            self.cache_file = os.fspath(self.cache_file)


def _worker_main(index: int, host: str, port: int, spec: WorkerSpec,
                 ready_event=None) -> None:
    """One worker process: bind an SO_REUSEPORT sibling socket, build
    the full single-process service on it, serve until signalled.

    Runs as the child's main function under ``spawn``, so
    :func:`~repro.service.server.serve` installs its SIGTERM/SIGINT
    drain handlers normally — a terminated worker finishes admitted
    work, flushes its own snapshot + sidecar, and exits 0.
    """
    # Late imports keep the module importable (and the spec picklable)
    # without dragging the whole service stack into the parent before
    # it is needed.
    from .server import AnalysisServer, serve
    from .state import ServiceState

    sock = _bind_reuseport(host, port, listen=True)
    state = ServiceState(
        config=spec.config,
        cache=spec.cache_capacity,
        cache_file=(
            worker_cache_file(spec.cache_file, index)
            if spec.cache_file else None
        ),
        seed_file=spec.cache_file,
        stats_sidecar=(
            worker_stats_sidecar(spec.cache_file, index)
            if spec.cache_file else None
        ),
        worker_id=index,
        ttl_s=spec.ttl_s,
        session_ttl_s=spec.session_ttl_s,
        max_resident=spec.max_resident,
        cache_budget_bytes=spec.cache_budget_bytes,
    )
    server = AnalysisServer(
        (host, port),
        state,
        quiet=spec.quiet,
        handler_threads=spec.handler_threads,
        queue_depth=spec.queue_depth,
        retry_after_s=spec.retry_after_s,
        sock=sock,
    )

    def _ready(_server) -> None:
        if ready_event is not None:
            ready_event.set()

    serve(
        state,
        host,
        port,
        flush_interval_s=spec.flush_interval_s,
        quiet=spec.quiet,
        ready_callback=_ready,
        drain_timeout_s=spec.drain_timeout_s,
        server=server,
    )


class ServiceFrontend:
    """Parent of the pre-fork service: owns the port, the workers,
    and the snapshot reconciler.

    ``start()`` / ``stop()`` bracket the front for tests and
    embedders; ``run()`` is the blocking CLI entry (start, wait for
    SIGTERM/SIGINT, stop).  ``port=0`` picks a free port — the parent
    reserves it with its own non-listening ``SO_REUSEPORT`` bind, so
    the port survives even a moment with zero live workers.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = DEFAULT_SERVICE_WORKERS,
        reconcile_interval_s: float = DEFAULT_RECONCILE_INTERVAL_S,
        respawn_limit: int = DEFAULT_RESPAWN_LIMIT,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        self.spec = spec
        self.host = host
        self.requested_port = int(port)
        self.port: Optional[int] = None
        self.workers = int(workers)
        self.reconcile_interval_s = float(reconcile_interval_s)
        self.respawn_limit = int(respawn_limit)
        self.respawns: Dict[int, int] = {i: 0 for i in range(self.workers)}
        self._ctx = mp.get_context("spawn")
        self._procs: List = [None] * self.workers
        self._ready: List = [None] * self.workers
        self._guard: Optional[socket.socket] = None
        self._stopping = threading.Event()
        self._shutdown_requested = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._reconciler: Optional[threading.Thread] = None
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        if self.port is None:
            raise ServiceError("frontend is not started")
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceFrontend":
        if self._started:
            raise ServiceError("frontend already started")
        self._check_snapshots()
        if not reuseport_available(self.host):
            raise ServiceError(
                "SO_REUSEPORT is unavailable on this host; "
                "run the single-process server (--workers 1) instead"
            )
        # The guard socket is bound but never listens: it reserves the
        # port (and resolves port 0) without ever receiving a
        # connection — the kernel balances only across *listening*
        # REUSEPORT siblings, i.e. the workers.
        self._guard = _bind_reuseport(
            self.host, self.requested_port, listen=False
        )
        self.port = self._guard.getsockname()[1]
        self._started = True
        for i in range(self.workers):
            self._spawn(i)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="svc-front-monitor", daemon=True
        )
        self._monitor.start()
        if self.spec.cache_file is not None:
            self._reconciler = threading.Thread(
                target=self._reconcile_loop,
                name="svc-front-reconciler",
                daemon=True,
            )
            self._reconciler.start()
        # Orphaned worker processes outlive a crashed parent as load
        # with no supervisor; best-effort sweep on interpreter exit.
        atexit.register(self.stop)
        return self

    def _check_snapshots(self) -> None:
        """Load every snapshot a worker will boot from, so a stale or
        corrupt file fails here with its typed
        :class:`~repro.errors.DistributionError` instead of crashing
        every worker at boot and exhausting its respawns.

        Worker ``i`` boots from ``{base}.w{i}`` when it exists and
        from the shared base otherwise, so the base is checked only
        when some worker file is missing.  A base no worker reads
        needs no check: reconciliation skips an unreadable input and
        overwrites the base with the workers' union.
        """
        base = self.spec.cache_file
        if base is None:
            return
        boots = []
        for i in range(self.workers):
            own = worker_cache_file(base, i)
            path = own if os.path.exists(own) else base
            if path not in boots and os.path.exists(path):
                boots.append(path)
        for path in boots:
            ConvolutionCache.load(path)

    def _spawn(self, index: int) -> None:
        if self._stopping.is_set():
            return
        event = self._ctx.Event()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(index, self.host, self.port, self.spec, event),
            name=f"svc-worker-{index}",
            daemon=False,
        )
        proc.start()
        self._procs[index] = proc
        self._ready[index] = event

    def wait_until_ready(self, timeout_s: float = 60.0) -> bool:
        """Block until every worker's server is bound and serving (its
        ready callback fired), or the deadline passes."""
        deadline = time.monotonic() + float(timeout_s)
        for event in list(self._ready):
            if event is None:
                return False
            if not event.wait(max(0.0, deadline - time.monotonic())):
                return False
        return True

    def live_workers(self) -> int:
        return sum(
            1 for p in self._procs if p is not None and p.is_alive()
        )

    def stop(self, timeout_s: Optional[float] = None) -> bool:
        """SIGTERM every worker (graceful drain), join under a
        deadline, escalate to SIGKILL for stragglers, reconcile the
        snapshots one last time.  Returns True when every worker
        drained and exited cleanly within the deadline.  Idempotent.
        """
        if not self._started or self._stopped:
            return True
        self._stopping.set()
        # Park the monitor *before* terminating, so it cannot respawn
        # a worker into the shutdown.
        if self._monitor is not None:
            self._monitor.join(5.0)
        if timeout_s is None:
            # Workers drain admitted work before exiting; give them
            # the drain budget plus scheduling margin.
            timeout_s = self.spec.drain_timeout_s + 10.0
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()  # SIGTERM -> worker drain path
        deadline = time.monotonic() + float(timeout_s)
        clean = True
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():  # pragma: no cover - wedged worker
                clean = False
                proc.kill()
                proc.join(5.0)
            elif proc.exitcode not in (0, -signal.SIGTERM):
                clean = False
        self._stopped = True
        if self._reconciler is not None:
            self._reconciler.join(5.0)
        try:
            self.reconcile()
        except OSError:  # pragma: no cover - disk trouble at exit
            clean = False
        if self._guard is not None:
            self._guard.close()
            self._guard = None
        return clean

    def run(self) -> int:
        """Blocking CLI entry: start, supervise until SIGTERM/SIGINT
        (or until every worker slot is permanently dead), stop."""
        if not self._started:
            self.start()

        def _request_shutdown(signum, frame):  # pragma: no cover
            self._shutdown_requested.set()

        previous = {}
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[sig] = signal.signal(sig, _request_shutdown)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        try:
            while not self._shutdown_requested.wait(0.25):
                if self.live_workers() == 0 and all(
                    self.respawns[i] >= self.respawn_limit
                    for i in range(self.workers)
                ):  # pragma: no cover - crash-loop exhaustion
                    self.stop()
                    return 1
        except KeyboardInterrupt:  # pragma: no cover - ^C race
            pass
        finally:
            for sig, old in previous.items():
                try:
                    signal.signal(sig, old)
                except ValueError:  # pragma: no cover
                    pass
        return 0 if self.stop() else 1

    # ------------------------------------------------------------------
    # Supervision + reconciliation
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stopping.wait(0.25):
            for i, proc in enumerate(self._procs):
                if proc is None or proc.is_alive():
                    continue
                if self._stopping.is_set():
                    break
                if self.respawns[i] >= self.respawn_limit:
                    continue  # slot exhausted; leave it down
                self.respawns[i] += 1
                self._spawn(i)

    def _reconcile_loop(self) -> None:
        while not self._stopping.wait(self.reconcile_interval_s):
            try:
                self.reconcile()
            except OSError:  # pragma: no cover - transient disk issue
                pass

    def reconcile(self) -> dict:
        """Fold worker snapshots + stat sidecars into the shared base.

        Merge order puts the base first and workers after, so a
        worker's fresher LRU position wins; content-keyed entries make
        the result order-insensitive in *value* — reconciliation can
        change hit rates, never answers.  Returns a summary dict (the
        ``service.reconcile`` row of the benchmark).
        """
        base = self.spec.cache_file
        if base is None:
            return {"entries": 0, "workers": 0}
        paths = [base] + [
            worker_cache_file(base, i) for i in range(self.workers)
        ]
        entries = ConvolutionCache.merge_snapshots(
            [p for p in paths if os.path.exists(p)],
            base,
            capacity=self.spec.cache_capacity,
        )
        total = CacheStats()
        per_worker = []
        for i in range(self.workers):
            sidecar = worker_stats_sidecar(base, i)
            try:
                with open(sidecar) as fh:
                    payload = json.load(fh)
            except (OSError, ValueError):
                continue
            total.merge(CacheStats(
                hits=int(payload.get("hits", 0)),
                misses=int(payload.get("misses", 0)),
                evictions=int(payload.get("evictions", 0)),
            ))
            per_worker.append(payload)
        hits, misses, evictions = total.snapshot()
        summary = {
            "entries": entries,
            "workers": len(per_worker),
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": total.hit_rate,
        }
        out = merged_stats_file(base)
        tmp = f"{out}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w") as fh:
                json.dump(dict(summary, per_worker=per_worker), fh)
            os.replace(tmp, out)
        except OSError:  # pragma: no cover - disk trouble
            pass
        return summary
