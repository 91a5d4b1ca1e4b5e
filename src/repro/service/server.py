"""JSON-over-HTTP front of the analysis service.

A deliberately thin, dependency-light request layer (stdlib
:class:`~http.server.HTTPServer` plus a fixed handler pool) over the
long-lived shared domain state in
:class:`~repro.service.state.ServiceState` — the Kalmukov
conference-management-system shape: requests are cheap adapters, all
interesting state lives one layer down and survives across requests.

Endpoints (all bodies JSON):

=======  =================  ==============================================
Method   Path               Action
=======  =================  ==============================================
GET      /health            liveness + versions
GET      /stats             cache/session/latency/overload aggregates
POST     /session           open a session ``{"config": {...}}`` -> id
POST     /session/close     close ``{"session": id}``
POST     /analyze           SSTA+STA ``{"circuit", "scale", ...}``
POST     /optimize          sizing run ``{"circuit", "iterations", ...}``
POST     /yield             yield queries ``{"circuit", "target", ...}``
POST     /flush             write the cache snapshot now
POST     /shutdown          graceful drain (responds, then stops serving)
=======  =================  ==============================================

Admission control (bounded by design, not by accident)
-------------------------------------------------------
The server never spawns a thread per request.  A **fixed pool** of
handler threads drains a **bounded work queue**; the accept loop's
only job is to enqueue the connection or — when the queue is full —
write an immediate ``503`` with a ``Retry-After`` hint and close.
Overload therefore degrades the service along exactly one axis:
*whether* a request is served.  Every accepted request runs the same
code a lone request would, so what an answer contains never depends
on load (the bitwise invariant the overload suite pins).  Queue
depth, rejection counts, and queue-wait percentiles are served by
``/stats`` under ``overload``.

Every request's wall-clock is recorded into the state's latency
window (the p50/p99 numbers served by /stats and recorded in
``BENCH_dist.json``'s ``service`` section).

Lifecycle: :func:`serve` wires warm-start (``cache_file``), a periodic
snapshot flusher, ``atexit`` flush, and SIGTERM/SIGINT drain.  The
drain is **truncation-free**: stop accepting, finish everything
already admitted (handler threads are tracked and joined under a
deadline — never abandoned mid-write the way daemonized
``ThreadingHTTPServer`` handlers were), then flush the snapshot and
exit 0.
"""

from __future__ import annotations

import atexit
import json
import queue
import signal
import socket
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import List, Optional, Tuple

from .. import __version__
from ..config import (
    DEFAULT_SERVICE_DRAIN_TIMEOUT_S,
    DEFAULT_SERVICE_HANDLER_THREADS,
    DEFAULT_SERVICE_QUEUE_DEPTH,
    DEFAULT_SERVICE_RETRY_AFTER_S,
)
from ..errors import ReproError, ServiceError
from .protocol import PROTOCOL_VERSION, overload_body
from .state import ServiceState, _quantile

__all__ = ["AnalysisServer", "OverloadStats", "start_server", "serve"]

#: Queue-wait samples kept for the /stats overload percentiles.
_QUEUE_WAIT_WINDOW = 8192

#: Pool-thread stop marker (placed on the work queue *behind* every
#: admitted request, so draining never drops accepted work).
_SENTINEL = object()


class OverloadStats:
    """Admission accounting for one server: accepted / rejected /
    completed tallies, the in-flight gauge, and a bounded window of
    queue-wait samples.  Thread-safe; mutated from the accept loop and
    every pool thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.accepted = 0
        self.rejected = 0
        self.completed = 0
        self.in_flight = 0
        self._waits: deque = deque(maxlen=_QUEUE_WAIT_WINDOW)

    def record_accepted(self) -> None:
        with self._lock:
            self.accepted += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_started(self, queue_wait_s: float) -> None:
        with self._lock:
            self.in_flight += 1
            self._waits.append(queue_wait_s)

    def record_completed(self) -> None:
        with self._lock:
            self.in_flight -= 1
            self.completed += 1

    def snapshot(self, *, queued: int, queue_limit: int,
                 handler_threads: int) -> dict:
        with self._lock:
            waits = sorted(self._waits)
            out = {
                "accepted": self.accepted,
                "rejected": self.rejected,
                "completed": self.completed,
                "in_flight": self.in_flight,
                "queued": queued,
                "queue_limit": queue_limit,
                "handler_threads": handler_threads,
                "queue_wait_p50_ms": 0.0,
                "queue_wait_p99_ms": 0.0,
            }
        if waits:
            out["queue_wait_p50_ms"] = _quantile(waits, 0.50) * 1e3
            out["queue_wait_p99_ms"] = _quantile(waits, 0.99) * 1e3
        return out


class AnalysisServer(HTTPServer):
    """HTTP server with bounded admission over one :class:`ServiceState`.

    ``handler_threads`` fixed pool threads drain a work queue bounded
    at ``queue_depth``; a request arriving with the queue full is
    answered ``503`` + ``Retry-After: retry_after_s`` straight from
    the accept loop (pre-execution by construction — rejected requests
    never touch domain state, which is what makes them safe for any
    client to retry).  ``sock`` lets the multi-worker front hand in an
    already-bound listening socket (``SO_REUSEPORT`` siblings).
    """

    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        state: ServiceState,
        *,
        quiet: bool = True,
        handler_threads: int = DEFAULT_SERVICE_HANDLER_THREADS,
        queue_depth: int = DEFAULT_SERVICE_QUEUE_DEPTH,
        retry_after_s: float = DEFAULT_SERVICE_RETRY_AFTER_S,
        sock: Optional[socket.socket] = None,
    ) -> None:
        if handler_threads < 1:
            raise ServiceError(
                f"handler_threads must be >= 1, got {handler_threads}"
            )
        if queue_depth < 1:
            raise ServiceError(
                f"queue_depth must be >= 1, got {queue_depth}"
            )
        self.state = state
        self.quiet = quiet
        self.handler_threads = int(handler_threads)
        self.queue_depth = int(queue_depth)
        self.retry_after_s = float(retry_after_s)
        self.overload = OverloadStats()
        self._work: "queue.Queue" = queue.Queue(maxsize=self.queue_depth)
        self._drain_lock = threading.Lock()
        self._drained = False
        self._drain_clean = True
        self._serving = False
        # Created empty BEFORE the bind: a bind failure inside
        # super().__init__ triggers socketserver's server_close(),
        # which runs our drain() — it must find a (empty) pool, not
        # an AttributeError shadowing the real OSError.
        self._pool: List[threading.Thread] = []
        if sock is None:
            super().__init__(address, _Handler)
        else:
            # Adopt a pre-bound, already-listening socket (the
            # pre-fork front binds per worker with SO_REUSEPORT).
            super().__init__(address, _Handler, bind_and_activate=False)
            self.socket.close()
            self.socket = sock
            host = self.socket.getsockname()
            self.server_address = host
            self.server_name = socket.getfqdn(host[0])
            self.server_port = host[1]
        # Pool threads are daemonic so a wedged handler can never pin
        # process exit past the drain deadline; the graceful path
        # joins them explicitly before the final flush.
        self._pool = [
            threading.Thread(
                target=self._handler_loop,
                name=f"svc-handler-{i}",
                daemon=True,
            )
            for i in range(self.handler_threads)
        ]  # populated only once the socket is live (see above)
        for t in self._pool:
            t.start()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    # Admission (runs on the accept-loop thread)
    # ------------------------------------------------------------------
    def process_request(self, request, client_address) -> None:
        try:
            self._work.put_nowait(
                (request, client_address, time.perf_counter())
            )
        except queue.Full:
            self._reject_overloaded(request)
        else:
            self.overload.record_accepted()

    def _reject_overloaded(self, request) -> None:
        """Immediate 503 + Retry-After, written straight to the socket
        without *parsing* the request (bytes are drained and discarded,
        so nothing about the request can influence the answer)."""
        self.overload.record_rejected()
        body = json.dumps(overload_body(self.retry_after_s)).encode("utf-8")
        head = (
            "HTTP/1.1 503 Service Unavailable\r\n"
            f"Retry-After: {self.retry_after_s:g}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        try:
            # Drain what the client already sent before answering:
            # closing a socket with unread received bytes turns into a
            # RST that can destroy the 503 before the client reads it.
            # Bounded so a drip-feeding client cannot pin the accept
            # loop; requests here are a few hundred bytes, one pass.
            request.settimeout(0.1)
            while True:
                chunk = request.recv(65536)
                if not chunk or len(chunk) < 65536:
                    break
        except OSError:
            pass
        try:
            request.settimeout(1.0)
            request.sendall(head + body)
        except OSError:  # pragma: no cover - client already gone
            pass
        finally:
            self.shutdown_request(request)

    # ------------------------------------------------------------------
    # Handler pool
    # ------------------------------------------------------------------
    def _handler_loop(self) -> None:
        while True:
            item = self._work.get()
            if item is _SENTINEL:
                return
            request, client_address, enqueued = item
            self.overload.record_started(time.perf_counter() - enqueued)
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
                self.overload.record_completed()

    def handle_error(self, request, client_address):  # pragma: no cover
        if not self.quiet:
            super().handle_error(request, client_address)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        try:
            super().serve_forever(poll_interval)
        finally:
            self._serving = False

    # ------------------------------------------------------------------
    # Graceful drain
    # ------------------------------------------------------------------
    def drain(
        self, timeout_s: float = DEFAULT_SERVICE_DRAIN_TIMEOUT_S
    ) -> bool:
        """Stop accepting, finish everything admitted, stop the pool.

        Every queued request is handled before the pool threads see
        their stop sentinels (FIFO order), and in-flight handlers are
        *joined* — with ``timeout_s`` as the deadline — so a response
        mid-write is never truncated by the final flush or process
        exit.  Idempotent; concurrent callers serialize and the late
        ones return the first drain's verdict.  Returns True when
        every pool thread exited within the deadline.
        """
        with self._drain_lock:
            if self._drained:
                return self._drain_clean
            if self._serving:
                self.shutdown()  # blocks until serve_forever returns
            # Sentinels queue FIFO behind all admitted work; a full
            # queue just makes the puts wait for handler progress.
            for _ in self._pool:
                self._work.put(_SENTINEL)
            deadline = time.monotonic() + float(timeout_s)
            clean = True
            for t in self._pool:
                t.join(max(0.0, deadline - time.monotonic()))
                clean = clean and not t.is_alive()
            self._drained = True
            self._drain_clean = clean
            return clean

    def server_close(self) -> None:
        # Closing without an explicit drain (unit-test fixtures) still
        # stops the pool; anything already admitted is finished first.
        self.drain()
        super().server_close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def overload_snapshot(self) -> dict:
        return self.overload.snapshot(
            queued=self._work.qsize(),
            queue_limit=self.queue_depth,
            handler_threads=self.handler_threads,
        )


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-ssta-service/{__version__}"
    protocol_version = "HTTP/1.1"
    #: With a fixed pool, an idle keep-alive connection is thread
    #: starvation; bound how long one may hold a handler.
    timeout = 30.0

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, fmt, *args):  # pragma: no cover - log noise
        if not getattr(self.server, "quiet", True):
            super().log_message(fmt, *args)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        body = self.rfile.read(length)
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        return payload

    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        state: ServiceState = self.server.state
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        t0 = time.perf_counter()
        # The latency sample must be recorded *before* the reply bytes
        # leave: a client that receives its response and immediately
        # asks /stats must observe the request it just made (the
        # stats-reports-latency contract).  Handling therefore splits
        # into compute (timed) and send (after the record).
        try:
            handler = _ROUTES.get((method, path))
            if handler is None:
                reply = (
                    {"error": f"no such endpoint: {method} {path}"}, 404
                )
            else:
                payload = self._read_json() if method == "POST" else {}
                reply = (handler(self, state, payload), 200)
        except ServiceError as exc:
            reply = ({"error": str(exc)}, 400)
        except ReproError as exc:
            # A domain error (bad netlist, sizing failure): the
            # request was understood but the analysis failed.
            reply = ({"error": f"{type(exc).__name__}: {exc}"}, 422)
        except Exception as exc:  # pragma: no cover - defensive
            reply = (
                {"error": f"internal error: {type(exc).__name__}: {exc}"},
                500,
            )
        state.record_latency(f"{method} {path}",
                             time.perf_counter() - t0)
        body, status = reply
        self._send_json(body, status=status)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")


# ----------------------------------------------------------------------
# Routes (thin adapters; the domain logic lives in ServiceState)
# ----------------------------------------------------------------------

def _route_health(handler, state: ServiceState, payload: dict) -> dict:
    return {
        "status": "ok",
        "version": __version__,
        "protocol": PROTOCOL_VERSION,
    }


def _route_stats(handler, state: ServiceState, payload: dict) -> dict:
    out = state.stats()
    out["overload"] = handler.server.overload_snapshot()
    return out


def _route_session_open(handler, state, payload: dict) -> dict:
    return {"session": state.open_session(payload.get("config"))}


def _route_session_close(handler, state, payload: dict) -> dict:
    session = payload.get("session")
    if not session:
        raise ServiceError("'session' is required")
    return {"closed": session, "summary": state.close_session(session)}


def _require_circuit(payload: dict) -> str:
    circuit = payload.get("circuit")
    if not isinstance(circuit, str) or not circuit:
        raise ServiceError("'circuit' (a benchmark name) is required")
    return circuit


def _route_analyze(handler, state: ServiceState, payload: dict) -> dict:
    kwargs = {}
    if payload.get("percentiles") is not None:
        kwargs["percentiles"] = payload["percentiles"]
    return state.analyze(
        _require_circuit(payload),
        scale=payload.get("scale", 1.0),
        session_id=payload.get("session"),
        config_overrides=payload.get("config"),
        **kwargs,
    )


def _route_optimize(handler, state: ServiceState, payload: dict) -> dict:
    return state.optimize(
        _require_circuit(payload),
        iterations=payload.get("iterations", 25),
        scale=payload.get("scale", 1.0),
        sizer=payload.get("sizer", "pruned"),
        session_id=payload.get("session"),
        config_overrides=payload.get("config"),
    )


def _route_yield(handler, state: ServiceState, payload: dict) -> dict:
    return state.yield_query(
        _require_circuit(payload),
        scale=payload.get("scale", 1.0),
        target=payload.get("target"),
        n_points=payload.get("n_points", 12),
        session_id=payload.get("session"),
        config_overrides=payload.get("config"),
    )


def _route_flush(handler, state: ServiceState, payload: dict) -> dict:
    return {"entries_saved": state.flush(), "file": state.cache_file}


def _route_shutdown(handler, state: ServiceState, payload: dict) -> dict:
    server: AnalysisServer = handler.server
    # drain() joins the pool thread running this very handler, so it
    # must run off-thread; the response goes out first either way
    # (this handler finishes before its thread consumes a sentinel).
    threading.Thread(target=server.drain, daemon=True).start()
    return {"shutting_down": True, "entries_saved": state.flush()}


_ROUTES = {
    ("GET", "/health"): _route_health,
    ("GET", "/stats"): _route_stats,
    ("POST", "/session"): _route_session_open,
    ("POST", "/session/close"): _route_session_close,
    ("POST", "/analyze"): _route_analyze,
    ("POST", "/optimize"): _route_optimize,
    ("POST", "/yield"): _route_yield,
    ("POST", "/flush"): _route_flush,
    ("POST", "/shutdown"): _route_shutdown,
}


# ----------------------------------------------------------------------
# Lifecycle helpers
# ----------------------------------------------------------------------

def start_server(
    state: ServiceState,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    quiet: bool = True,
    handler_threads: int = DEFAULT_SERVICE_HANDLER_THREADS,
    queue_depth: int = DEFAULT_SERVICE_QUEUE_DEPTH,
    retry_after_s: float = DEFAULT_SERVICE_RETRY_AFTER_S,
    sock: Optional[socket.socket] = None,
) -> AnalysisServer:
    """Bind an :class:`AnalysisServer` (port 0 picks a free port).
    The caller drives ``serve_forever`` — tests and the benchmark run
    it on a background thread; the CLI runs it in the main thread."""
    return AnalysisServer(
        (host, port),
        state,
        quiet=quiet,
        handler_threads=handler_threads,
        queue_depth=queue_depth,
        retry_after_s=retry_after_s,
        sock=sock,
    )


class _PeriodicFlusher(threading.Thread):
    """Background snapshot writer: flush every ``interval_s`` seconds
    until stopped (the final flush at shutdown is the server's).  Both
    paths serialize through ``ServiceState.flush``'s one flush lock,
    and each save writes through a per-writer temp file, so a periodic
    flush racing the drain flush can never corrupt the snapshot."""

    def __init__(self, state: ServiceState, interval_s: float) -> None:
        super().__init__(name="cache-flusher", daemon=True)
        self.state = state
        self.interval_s = interval_s
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.state.flush()
            except Exception:  # pragma: no cover - disk-full etc.
                # A failed periodic flush must not kill the server;
                # the exit flush will retry (and surface) the error.
                pass

    def stop(self) -> None:
        self._stop.set()


def serve(
    state: ServiceState,
    host: str = "127.0.0.1",
    port: int = 8731,
    *,
    flush_interval_s: Optional[float] = 300.0,
    quiet: bool = True,
    ready_callback=None,
    handler_threads: int = DEFAULT_SERVICE_HANDLER_THREADS,
    queue_depth: int = DEFAULT_SERVICE_QUEUE_DEPTH,
    retry_after_s: float = DEFAULT_SERVICE_RETRY_AFTER_S,
    drain_timeout_s: float = DEFAULT_SERVICE_DRAIN_TIMEOUT_S,
    server: Optional[AnalysisServer] = None,
) -> int:
    """Run the service until SIGTERM/SIGINT, with snapshot lifecycle.

    Blocks in ``serve_forever``.  On signal: stop accepting work, let
    in-flight requests finish (joined under ``drain_timeout_s``),
    flush the snapshot, return 0.  ``ready_callback(server)`` fires
    after binding (the CLI prints the resolved URL there, which is how
    ``--port 0`` callers learn the port).  ``server`` accepts a
    pre-built :class:`AnalysisServer` (the multi-worker front passes
    one wrapping its SO_REUSEPORT socket).
    """
    if server is None:
        server = start_server(
            state, host, port, quiet=quiet,
            handler_threads=handler_threads, queue_depth=queue_depth,
            retry_after_s=retry_after_s,
        )
    flusher = None
    if state.cache_file is not None and flush_interval_s:
        flusher = _PeriodicFlusher(state, float(flush_interval_s))
        flusher.start()
    # The exit flush runs however the process ends; flush() is
    # idempotent and internally serialized.
    atexit.register(state.flush)

    def _drain(signum, frame):  # pragma: no cover - signal timing
        threading.Thread(
            target=server.drain, args=(drain_timeout_s,), daemon=True
        ).start()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _drain)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    try:
        if ready_callback is not None:
            ready_callback(server)
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:  # pragma: no cover - ^C without handler
        pass
    finally:
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except ValueError:  # pragma: no cover
                pass
        if flusher is not None:
            flusher.stop()
        # Wait for the in-flight handlers (idempotent when the signal
        # thread already drained): no response may be cut off by the
        # flush or the process exit below.
        server.drain(drain_timeout_s)
        server.server_close()
        state.flush()
    return 0
