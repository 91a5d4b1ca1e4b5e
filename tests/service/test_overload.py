"""Bounded admission under saturation, and the graceful-drain
truncation regression.

The contract these tests pin: overload changes *whether* a request is
served, never *what* an answer contains.

* A saturated queue rejects fast — straight from the accept loop with
  ``503`` + ``Retry-After``, long before a handler would have touched
  the request — so rejection latency is bounded by accept-loop work,
  not by whatever slow request is wedging the handlers.
* Every *accepted* request completes with a bitwise-correct answer,
  including the ones still queued when a drain begins (regression:
  daemonized per-request threads used to be killed mid-write by the
  final flush, truncating responses).
* ``/stats``'s ``overload`` section agrees exactly with what clients
  observed from the outside.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.dist.cache import ConvolutionCache
from repro.errors import ServiceError, ServiceOverloadedError
from repro.netlist.benchmarks import load
from repro.service import ServiceClient, ServiceState, start_server
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.ssta import run_ssta

FAST = AnalysisConfig(dt=8.0, delta_w=1.0)


def _local_sink(name, scale=1.0):
    cfg = FAST.with_updates(cache=None)
    circuit = load(name, scale=scale)
    return run_ssta(
        TimingGraph(circuit), DelayModel(circuit, config=cfg), config=cfg
    ).sink_pdf


def _slow_state(delay_s: float, gate: threading.Event = None):
    """A state whose /analyze handler stalls — the saturation fixture.
    The sleep happens INSIDE the domain call, i.e. on a pool thread
    after admission; the accept loop stays free to reject."""
    state = ServiceState(config=FAST, cache=32768)
    real = state.analyze

    def slow_analyze(*args, **kwargs):
        if gate is not None:
            gate.wait(timeout=30)
        else:
            time.sleep(delay_s)
        return real(*args, **kwargs)

    state.analyze = slow_analyze
    return state


def _serve(state, **kwargs):
    server = start_server(state, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


class TestSaturation:
    def test_queue_full_rejects_fast_and_admitted_stay_bitwise(self):
        """The acceptance scenario in one piece: saturate a 1-thread /
        1-slot server with 8 concurrent requests; exactly the admitted
        ones answer (bitwise-correct), the rest get fast 503s, and
        /stats agrees with the client-observed outcome counts."""
        gate = threading.Event()
        state = _slow_state(0.0, gate=gate)
        server, thread = _serve(
            state, handler_threads=1, queue_depth=1, retry_after_s=0.25
        )
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def request(idx):
            client = ServiceClient(server.url, max_retries=0)
            barrier.wait(timeout=30)
            t0 = time.perf_counter()
            try:
                rep = client.analyze("c17")
                with lock:
                    outcomes.append(("ok", rep, None))
            except ServiceOverloadedError as exc:
                elapsed = time.perf_counter() - t0
                with lock:
                    outcomes.append(("rejected", elapsed, exc))

        try:
            threads = [
                threading.Thread(target=request, args=(i,))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            # Hold the gate until every rejection has landed: at most
            # 2 of 8 can be admitted (1 in-flight + 1 queued), so 6
            # rejections arriving while the handler is provably wedged
            # demonstrates pre-execution rejection by ordering, not by
            # a timing guess.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with lock:
                    if len(outcomes) >= 6:
                        break
                time.sleep(0.01)
            gate.set()
            for t in threads:
                t.join(timeout=60)
            assert len(outcomes) == 8

            oks = [o for o in outcomes if o[0] == "ok"]
            rejected = [o for o in outcomes if o[0] == "rejected"]
            # 1 in-flight + 1 queued admitted; the rest turned away.
            assert len(oks) >= 1
            assert len(rejected) >= 5
            assert len(oks) + len(rejected) == 8

            # (1) Rejections are pre-execution fast: all six returned
            # while the lone handler was still wedged on the gate (the
            # gate only opened after they landed), and each carries
            # the Retry-After hint.  The latency bound is loose — it
            # covers serialized accept-loop work on a loaded CI box —
            # but far under the 30 s the wedged handler would cost.
            waits = sorted(o[1] for o in rejected)
            p99 = waits[min(len(waits) - 1,
                            int(round(0.99 * (len(waits) - 1))))]
            assert p99 < 5.0, f"rejections waited on handlers: {waits}"
            for _, _, exc in rejected:
                assert exc.retry_after_s == 0.25

            # (2) Every admitted answer is bitwise the serial local one.
            local = _local_sink("c17")
            for _, rep, _ in oks:
                assert rep.sink.dt == local.dt
                assert rep.sink.offset == local.offset
                assert np.array_equal(
                    np.asarray(rep.sink.masses), np.asarray(local.masses)
                )

            # (3) The server's ledger matches the clients' outcomes:
            # zero dropped accepted requests.
            stats = ServiceClient(server.url).stats()
            overload = stats["overload"]
            assert overload["rejected"] == len(rejected)
            # accepted = the analyze successes + this /stats request.
            assert overload["accepted"] == len(oks) + 1
            assert overload["completed"] == len(oks)
            assert overload["in_flight"] == 1  # the /stats request
            assert overload["queued"] == 0
            assert overload["queue_limit"] == 1
            assert overload["handler_threads"] == 1
            assert overload["queue_wait_p99_ms"] >= \
                overload["queue_wait_p50_ms"] >= 0.0
        finally:
            gate.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_rejection_is_pre_execution_raw_503(self):
        """A rejected request never reaches a handler: the 503 arrives
        with Retry-After while the only handler thread is provably
        wedged, and the body carries the machine-readable marker."""
        gate = threading.Event()
        state = _slow_state(0.0, gate=gate)
        server, thread = _serve(
            state, handler_threads=1, queue_depth=1, retry_after_s=2.5
        )
        try:
            hold = []

            def wedge():
                try:
                    hold.append(ServiceClient(server.url).analyze("c17"))
                except ServiceError:  # pragma: no cover
                    pass

            wedgers = [threading.Thread(target=wedge) for _ in range(2)]
            for w in wedgers:
                w.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if server.overload_snapshot()["accepted"] >= 2:
                    break
                time.sleep(0.01)

            req = urllib.request.Request(
                server.url + "/analyze",
                data=json.dumps({"circuit": "c17"}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req, timeout=10)
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "2.5"
            body = json.loads(excinfo.value.read())
            assert body["overloaded"] is True
            assert body["retry_after_s"] == 2.5
            gate.set()
            for w in wedgers:
                w.join(timeout=30)
        finally:
            gate.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_no_thread_growth_under_load(self):
        """The fixed pool IS the concurrency: hammering the server
        does not spawn request threads (the ThreadingHTTPServer
        failure mode this PR removes)."""
        state = ServiceState(config=FAST, cache=32768)
        server, thread = _serve(state, handler_threads=2, queue_depth=4)
        try:
            client = ServiceClient(server.url)
            client.analyze("c17")
            before = threading.active_count()
            workers = [
                threading.Thread(
                    target=lambda: ServiceClient(server.url).analyze("c17")
                )
                for _ in range(12)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            after = threading.active_count()
            # Our own 12 client threads came and went; the server side
            # added nothing (pool threads existed before the load).
            assert after <= before + 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_client_retry_survives_saturation_end_to_end(self):
        """A client with a retry budget rides out a transient
        saturation spike: its 503s turn into jittered waits and the
        request eventually lands, bitwise-correct."""
        gate = threading.Event()
        state = _slow_state(0.0, gate=gate)
        server, thread = _serve(
            state, handler_threads=1, queue_depth=1, retry_after_s=0.2
        )
        try:
            wedgers = [
                threading.Thread(
                    target=lambda: ServiceClient(server.url).analyze("c17")
                )
                for _ in range(2)
            ]
            for w in wedgers:
                w.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if server.overload_snapshot()["accepted"] >= 2:
                    break
                time.sleep(0.01)
            # Open the gate shortly after the retrying client's first
            # rejection, so a retry finds a free slot.
            threading.Timer(0.3, gate.set).start()
            client = ServiceClient(
                server.url, max_retries=8, total_deadline_s=60.0
            )
            rep = client.analyze("c17")
            assert client.retries_performed >= 1
            local = _local_sink("c17")
            assert np.array_equal(
                np.asarray(rep.sink.masses), np.asarray(local.masses)
            )
            for w in wedgers:
                w.join(timeout=30)
        finally:
            gate.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class TestDrainTruncation:
    def test_drain_completes_inflight_and_queued_responses(self):
        """Regression: a drain beginning while requests are in flight
        (and queued) must deliver every admitted response complete —
        the old daemon-thread server truncated them mid-write."""
        gate = threading.Event()
        state = _slow_state(0.0, gate=gate)
        server, thread = _serve(state, handler_threads=1, queue_depth=4)
        results = []
        errors = []

        def request():
            try:
                results.append(
                    ServiceClient(server.url, max_retries=0).analyze("c17")
                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        try:
            clients = [threading.Thread(target=request) for _ in range(3)]
            for c in clients:
                c.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if server.overload_snapshot()["accepted"] >= 3:
                    break
                time.sleep(0.01)
            # Drain while 1 is wedged in-flight and 2 sit in the queue;
            # release the handler right after the drain begins.
            drainer = threading.Thread(
                target=server.drain, args=(30.0,), daemon=True
            )
            drainer.start()
            time.sleep(0.1)
            gate.set()
            drainer.join(timeout=30)
            for c in clients:
                c.join(timeout=30)

            assert errors == []
            assert len(results) == 3
            local = _local_sink("c17")
            for rep in results:
                # A truncated body would have failed JSON decoding in
                # the client; equality proves full delivery.
                assert np.array_equal(
                    np.asarray(rep.sink.masses), np.asarray(local.masses)
                )
            snapshot = server.overload_snapshot()
            assert snapshot["completed"] == snapshot["accepted"] == 3
            assert snapshot["in_flight"] == 0
            assert snapshot["queued"] == 0
        finally:
            gate.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_drain_is_idempotent_and_reports_clean(self):
        state = ServiceState(config=FAST)
        server, thread = _serve(state)
        try:
            ServiceClient(server.url).analyze("c17")
            assert server.drain(10.0) is True
            assert server.drain(10.0) is True  # second call: stored verdict
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_bind_failure_surfaces_oserror_not_drain_crash(self):
        """Regression: a bind failure inside HTTPServer.__init__ runs
        server_close() -> drain() before the handler pool exists; the
        caller must see the real OSError (address in use), not an
        AttributeError from the cleanup path."""
        state = ServiceState(config=FAST)
        server, thread = _serve(state)
        try:
            host, port = server.server_address[:2]
            with pytest.raises(OSError):
                start_server(ServiceState(config=FAST), host, port)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_shutdown_route_drains_without_truncating_own_reply(self):
        """/shutdown runs ON a pool thread; its own response must go
        out complete before that thread consumes a stop sentinel."""
        state = ServiceState(config=FAST)
        server, thread = _serve(state, handler_threads=2)
        client = ServiceClient(server.url)
        client.analyze("c17")
        reply = client.shutdown()
        assert reply["shutting_down"] is True
        thread.join(timeout=15)
        assert not thread.is_alive()
        server.server_close()
