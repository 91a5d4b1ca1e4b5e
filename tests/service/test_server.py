"""HTTP server tests, including the concurrent-session invariants.

The load-bearing assertions:

* a server-mediated analysis returns sink bytes **identical** to the
  same run executed locally, at any concurrency (requests interleave
  freely; cache hits replay bitwise, so interleaving cannot shift a
  bit);
* concurrent sessions sharing the ONE process-wide cache achieve an
  aggregate hit rate **above** the best rate any of them reaches in
  isolation — the reason the service exists.
"""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.core.pruned_sizer import PrunedStatisticalSizer
from repro.errors import ServiceError
from repro.netlist.benchmarks import load
from repro.service import ServiceClient, ServiceState, start_server
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.ssta import run_ssta

FAST = AnalysisConfig(dt=8.0, delta_w=1.0)


def _serve(state):
    server = start_server(state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


@pytest.fixture
def server():
    srv, thread = _serve(ServiceState(config=FAST, cache=32768))
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


def _local_sink(name, scale=1.0):
    cfg = FAST.with_updates(cache=None)
    circuit = load(name, scale=scale)
    return run_ssta(
        TimingGraph(circuit), DelayModel(circuit, config=cfg), config=cfg
    ).sink_pdf


def _local_sizing(name, scale=1.0, iterations=3):
    cfg = FAST.with_updates(cache=None)
    return PrunedStatisticalSizer(
        load(name, scale=scale), config=cfg, max_iterations=iterations
    ).run()


def _trajectory(result):
    """Everything numeric a sizing run decides — the bitwise-invariant
    part.  Cost counters (cache hits, wall time) legitimately differ
    between a cached server run and an uncached local one."""
    return (
        result.optimizer,
        result.circuit_name,
        result.initial_objective,
        result.final_objective,
        result.initial_size,
        result.final_size,
        result.initial_widths,
        result.stop_reason,
        [
            (s.iteration, s.gate, s.sensitivity, s.objective_before,
             s.objective_after, s.total_size, s.extra_gates)
            for s in result.steps
        ],
    )


class TestEndpoints:
    def test_health(self, client):
        reply = client.health()
        assert reply["status"] == "ok"

    def test_unknown_endpoint_404(self, client, server):
        with pytest.raises(ServiceError, match="404"):
            client._request("GET", "/nope")

    def test_bad_json_400(self, server):
        req = urllib.request.Request(
            server.url + "/analyze",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400
        assert "JSON" in json.loads(exc.value.read())["error"]

    @pytest.mark.parametrize("path,body", [
        ("/analyze", '{"circuit": "c17", "config": {"dt": NaN}}'),
        ("/analyze", '{"circuit": "c17", "config": {"sigma_fraction": NaN}}'),
        ("/analyze",
         '{"circuit": "c17", "config": {"truncation_sigma": Infinity}}'),
        ("/session", '{"config": {"delta_w": NaN}}'),
    ])
    def test_non_finite_config_400(self, server, path, body):
        """Python's json parses NaN/Infinity; the config must reject
        them as a client error, never fail mid-analysis with a 500."""
        req = urllib.request.Request(
            server.url + path,
            data=body.encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400
        assert "must be finite" in json.loads(exc.value.read())["error"]

    def test_unknown_circuit_400(self, client):
        with pytest.raises(ServiceError, match="unknown circuit"):
            client.analyze("c9999")

    def test_missing_circuit_400(self, client):
        with pytest.raises(ServiceError, match="required"):
            client._request("POST", "/analyze", {})

    def test_analyze_bitwise_equals_local(self, client):
        rep = client.analyze("c17")
        local = _local_sink("c17")
        assert rep.sink.dt == local.dt
        assert rep.sink.offset == local.offset
        assert np.array_equal(
            np.asarray(rep.sink.masses), np.asarray(local.masses)
        )
        for p, value in rep.percentiles:
            assert value == local.percentile(p)

    def test_optimize_round_trips_real_result(self, client):
        rep = client.optimize("c17", iterations=3)
        local = _local_sizing("c17", iterations=3)
        assert _trajectory(rep.result) == _trajectory(local)

    def test_yield_query(self, client):
        rep = client.yield_query("c17", target=300.0, n_points=6)
        assert rep.yield_at_target == pytest.approx(1.0, abs=0.05)
        assert len(rep.yield_curve) == 6

    def test_session_round_trip(self, client):
        sid = client.open_session({"level_batch": False})
        assert client.session_id == sid
        client.analyze("c17")
        summary = client.close_session()
        assert summary["requests"] == 1
        assert client.session_id is None

    def test_context_manager_closes_session(self, server):
        with ServiceClient(server.url) as c:
            c.open_session()
            sid = c.session_id
            c.analyze("c17")
        stats = ServiceClient(server.url).stats()
        assert sid not in stats["sessions"]

    def test_stats_reports_latency(self, client):
        client.analyze("c17")
        stats = client.stats()
        lat = stats["requests"]["POST /analyze"]
        assert lat["count"] >= 1
        assert lat["p50_ms"] > 0
        assert lat["p99_ms"] >= lat["p50_ms"]

    def test_protocol_mismatch_detected(self, client, monkeypatch):
        monkeypatch.setattr(
            "repro.service.client.PROTOCOL_VERSION", 999
        )
        with pytest.raises(ServiceError, match="protocol mismatch"):
            client.health()


class TestLifecycle:
    def test_flush_endpoint_writes_snapshot(self, tmp_path):
        snap = tmp_path / "svc.cache"
        state = ServiceState(config=FAST, cache_file=snap)
        server, thread = _serve(state)
        try:
            client = ServiceClient(server.url)
            client.analyze("c17")
            reply = client.flush()
            assert reply["entries_saved"] > 0
            assert snap.exists()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_shutdown_endpoint_stops_server_and_flushes(self, tmp_path):
        snap = tmp_path / "svc.cache"
        state = ServiceState(config=FAST, cache_file=snap)
        server, thread = _serve(state)
        client = ServiceClient(server.url)
        client.analyze("c17")
        reply = client.shutdown()
        assert reply["shutting_down"] is True
        assert reply["entries_saved"] > 0
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()
        assert snap.exists()


#: The concurrent workload: four sessions, mixed circuits and sized
#: variants, pairwise overlapping so sharing the cache pays.
WORKLOADS = [
    ("c17", 1.0),
    ("c17", 1.0),
    ("c432", 0.25),
    ("c432", 0.25),
]


def _run_workload(client, circuit, scale):
    """One session's request sequence; returns its remote results."""
    client.open_session()
    analysis = client.analyze(circuit, scale=scale)
    sizing = client.optimize(circuit, scale=scale, iterations=3)
    summary = client.close_session()
    return analysis, sizing, summary


class TestConcurrentSessions:
    def test_concurrent_sessions_bitwise_and_cache_sharing(self):
        assert len(WORKLOADS) >= 4

        # Isolated reference: each session against its own cold
        # server.  Records the best hit rate any session achieves
        # WITHOUT sharing.
        isolated_rates = []
        for circuit, scale in WORKLOADS:
            srv, thread = _serve(ServiceState(config=FAST, cache=32768))
            try:
                _, _, summary = _run_workload(
                    ServiceClient(srv.url), circuit, scale
                )
                isolated_rates.append(summary["hit_rate"])
            finally:
                srv.shutdown()
                srv.server_close()
                thread.join(timeout=5)

        # Shared run: all sessions concurrently against ONE server.
        state = ServiceState(config=FAST, cache=32768)
        server, thread = _serve(state)
        results = [None] * len(WORKLOADS)
        errors = []
        barrier = threading.Barrier(len(WORKLOADS))

        def worker(idx, circuit, scale):
            try:
                barrier.wait(timeout=30)
                results[idx] = _run_workload(
                    ServiceClient(server.url), circuit, scale
                )
            except Exception as exc:  # pragma: no cover
                errors.append((idx, exc))

        try:
            threads = [
                threading.Thread(target=worker, args=(i, c, s))
                for i, (c, s) in enumerate(WORKLOADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert errors == []
            cache_stats = ServiceClient(server.url).stats()["cache"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

        # (1) Bitwise equality with serial local runs, per session.
        for (circuit, scale), (analysis, sizing, _) in zip(
            WORKLOADS, results
        ):
            local_sink = _local_sink(circuit, scale=scale)
            assert analysis.sink.dt == local_sink.dt
            assert analysis.sink.offset == local_sink.offset
            assert np.array_equal(
                np.asarray(analysis.sink.masses),
                np.asarray(local_sink.masses),
            ), f"sink mismatch for {circuit}@{scale}"
            local_sizing = _local_sizing(circuit, scale=scale)
            assert _trajectory(sizing.result) == \
                _trajectory(local_sizing), \
                f"sizing mismatch for {circuit}@{scale}"

        # (2) Sharing pays: the sessions' aggregate kernel hit rate
        # beats the best rate any session managed alone (same metric
        # on both sides: OpCounter hits over OpCounter requests).
        shared_hits = sum(s["kernel_hits"] for _, _, s in results)
        shared_requests = sum(s["kernel_requests"] for _, _, s in results)
        assert shared_requests > 0
        aggregate_rate = shared_hits / shared_requests
        assert aggregate_rate > max(isolated_rates), (
            f"aggregate {aggregate_rate:.3f} vs isolated "
            f"{isolated_rates}"
        )
        # The shared cache did real work for every session.
        assert cache_stats["hits"] > 0
