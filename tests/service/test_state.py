"""ServiceState tests: sessions, residency, eviction, snapshots.

The server-vs-local bitwise invariant and the concurrent-session
behaviour live in ``test_server.py``; this file pins the domain layer
in isolation (no HTTP).
"""

import math
import threading

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.core.pruned_sizer import PrunedStatisticalSizer
from repro.errors import ServiceError
from repro.netlist.benchmarks import load
from repro.service.protocol import pdf_from_wire, sizing_result_from_wire
from repro.service.state import ServiceState
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.ssta import run_ssta

FAST = AnalysisConfig(dt=8.0, delta_w=1.0)


@pytest.fixture
def state():
    return ServiceState(config=FAST, cache=4096)


def _local_sink(name, scale=1.0, config=FAST):
    """Reference sink distribution: a plain local run, no cache."""
    cfg = config.with_updates(cache=None)
    circuit = load(name, scale=scale)
    graph = TimingGraph(circuit)
    model = DelayModel(circuit, config=cfg)
    return run_ssta(graph, model, config=cfg).sink_pdf


class TestConstruction:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ServiceError, match="max_resident"):
            ServiceState(config=FAST, max_resident=0)
        with pytest.raises(ServiceError, match="TTL"):
            ServiceState(config=FAST, ttl_s=0.0)
        with pytest.raises(ServiceError, match="budget"):
            ServiceState(config=FAST, cache_budget_bytes=-1)

    def test_base_config_never_carries_foreign_cache(self, state):
        assert state.base_config.cache is None


class TestSessions:
    def test_open_use_close(self, state):
        sid = state.open_session({"level_batch": False})
        out = state.analyze("c17", session_id=sid)
        assert out["kernel"]["requests"] > 0
        summary = state.close_session(sid)
        assert summary["requests"] == 1
        assert summary["kernel_requests"] == out["kernel"]["requests"]
        assert summary["overrides"] == {"level_batch": False}

    def test_unknown_session_rejected(self, state):
        with pytest.raises(ServiceError, match="unknown session"):
            state.analyze("c17", session_id="nope")
        with pytest.raises(ServiceError, match="unknown session"):
            state.close_session("nope")

    def test_bad_override_rejected_at_open(self, state):
        with pytest.raises(ServiceError, match="not overridable"):
            state.open_session({"cache": 16})
        with pytest.raises(ServiceError, match="not overridable"):
            state.open_session({"jobs": 4})
        with pytest.raises(ServiceError, match="bad config override"):
            state.open_session({"dt": -1.0})

    @pytest.mark.parametrize("field", ["dt", "sigma_fraction",
                                       "truncation_sigma", "delta_w"])
    def test_non_finite_overrides_rejected(self, state, field):
        for value in (math.nan, math.inf):
            with pytest.raises(ServiceError, match="must be finite"):
                state.open_session({field: value})
            with pytest.raises(ServiceError, match="must be finite"):
                state.analyze("c17", config_overrides={field: value})

    def test_session_overrides_change_numbers(self, state):
        coarse = state.open_session()
        fine = state.open_session({"dt": 4.0})
        a = state.analyze("c17", session_id=coarse)
        b = state.analyze("c17", session_id=fine)
        assert a["percentiles"][2][1] != b["percentiles"][2][1]

    def test_hit_rate_tally(self, state):
        sid = state.open_session()
        state.analyze("c17", session_id=sid)
        state.analyze("c17", session_id=sid)
        summary = state.close_session(sid)
        # Second identical analysis replays entirely from the cache.
        assert summary["kernel_hits"] > 0
        assert 0.0 < summary["hit_rate"] <= 1.0


class TestAnalyze:
    def test_matches_local_run_bitwise(self, state):
        out = state.analyze("c17")
        remote = pdf_from_wire(out["sink"])
        local = _local_sink("c17")
        assert remote.dt == local.dt
        assert remote.offset == local.offset
        assert np.array_equal(
            np.asarray(remote.masses), np.asarray(local.masses)
        )
        for p, value in out["percentiles"]:
            assert value == local.percentile(p)

    def test_scaled_variant_is_distinct(self, state):
        a = state.analyze("c432", scale=0.2)
        b = state.analyze("c432", scale=0.3)
        assert a["gates"] != b["gates"]

    def test_unknown_circuit_rejected(self, state):
        with pytest.raises(ServiceError, match="unknown circuit"):
            state.analyze("c9999")

    def test_repeat_hits_cache(self, state):
        first = state.analyze("c17")
        second = state.analyze("c17")
        assert second["kernel"]["cache_hits"] == \
            second["kernel"]["requests"]
        assert second["sink"] == first["sink"]


class TestOptimize:
    def test_matches_local_sizer_run(self, state):
        out = state.optimize("c17", iterations=3)
        remote = sizing_result_from_wire(out["result"])
        local = PrunedStatisticalSizer(
            load("c17"),
            config=FAST.with_updates(cache=None),
            max_iterations=3,
        ).run()
        assert remote.final_objective == local.final_objective
        assert [s.gate for s in remote.steps] == \
            [s.gate for s in local.steps]
        assert [s.objective_after for s in remote.steps] == \
            [s.objective_after for s in local.steps]

    def test_does_not_mutate_resident_circuit(self, state):
        before = state.analyze("c17")
        state.optimize("c17", iterations=3)
        after = state.analyze("c17")
        assert after["sink"] == before["sink"]

    def test_unknown_sizer_rejected(self, state):
        with pytest.raises(ServiceError, match="unknown sizer"):
            state.optimize("c17", sizer="magic")

    def test_deterministic_sizer_supported(self, state):
        out = state.optimize("c17", iterations=2, sizer="deterministic")
        assert out["sizer"] == "deterministic"
        assert out["result"]["optimizer"] == "deterministic"

    def test_bad_iterations_rejected(self, state):
        with pytest.raises(ServiceError):
            state.optimize("c17", iterations=0)


class TestYield:
    def test_yield_query(self, state):
        out = state.yield_query("c17", target=300.0, n_points=8)
        assert out["yield_at_target"] == pytest.approx(1.0, abs=0.05)
        assert len(out["yield_curve"]) == 8
        curve = [y for _, y in out["yield_curve"]]
        assert curve == sorted(curve)
        local = _local_sink("c17")
        remote = pdf_from_wire(out["sink"])
        assert np.array_equal(
            np.asarray(remote.masses), np.asarray(local.masses)
        )


class TestResidency:
    def test_lru_bound_enforced(self):
        state = ServiceState(config=FAST, max_resident=2)
        state.analyze("c17", scale=1.0)
        state.analyze("c17", scale=0.9)
        state.analyze("c17", scale=0.8)
        assert len(state._resident) == 2
        scales = {key[1] for key in state._resident}
        assert scales == {0.9, 0.8}  # scale=1.0 was the LRU

    def test_ttl_eviction(self):
        state = ServiceState(config=FAST, ttl_s=1e-9, session_ttl_s=1e-9)
        sid = state.open_session()
        state.analyze("c17", session_id=sid)
        # Any later request evicts both the idle circuit and session.
        state.analyze("c17")
        assert sid not in state._sessions
        with pytest.raises(ServiceError, match="unknown session"):
            state.analyze("c17", session_id=sid)

    def test_distinct_configs_get_distinct_entries(self, state):
        state.analyze("c17")
        state.analyze("c17", config_overrides={"dt": 4.0})
        assert len(state._resident) == 2


class TestCacheBudget:
    def test_budget_enforced_after_requests(self):
        state = ServiceState(config=FAST, cache_budget_bytes=10_000)
        state.analyze("c432", scale=0.3)
        assert state.cache.approx_bytes <= 10_000
        # ...and the analysis still matches the uncapped local run.
        out = state.analyze("c17")
        local = _local_sink("c17")
        remote = pdf_from_wire(out["sink"])
        assert np.array_equal(
            np.asarray(remote.masses), np.asarray(local.masses)
        )


class TestSnapshotLifecycle:
    def test_flush_and_warm_start(self, tmp_path):
        snap = tmp_path / "svc.cache"
        state = ServiceState(config=FAST, cache_file=snap)
        state.analyze("c17")
        written = state.flush()
        assert written == len(state.cache) > 0

        warm = ServiceState(config=FAST, cache_file=snap)
        assert warm.loaded_entries == written
        out = warm.analyze("c17")
        # The warmed run replays entirely from the snapshot...
        assert out["kernel"]["cache_hits"] == out["kernel"]["requests"]
        # ...bitwise.
        local = _local_sink("c17")
        remote = pdf_from_wire(out["sink"])
        assert np.array_equal(
            np.asarray(remote.masses), np.asarray(local.masses)
        )

    def test_flush_without_file_is_noop(self, state):
        assert state.flush() == 0

    def test_concurrent_flushes_are_serialized(self, tmp_path):
        snap = tmp_path / "svc.cache"
        state = ServiceState(config=FAST, cache_file=snap)
        state.analyze("c17")
        errors = []

        def flusher():
            try:
                for _ in range(10):
                    state.flush()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=flusher) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        warm = ServiceState(config=FAST, cache_file=snap)
        assert warm.loaded_entries == len(state.cache)


class TestStats:
    def test_stats_shape(self, state):
        sid = state.open_session()
        state.analyze("c17", session_id=sid)
        state.record_latency("POST /analyze", 0.02)
        state.record_latency("POST /analyze", 0.04)
        stats = state.stats()
        assert stats["cache"]["requests"] == \
            stats["cache"]["hits"] + stats["cache"]["misses"]
        assert sid in stats["sessions"]
        assert stats["resident_circuits"][0]["circuit"] == "c17"
        lat = stats["requests"]["POST /analyze"]
        assert lat["count"] == 2
        assert lat["p50_ms"] in (20.0, 40.0)
        assert lat["p99_ms"] == 40.0
