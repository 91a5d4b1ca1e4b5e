"""Pre-fork frontend: N workers behind one port, kill-respawn, and
snapshot reconciliation.

All workloads here are sessionless on purpose: ``SO_REUSEPORT``
balances per *connection* and the stdlib client reconnects per
request, so a session opened on one worker is unknown to its
siblings.  That worker-affinity caveat is part of the frontend's
documented contract, not something these tests paper over.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.core.pruned_sizer import PrunedStatisticalSizer
from repro.dist.cache import ConvolutionCache
from repro.errors import DistributionError
from repro.netlist.benchmarks import load
from repro.service import ServiceClient, ServiceFrontend, WorkerSpec
from repro.service.frontend import (
    merged_stats_file,
    reuseport_available,
    worker_cache_file,
)
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.ssta import run_ssta

pytestmark = pytest.mark.skipif(
    not reuseport_available(),
    reason="SO_REUSEPORT load balancing unavailable on this platform",
)

FAST = AnalysisConfig(dt=8.0, delta_w=1.0)


def _local_sink(name, scale=1.0):
    cfg = FAST.with_updates(cache=None)
    circuit = load(name, scale=scale)
    return run_ssta(
        TimingGraph(circuit), DelayModel(circuit, config=cfg), config=cfg
    ).sink_pdf


def _local_sizing(name, iterations):
    return PrunedStatisticalSizer(
        load(name),
        config=FAST.with_updates(cache=None),
        max_iterations=iterations,
    ).run()


def _front(tmp_path, workers=2, **kwargs):
    spec = WorkerSpec(
        config=FAST,
        cache_capacity=32768,
        cache_file=str(tmp_path / "front.cache"),
        flush_interval_s=None,
        retry_after_s=0.1,
    )
    return ServiceFrontend(
        spec,
        port=0,
        workers=workers,
        reconcile_interval_s=kwargs.pop("reconcile_interval_s", 3600.0),
        **kwargs,
    )


class TestFrontLifecycle:
    def test_workers_share_port_and_answers_stay_bitwise(self, tmp_path):
        """The acceptance scenario: a multi-worker front serves mixed
        concurrent workloads and every accepted answer is bitwise the
        serial local one, regardless of which worker served it."""
        front = _front(tmp_path, workers=2)
        try:
            front.start()
            assert front.wait_until_ready(timeout_s=60)
            assert front.live_workers() == 2

            # Both REUSEPORT siblings actually take traffic: repeated
            # fresh connections eventually land on distinct workers.
            seen = set()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and len(seen) < 2:
                worker = ServiceClient(front.url).stats()["worker"]
                seen.add((worker["id"], worker["pid"]))
            assert len(seen) == 2, f"only saw workers {seen}"

            results = {}
            errors = []
            lock = threading.Lock()

            def analyze(name, scale):
                try:
                    rep = ServiceClient(front.url).analyze(name, scale=scale)
                    with lock:
                        results[("analyze", name, scale)] = rep
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            def optimize(name, iters):
                try:
                    rep = ServiceClient(front.url).optimize(
                        name, iterations=iters
                    )
                    with lock:
                        results[("optimize", name, iters)] = rep
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            mixed = [
                threading.Thread(target=analyze, args=("c17", 1.0)),
                threading.Thread(target=analyze, args=("c17", 0.8)),
                threading.Thread(target=analyze, args=("c432", 0.3)),
                threading.Thread(target=optimize, args=("c17", 3)),
                threading.Thread(target=analyze, args=("c17", 1.0)),
            ]
            for t in mixed:
                t.start()
            for t in mixed:
                t.join(timeout=120)
            assert errors == []

            for name, scale in [("c17", 1.0), ("c17", 0.8), ("c432", 0.3)]:
                local = _local_sink(name, scale=scale)
                rep = results[("analyze", name, scale)]
                assert rep.sink.dt == local.dt
                assert rep.sink.offset == local.offset
                assert np.array_equal(
                    np.asarray(rep.sink.masses), np.asarray(local.masses)
                )
            local_sz = _local_sizing("c17", 3)
            remote_sz = results[("optimize", "c17", 3)].result
            assert remote_sz.final_objective == local_sz.final_objective
            assert [s.gate for s in remote_sz.steps] == \
                [s.gate for s in local_sz.steps]
        finally:
            assert front.stop() is True

        # stop() reconciled: the shared base snapshot holds the union
        # of what the workers computed, and the merged stats sidecar
        # aggregates their counters.
        base = tmp_path / "front.cache"
        assert base.exists()
        merged = ConvolutionCache.load(base, capacity=32768)
        assert len(merged) > 0
        import json
        with open(merged_stats_file(str(base))) as fh:
            stats = json.load(fh)
        assert stats["workers"] >= 1
        assert stats["misses"] > 0  # the first analyses were cold

    def test_killed_worker_respawns_and_clients_ride_it_out(self, tmp_path):
        """SIGKILL one worker mid-service: the monitor respawns it,
        and a client with a retry budget never notices (beyond a
        transport retry)."""
        front = _front(tmp_path, workers=2)
        try:
            front.start()
            assert front.wait_until_ready(timeout_s=60)

            victim = ServiceClient(front.url).stats()["worker"]["pid"]
            os.kill(victim, signal.SIGKILL)

            # Retrying clients keep getting bitwise-correct answers
            # while the slot is down and after it comes back.
            local = _local_sink("c17")
            for _ in range(4):
                client = ServiceClient(
                    front.url, max_retries=6, total_deadline_s=60.0
                )
                rep = client.analyze("c17")
                assert np.array_equal(
                    np.asarray(rep.sink.masses), np.asarray(local.masses)
                )

            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if front.live_workers() == 2:
                    break
                time.sleep(0.1)
            assert front.live_workers() == 2
            assert sum(front.respawns.values()) >= 1
        finally:
            front.stop()

    def test_single_worker_front_still_fronts(self, tmp_path):
        """workers=1 through the frontend is a valid (if pointless)
        deployment; the machinery must not require siblings."""
        front = _front(tmp_path, workers=1)
        try:
            front.start()
            assert front.wait_until_ready(timeout_s=60)
            rep = ServiceClient(front.url).analyze("c17")
            local = _local_sink("c17")
            assert np.array_equal(
                np.asarray(rep.sink.masses), np.asarray(local.masses)
            )
        finally:
            assert front.stop() is True
        assert os.path.exists(worker_cache_file(str(tmp_path / "front.cache"), 0))


class TestStaleSnapshots:
    """The front load-checks every snapshot a worker could boot from
    before spawning any: a stale or corrupt file is the typed error
    the single-process server raises, and no worker ever starts."""

    @staticmethod
    def _format1(path):
        import pickle

        with open(path, "wb") as fh:
            pickle.dump({"format": 1, "capacity": 8, "entries": []}, fh)

    def _assert_refused(self, front, match):
        try:
            with pytest.raises(DistributionError, match=match):
                front.start()
            assert front.live_workers() == 0
            assert front.port is None
        finally:
            front.stop()

    def test_format1_base_refused_before_spawn(self, tmp_path):
        front = _front(tmp_path)
        self._format1(front.spec.cache_file)
        self._assert_refused(front, "format 1")

    def test_stale_base_behind_worker_files_is_replaced(self, tmp_path):
        # Every worker boots from its own file, so the stale base is
        # never loaded: the front starts, and the reconcile at stop
        # rewrites the base as the workers' union.
        front = _front(tmp_path)
        base = front.spec.cache_file
        self._format1(base)
        for i in range(front.workers):
            ConvolutionCache(8).save(worker_cache_file(base, i))
        try:
            front.start()
            assert front.wait_until_ready(timeout_s=60)
            ServiceClient(front.url).analyze("c17")
        finally:
            assert front.stop() is True
        assert len(ConvolutionCache.load(base)) > 0

    def test_corrupt_worker_file_refused_before_spawn(self, tmp_path):
        front = _front(tmp_path)
        ConvolutionCache(8).save(front.spec.cache_file)
        with open(worker_cache_file(front.spec.cache_file, 1), "wb") as fh:
            fh.write(b"not a pickle")
        self._assert_refused(front, "corrupt cache snapshot")
