"""Which memo kinds each engine consults, and run-to-run determinism
of the cached sizing loop.

The cache holds one kind of entry, whole-node arrivals (``"node"``); a
front's Theorem-4 gaps live on its perturbed results.  Every engine —
full, incremental and backward SSTA and the perturbation fronts —
probes the node memo first; there is no per-op memo.  Behind a node-memo miss a
MAX request almost never recurs, and the ADDs that do recur are the
base pass's arcs, which fronts match by identity in the pass's own arc
memo (``SSTAResult.arcs``), outside the cache.
"""

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.core.objectives import PercentileObjective
from repro.core.perturbation import PerturbationFront
from repro.core.pruned_sizer import PrunedStatisticalSizer
from repro.dist.cache import DEFAULT_CACHE_CAPACITY, ConvolutionCache
from repro.netlist.benchmarks import load
from repro.timing.criticality import run_backward_ssta
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.incremental import update_ssta_after_resize
from repro.timing.ssta import run_ssta


def _kinds(cache: ConvolutionCache) -> set:
    return {key[0] for key in cache._entries}


def _setup(circuit_name: str, level_batch: bool):
    cache = ConvolutionCache(DEFAULT_CACHE_CAPACITY)
    cfg = AnalysisConfig(dt=2.0, cache=cache, level_batch=level_batch)
    circuit = load(circuit_name)
    graph = TimingGraph(circuit)
    model = DelayModel(circuit, config=cfg)
    return cache, cfg, circuit, graph, model


@pytest.mark.parametrize("level_batch", [True, False])
class TestMemoKinds:
    def test_ssta_stores_only_node_entries(self, level_batch):
        cache, cfg, _c, graph, model = _setup("c432", level_batch)
        run_ssta(graph, model, config=cfg)
        assert _kinds(cache) == {"node"}

    def test_incremental_update_stores_only_node_entries(self, level_batch):
        cache, cfg, circuit, graph, model = _setup("c432", level_batch)
        base = run_ssta(graph, model, config=cfg)
        cache.clear()
        gate = circuit.topo_gates()[len(circuit.topo_gates()) // 2]
        gate.width += 1.0
        assert update_ssta_after_resize(base, model, [gate]) > 0
        assert len(cache) > 0
        assert _kinds(cache) == {"node"}

    def test_perturbation_front_stores_only_node_entries(self, level_batch):
        cache, cfg, circuit, graph, model = _setup("c432", level_batch)
        base = run_ssta(graph, model, config=cfg)
        cache.clear()
        objective = PercentileObjective(0.99)
        for gate in circuit.topo_gates()[:12]:
            PerturbationFront(
                graph, model, base, gate, 1.0, objective
            ).run_to_sink()
        assert _kinds(cache) == {"node"}

    def test_backward_pass_uses_the_node_memo(self, level_batch):
        cache, cfg, _c, graph, model = _setup("c432", level_batch)
        cold = run_backward_ssta(graph, model, config=cfg)
        assert _kinds(cache) == {"node"}
        # A warm rerun resolves every node in one node-memo probe: no
        # kernel work, the same requests, the same bits.
        warm = run_backward_ssta(graph, model, config=cfg)
        assert warm.counter.total_ops == 0
        assert warm.counter.total_requests == cold.counter.total_requests
        for c, w in zip(cold.to_sink, warm.to_sink):
            assert c.offset == w.offset
            assert np.array_equal(c.masses, w.masses)


class TestSizingDeterminism:
    def test_repeat_runs_make_identical_requests(self):
        """Repeated cold-cache pruned sizing runs in one process make the
        same ``delay_pdf`` calls and the same cache traffic.  The order
        of a resized gate's affected gates decides where front reuse
        stops checking, so it must not follow object addresses."""
        base = load("c432")
        calls = []
        stats = []
        for _ in range(3):
            cache = ConvolutionCache(DEFAULT_CACHE_CAPACITY)
            sizer = PrunedStatisticalSizer(
                base.copy(), config=AnalysisConfig(cache=cache),
                max_iterations=5,
            )
            n = [0]
            model = sizer.model
            original = model.delay_pdf

            def counted(gate, _orig=original, _n=n):
                _n[0] += 1
                return _orig(gate)

            model.delay_pdf = counted
            sizer.run()
            calls.append(n[0])
            stats.append(cache.stats.snapshot())
        assert calls == [calls[0]] * len(calls)
        assert stats == [stats[0]] * len(stats)
