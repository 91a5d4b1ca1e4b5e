"""Unit tests for incremental SSTA updates.

The defining property: after any sequence of resizes, the incrementally
updated arrivals must be **bitwise identical** to a from-scratch SSTA.
"""

import numpy as np
import pytest

from repro.dist.ops import OpCounter
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.incremental import update_ssta_after_resize
from repro.timing.ssta import run_ssta


def assert_same_arrivals(a, b):
    for pa, pb in zip(a.arrivals, b.arrivals):
        assert pa.offset == pb.offset
        assert np.array_equal(pa.masses, pb.masses)


class TestExactness:
    def test_single_resize_matches_full_rerun(self, c17, library, fast_config):
        graph = TimingGraph(c17)
        model = DelayModel(c17, library, fast_config)
        result = run_ssta(graph, model)
        gate = c17.gate("16")
        gate.width = 3.0
        update_ssta_after_resize(result, model, [gate])
        assert_same_arrivals(result, run_ssta(graph, model))

    @pytest.mark.parametrize("gate_name", ["10", "11", "19", "22", "23"])
    def test_each_gate_resize(self, c17, library, fast_config, gate_name):
        graph = TimingGraph(c17)
        model = DelayModel(c17, library, fast_config)
        result = run_ssta(graph, model)
        gate = c17.gate(gate_name)
        gate.width = 2.0
        update_ssta_after_resize(result, model, [gate])
        assert_same_arrivals(result, run_ssta(graph, model))

    def test_sequence_of_resizes(self, c17, library, fast_config):
        graph = TimingGraph(c17)
        model = DelayModel(c17, library, fast_config)
        result = run_ssta(graph, model)
        for name, w in (("16", 2.0), ("11", 3.0), ("22", 2.0), ("16", 4.0)):
            gate = c17.gate(name)
            gate.width = w
            update_ssta_after_resize(result, model, [gate])
        assert_same_arrivals(result, run_ssta(graph, model))

    def test_batch_resize(self, c17, library, fast_config):
        graph = TimingGraph(c17)
        model = DelayModel(c17, library, fast_config)
        result = run_ssta(graph, model)
        gates = [c17.gate("10"), c17.gate("19")]
        for g in gates:
            g.width = 2.5
        update_ssta_after_resize(result, model, gates)
        assert_same_arrivals(result, run_ssta(graph, model))

    def test_benchmark_circuit(self, fast_config):
        from repro.netlist.benchmarks import load

        circuit = load("c432", scale=0.4)
        graph = TimingGraph(circuit)
        model = DelayModel(circuit, config=fast_config)
        result = run_ssta(graph, model)
        gates = list(circuit.gates())
        for g in (gates[3], gates[len(gates) // 2], gates[-2]):
            g.width += 1.0
            update_ssta_after_resize(result, model, [g])
        assert_same_arrivals(result, run_ssta(graph, model))


class TestEfficiency:
    def test_recomputes_less_than_full(self, fast_config):
        from repro.netlist.benchmarks import load

        circuit = load("c880", scale=0.5)
        graph = TimingGraph(circuit)
        model = DelayModel(circuit, config=fast_config)
        result = run_ssta(graph, model)
        # A gate near the outputs should touch only a small cone.
        gate = circuit.topo_gates()[-1]
        gate.width += 1.0
        recomputed = update_ssta_after_resize(result, model, [gate])
        assert recomputed < graph.n_nodes / 4

    def test_counter_tallies(self, c17, library, fast_config):
        graph = TimingGraph(c17)
        model = DelayModel(c17, library, fast_config)
        result = run_ssta(graph, model)
        counter = OpCounter()
        gate = c17.gate("16")
        gate.width = 2.0
        update_ssta_after_resize(result, model, [gate], counter=counter)
        assert counter.total_ops > 0

    def test_noop_resize_stops_quickly(self, c17, library, fast_config):
        """Setting a width to its current value: the wave should die at
        the seeds (recomputed arrivals are bitwise unchanged)."""
        graph = TimingGraph(c17)
        model = DelayModel(c17, library, fast_config)
        result = run_ssta(graph, model)
        gate = c17.gate("16")
        gate.width = gate.width  # no change
        recomputed = update_ssta_after_resize(result, model, [gate])
        assert recomputed <= 3  # the seed nodes only
        assert_same_arrivals(result, run_ssta(graph, model))


class TestSchedulerCallSites:
    def test_wave_calls_the_scheduler_through_the_ssta_module(
        self, c17, library, fast_config, monkeypatch
    ):
        """The wave looks ``compute_level_arrivals`` and
        ``node_fanin_parts`` up on ``repro.timing.ssta`` at call time, so
        a wrapper installed there (a tracer, a profiler) sees every
        level the wave recomputes."""
        from repro.timing import ssta

        graph = TimingGraph(c17)
        model = DelayModel(c17, library, fast_config)
        result = run_ssta(graph, model)
        calls = {"levels": 0, "nodes": 0, "parts": 0}
        real_level = ssta.compute_level_arrivals
        real_parts = ssta.node_fanin_parts

        def counting_level(parts_list, **kwargs):
            calls["levels"] += 1
            calls["nodes"] += len(parts_list)
            return real_level(parts_list, **kwargs)

        def counting_parts(*args):
            calls["parts"] += 1
            return real_parts(*args)

        monkeypatch.setattr(ssta, "compute_level_arrivals", counting_level)
        monkeypatch.setattr(ssta, "node_fanin_parts", counting_parts)
        gate = c17.gate("16")
        gate.width = 3.0
        recomputed = update_ssta_after_resize(result, model, [gate])
        assert recomputed > 0
        assert calls["levels"] > 0
        assert calls["nodes"] == calls["parts"] == recomputed
        assert_same_arrivals(result, run_ssta(graph, model))
