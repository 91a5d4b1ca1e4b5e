"""Exact reuse by object identity: the pruned sizer's incremental base,
its arc memo, and front reuse without a cache.

After its first iteration the pruned sizer refreshes one base
:class:`~repro.timing.ssta.SSTAResult` with the incremental wave, so
unchanged arrivals stay the same objects and fronts resume across
iterations whether or not a cache is configured.  The base keeps an
:class:`~repro.timing.ssta.ArcMemo` of its gate arcs' finished ADD
results, which fronts reuse behind node-memo misses.  These tests pin
that the reuse changes cost only, that every memo entry pairs a live
base arrival with a live base delay, and that passes nobody builds
fronts on keep no memo.
"""

import numpy as np
import pytest

from repro.config import AnalysisConfig, DEFAULT_CONFIG
from repro.core import pruned_sizer
from repro.core.brute_force_sizer import BruteForceStatisticalSizer
from repro.core.objectives import PercentileObjective
from repro.core.perturbation import PerturbationFront
from repro.core.pruned_sizer import PrunedStatisticalSizer
from repro.dist.backends import get_backend
from repro.dist.cache import DEFAULT_CACHE_CAPACITY
from repro.dist.ops import OpCounter, convolve
from repro.errors import TimingError
from repro.netlist.benchmarks import load
from repro.service.protocol import sizing_result_from_wire
from repro.service.state import ServiceState
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.incremental import update_ssta_after_resize
from repro.timing.ssta import ArcMemo, compute_level_arrivals, run_ssta


def trajectory(result):
    return (
        [(s.gate, s.sensitivity, s.objective_before, s.objective_after)
         for s in result.steps],
        result.final_objective,
    )


def live_arcs(base):
    """``(id(arrival), id(delay))`` of every gate arc of the base."""
    graph = base.graph
    return {
        (id(base.arrivals[e.src]), id(base.delays[e.gate.output]))
        for e in graph.edges
        if e.gate is not None
    }


def assert_memo_matches_base(base):
    live = live_arcs(base)
    assert len(base.arcs) > 0
    for arrival, delay, _result in base.arcs:
        assert (id(arrival), id(delay)) in live


def assert_deps_are_live(sizer, front):
    """A rebased front's recorded dependencies are the live objects:
    the base's arrivals, and the delay model's PDF for every gate whose
    delay it read."""
    for node, pdf in front._dep_arrivals.items():
        assert front.base.arrivals[node] is pdf
    for net, pdf in front._dep_delays.items():
        assert sizer.model.delay_pdf(sizer.circuit.gate(net)) is pdf


class CheckedSizer(PrunedStatisticalSizer):
    """Checks the arc memo against the base at every refresh, counts
    the fronts each iteration builds and checks every rebased front's
    dependencies against the live objects."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.refreshes = 0
        self.fronts_built = 0
        self.rebased = 0

    def _refresh_base(self, counter):
        base = super()._refresh_base(counter)
        assert_memo_matches_base(base)
        self.refreshes += 1
        return base

    def _build_fronts(self, base, candidates, dw, counter):
        real = pruned_sizer.initialize_fronts

        built = []

        def counting(fresh):
            self.fronts_built += len(fresh)
            built.extend(fresh)
            real(fresh)

        pruned_sizer.initialize_fronts = counting
        try:
            fronts = super()._build_fronts(base, candidates, dw, counter)
        finally:
            pruned_sizer.initialize_fronts = real
        fresh = set(map(id, built))
        for front in fronts:
            if id(front) not in fresh:
                assert_deps_are_live(self, front)
                self.rebased += 1
        return fronts


@pytest.fixture(scope="module")
def c432_runs():
    runs = {}
    for cache in (None, DEFAULT_CACHE_CAPACITY):
        sizer = CheckedSizer(
            load("c432"), config=DEFAULT_CONFIG.with_updates(cache=cache),
            max_iterations=10,
        )
        runs[cache] = (sizer, sizer.run())
    return runs


class TestSizerReuse:
    def test_cache_off_and_on_build_the_same_fronts(self, c432_runs):
        (off, r_off), (on, r_on) = c432_runs[None], c432_runs[
            DEFAULT_CACHE_CAPACITY
        ]
        assert len(r_off.steps) == len(r_on.steps) == 10
        assert trajectory(r_off) == trajectory(r_on)
        # Fronts resume across iterations with or without a cache: the
        # first iteration builds one per candidate, later ones fewer.
        assert off.fronts_built == on.fronts_built
        assert off.fronts_built < sum(s.stats.candidates for s in r_off.steps)
        assert off.refreshes == on.refreshes == 10
        # Every front not built again was rebased, its dependencies
        # checked live (CheckedSizer._build_fronts).
        assert off.rebased == on.rebased
        assert off.rebased + off.fronts_built == sum(
            s.stats.candidates for s in r_off.steps
        )

    def test_cache_off_counts_no_hits(self, c432_runs):
        _sizer, result = c432_runs[None]
        assert result.cache_hits == 0
        assert result.cache_hit_rate == 0.0

    def test_memo_results_are_the_convolutions(self, c432_runs):
        sizer, _result = c432_runs[None]
        base = sizer._base
        kernel = get_backend(sizer.config.backend)
        for arrival, delay, result in base.arcs:
            fresh = convolve(arrival, delay, trim_eps=sizer.config.tail_eps,
                             backend=kernel)
            assert result.offset == fresh.offset
            assert np.array_equal(result.masses, fresh.masses)

    @pytest.mark.parametrize("level_batch", [True, False])
    @pytest.mark.parametrize("cache", [None, 64, DEFAULT_CACHE_CAPACITY])
    def test_memo_tracks_the_base_and_matches_brute_force(
        self, cache, level_batch
    ):
        config = AnalysisConfig(dt=4.0, cache=cache, level_batch=level_batch)
        circuit = load("c432", scale=0.3)
        sizer = CheckedSizer(circuit.copy(), config=config, max_iterations=4)
        pruned = sizer.run()
        brute = BruteForceStatisticalSizer(
            circuit.copy(), config=AnalysisConfig(dt=4.0), max_iterations=4
        ).run()
        assert trajectory(pruned) == trajectory(brute)
        assert sizer.refreshes == 4

    def test_multi_gate_iterations_keep_the_memo_live(self):
        sizer = CheckedSizer(
            load("c432", scale=0.3), config=AnalysisConfig(dt=4.0),
            max_iterations=3, gates_per_iteration=3,
        )
        result = sizer.run()
        assert all(len(s.all_gates) == 3 for s in result.steps)
        assert sizer.refreshes == 3

    def test_a_second_run_starts_from_a_full_pass(self):
        circuit = load("c17")
        sizer = CheckedSizer(circuit, config=AnalysisConfig(dt=4.0),
                             max_iterations=2)
        sizer.run()
        first_base = sizer._base
        for gate in circuit.gates():
            gate.width += 1.0
        fresh = run_ssta(sizer.graph, sizer.model)
        again = sizer.run()
        assert sizer._base is not first_base
        assert again.initial_objective == sizer.objective.evaluate(
            fresh.sink_pdf
        )


class TestArcMemo:
    def _setup(self, **overrides):
        circuit = load("c432", scale=0.3)
        config = AnalysisConfig(dt=4.0, **overrides)
        graph = TimingGraph(circuit)
        model = DelayModel(circuit, config=config)
        return circuit, graph, model

    def test_standalone_pass_keeps_no_memo(self):
        _c, graph, model = self._setup()
        assert run_ssta(graph, model).arcs is None

    def test_kept_memo_holds_every_gate_arc(self):
        _c, graph, model = self._setup()
        base = run_ssta(graph, model, keep_arcs=True)
        assert_memo_matches_base(base)
        assert len(base.arcs) == len(live_arcs(base))

    def test_memo_reuse_is_not_a_cache_hit(self):
        """Fronts on a memo-keeping base give the same state as fronts
        on a plain base, compute fewer convolutions, and tally no
        hits."""
        circuit, graph, model = self._setup()
        plain = run_ssta(graph, model)
        kept = run_ssta(graph, model, keep_arcs=True)
        objective = PercentileObjective(0.99)
        dw = model.config.delta_w
        for gate in circuit.topo_gates()[::7]:
            on_plain = PerturbationFront(graph, model, plain, gate, dw,
                                         objective)
            on_kept = PerturbationFront(graph, model, kept, gate, dw,
                                        objective)
            s_plain, s_kept = on_plain.run_to_sink(), on_kept.run_to_sink()
            assert s_plain == s_kept
            assert on_plain.nodes_computed == on_kept.nodes_computed
        plain_counter, kept_counter = OpCounter(), OpCounter()
        gate = circuit.topo_gates()[0]
        PerturbationFront(graph, model, plain, gate, dw, objective,
                          counter=plain_counter).run_to_sink()
        PerturbationFront(graph, model, kept, gate, dw, objective,
                          counter=kept_counter).run_to_sink()
        assert kept_counter.convolutions < plain_counter.convolutions
        assert kept_counter.cache_hits == plain_counter.cache_hits == 0

    def test_incremental_update_drops_replaced_operands(self):
        circuit, graph, model = self._setup()
        base = run_ssta(graph, model, keep_arcs=True)
        gates = circuit.topo_gates()
        for gate in (gates[2], gates[len(gates) // 2], gates[-3]):
            gate.width += 1.0
            update_ssta_after_resize(base, model, [gate])
            assert_memo_matches_base(base)
        fresh = run_ssta(graph, model, keep_arcs=True)
        for a, b in zip(base.arrivals, fresh.arrivals):
            assert a.offset == b.offset
            assert np.array_equal(a.masses, b.masses)

    def test_memo_refuses_another_trim_or_backend(self):
        _c, graph, model = self._setup()
        base = run_ssta(graph, model, keep_arcs=True)
        arrival, delay, _result = next(iter(base.arcs))
        with pytest.raises(TimingError, match="arc memo"):
            compute_level_arrivals(
                [[(arrival, delay)]], trim_eps=model.config.tail_eps * 2,
                backend=base.arcs.kernel, arcs=base.arcs,
            )
        with pytest.raises(TimingError, match="arc memo"):
            compute_level_arrivals(
                [[(arrival, delay)]], trim_eps=model.config.tail_eps,
                backend="fft", arcs=base.arcs,
            )

    def test_hit_returns_the_stored_object(self):
        _c, graph, model = self._setup()
        base = run_ssta(graph, model, keep_arcs=True)
        arrival, delay, result = next(iter(base.arcs))
        memo = ArcMemo(model.config.tail_eps, base.arcs.kernel)
        assert memo.get(arrival, delay) is None
        memo.put(arrival, delay, result)
        assert memo.get(arrival, delay) is result
        memo.drop(arrival, delay)
        assert len(memo) == 0


def test_warm_optimize_computes_nothing():
    """A repeated /optimize on a warm cache resolves every node from
    the node memo and every gap from the gap memo."""
    state = ServiceState(config=AnalysisConfig(dt=4.0))
    state.optimize("c432", iterations=3, scale=0.3)
    warm = sizing_result_from_wire(
        state.optimize("c432", iterations=3, scale=0.3)["result"]
    )
    assert len(warm.steps) == 3
    assert sum(s.stats.convolutions for s in warm.steps) == 0
    assert sum(s.stats.max_ops for s in warm.steps) == 0
    assert sum(s.stats.cache_hits for s in warm.steps) > 0
