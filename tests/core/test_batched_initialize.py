"""Batched Initialize and the per-pass gate-delay snapshot.

:func:`~repro.core.perturbation.initialize_fronts` advances many fronts'
Initialize together, one scheduler call per round.  It must leave every
front in exactly the state it reaches initialized alone, with the same
summed work tallies; these tests pin that bitwise for every candidate
of c17 and c432, cache on and off, ``level_batch`` on and off.  They
also pin the :attr:`SSTAResult.delays` snapshot the fronts read, and
the sizer's work totals on the benchmark's c432 run.
"""

import pytest

from repro.config import AnalysisConfig, DEFAULT_CONFIG
from repro.core.objectives import PercentileObjective
from repro.core.perturbation import PerturbationFront, initialize_fronts
from repro.core.pruned_sizer import PrunedStatisticalSizer
from repro.dist.cache import DEFAULT_CACHE_CAPACITY
from repro.dist.ops import OpCounter
from repro.errors import OptimizationError
from repro.netlist.benchmarks import load
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.incremental import update_ssta_after_resize
from repro.timing.ssta import run_ssta

OBJ = PercentileObjective(0.99)


def front_state(front):
    """Everything Initialize and propagation leave behind, bitwise."""
    return {
        "perturbed": {
            node: (pdf.dt, pdf.offset, pdf.masses.tobytes())
            for node, pdf in front._perturbed.items()
        },
        "delta": dict(front._delta),
        "pending": dict(front._pending),
        "scheduled": set(front._scheduled),
        "initial_smx": front.initial_smx,
        "smx": front.smx,
        "sensitivity": front.sensitivity,
        "nodes_computed": front.nodes_computed,
        "levels_propagated": front.levels_propagated,
        "curr_level": front.curr_level,
    }


def build(circuit_name, *, cache, level_batch):
    circuit = load(circuit_name)
    config = AnalysisConfig(dt=4.0, cache=cache, level_batch=level_batch)
    graph = TimingGraph(circuit)
    model = DelayModel(circuit, config=config)
    return circuit, graph, model, run_ssta(graph, model)


def fronts_for(circuit_name, *, cache, level_batch, batched):
    """Fronts for every gate, each against a fresh, cold analysis so
    the two modes see identical caches."""
    circuit, graph, model, base = build(
        circuit_name, cache=cache, level_batch=level_batch
    )
    counter = OpCounter()
    dw = model.config.delta_w
    fronts = [
        PerturbationFront(
            graph, model, base, g, dw, OBJ,
            counter=counter, initialize=not batched,
        )
        for g in circuit.topo_gates()
    ]
    if batched:
        initialize_fronts(fronts)
    return fronts, counter, model.config.cache


@pytest.mark.parametrize("circuit_name", ["c17", "c432"])
@pytest.mark.parametrize("cache", [None, DEFAULT_CACHE_CAPACITY])
@pytest.mark.parametrize("level_batch", [True, False])
class TestBatchedEqualsAlone:
    def test_initialize_state_and_tallies(self, circuit_name, cache,
                                          level_batch):
        alone, c_alone, cache_alone = fronts_for(
            circuit_name, cache=cache, level_batch=level_batch,
            batched=False,
        )
        together, c_together, cache_together = fronts_for(
            circuit_name, cache=cache, level_batch=level_batch,
            batched=True,
        )
        for a, b in zip(alone, together):
            assert a.gate.name == b.gate.name
            assert front_state(a) == front_state(b), a.gate.name
        assert vars(c_alone) == vars(c_together)
        if cache is not None:
            sa, sb = cache_alone.stats, cache_together.stats
            assert (sa.hits, sa.misses, sa.evictions) == (
                sb.hits, sb.misses, sb.evictions
            )


@pytest.mark.parametrize("cache", [None, DEFAULT_CACHE_CAPACITY])
@pytest.mark.parametrize("level_batch", [True, False])
def test_propagation_after_batched_initialize(cache, level_batch):
    """c17 fronts run to the sink from either Initialize end equal."""
    alone, c_alone, _ = fronts_for(
        "c17", cache=cache, level_batch=level_batch, batched=False
    )
    together, c_together, _ = fronts_for(
        "c17", cache=cache, level_batch=level_batch, batched=True
    )
    for a, b in zip(alone, together):
        assert a.run_to_sink() == b.run_to_sink()
        assert front_state(a) == front_state(b)
    assert vars(c_alone) == vars(c_together)


class TestInitializeFrontsContract:
    def test_fronts_must_share_counter(self, c17, fast_config):
        graph = TimingGraph(c17)
        model = DelayModel(c17, config=fast_config)
        base = run_ssta(graph, model)
        fronts = [
            PerturbationFront(graph, model, base, c17.gate(name), 1.0, OBJ,
                              counter=OpCounter(), initialize=False)
            for name in ("16", "22")
        ]
        with pytest.raises(OptimizationError, match="share"):
            initialize_fronts(fronts)

    def test_fronts_must_share_model(self, c17, fast_config):
        graph = TimingGraph(c17)
        counter = OpCounter()
        fronts = []
        for name in ("16", "22"):
            model = DelayModel(c17, config=fast_config)
            base = run_ssta(graph, model)
            fronts.append(
                PerturbationFront(graph, model, base, c17.gate(name), 1.0,
                                  OBJ, counter=counter, initialize=False)
            )
        with pytest.raises(OptimizationError, match="share"):
            initialize_fronts(fronts)

    def test_initialized_front_rejected(self, c17, fast_config):
        graph = TimingGraph(c17)
        model = DelayModel(c17, config=fast_config)
        base = run_ssta(graph, model)
        front = PerturbationFront(graph, model, base, c17.gate("16"), 1.0, OBJ)
        with pytest.raises(OptimizationError, match="already initialized"):
            initialize_fronts([front])

    def test_deferred_front_untouched_until_initialized(self, c17, fast_config):
        graph = TimingGraph(c17)
        model = DelayModel(c17, config=fast_config)
        base = run_ssta(graph, model)
        front = PerturbationFront(graph, model, base, c17.gate("22"), 1.0,
                                  OBJ, initialize=False)
        assert front.nodes_computed == 0 and front.levels_propagated == 0
        assert front.initial_smx == float("-inf")
        initialize_fronts([front])
        alone = PerturbationFront(graph, model, base, c17.gate("22"), 1.0, OBJ)
        assert front_state(front) == front_state(alone)

    def test_empty_list(self):
        initialize_fronts([])


class TestDelaySnapshot:
    @pytest.mark.parametrize("level_batch", [True, False])
    def test_one_delay_pdf_call_per_operating_point(self, level_batch):
        """A pass calls ``delay_pdf`` once per distinct exact operating
        point, for its first gate in topological order."""
        circuit = load("c432")
        model = DelayModel(
            circuit, config=AnalysisConfig(dt=4.0, level_batch=level_batch)
        )
        real = model.delay_pdf
        calls = []

        def counting(gate):
            calls.append(gate.output)
            return real(gate)

        model.delay_pdf = counting
        result = run_ssta(TimingGraph(circuit), model)
        firsts = {}
        for g in circuit.topo_gates():
            point = (g.cell.name, g.width, model.nominal_delay(g))
            firsts.setdefault(point, g.output)
        assert calls == list(firsts.values())
        assert len(calls) < circuit.n_gates
        for g in circuit.gates():
            assert result.delays[g.output] is real(g)

    def test_incremental_refresh_matches_fresh_pass(self):
        circuit = load("c432", scale=0.4)
        config = AnalysisConfig(dt=4.0, cache=DEFAULT_CACHE_CAPACITY)
        graph = TimingGraph(circuit)
        model = DelayModel(circuit, config=config)
        result = run_ssta(graph, model)
        gates = list(circuit.topo_gates())
        resized = [gates[3], gates[len(gates) // 2], gates[-2]]
        for g in resized:
            g.width += 1.0
            update_ssta_after_resize(result, model, [g])
        fresh = run_ssta(graph, model)
        assert result.delays.keys() == fresh.delays.keys()
        for net, pdf in fresh.delays.items():
            assert result.delays[net] is pdf, net

        dw = config.delta_w
        for g in resized + [gates[0], gates[-1]]:
            on_updated = PerturbationFront(graph, model, result, g, dw, OBJ)
            on_fresh = PerturbationFront(graph, model, fresh, g, dw, OBJ)
            assert front_state(on_updated) == front_state(on_fresh)
            assert on_updated.run_to_sink() == on_fresh.run_to_sink()
            assert front_state(on_updated) == front_state(on_fresh)


#: ``IterationStats`` totals of the benchmark's c432 run (10 pruned
#: iterations at the default config), cache on at the default capacity
#: and cache off.  Batching Initialize must move none of them.  The
#: totals include the incremental base refresh of iterations 2-10, and
#: reuse from the base's arc memo is in none of them.  Fronts resume
#: across iterations either way, so both build the same front nodes.
C432_TOTALS = {
    DEFAULT_CACHE_CAPACITY: {
        "nodes_computed": 31293, "convolutions": 42661, "max_ops": 25695,
        "cache_hits": 35294, "pruned": 1661,
    },
    None: {
        "nodes_computed": 31293, "convolutions": 51199, "max_ops": 38000,
        "cache_hits": 0,
    },
}


@pytest.mark.parametrize("cache", list(C432_TOTALS))
def test_c432_sizer_totals_pinned(cache):
    config = DEFAULT_CONFIG.with_updates(cache=cache)
    result = PrunedStatisticalSizer(
        load("c432"), config=config, max_iterations=10
    ).run()
    assert len(result.steps) == 10
    expected = C432_TOTALS[cache]
    totals = {
        key: sum(getattr(step.stats, key) for step in result.steps)
        for key in expected
    }
    assert totals == expected
