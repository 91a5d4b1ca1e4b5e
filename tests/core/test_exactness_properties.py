"""Hypothesis: pruned == brute force on random circuits.

The strongest form of the paper's accuracy claim — for *any* circuit
the generator can produce, the pruned optimizer's selections and
sensitivities equal the brute-force optimizer's exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AnalysisConfig
from repro.core.brute_force_sizer import BruteForceStatisticalSizer
from repro.core.pruned_sizer import PrunedStatisticalSizer
from repro.netlist.generate import CircuitSpec, generate_circuit

CFG = AnalysisConfig(dt=8.0, delta_w=1.0)


@st.composite
def small_circuits(draw):
    n_gates = draw(st.integers(min_value=6, max_value=24))
    depth = draw(st.integers(min_value=2, max_value=min(6, n_gates)))
    edges = draw(
        st.integers(min_value=int(1.5 * n_gates), max_value=int(2.4 * n_gates))
    )
    spec = CircuitSpec(
        name="hyp",
        n_inputs=draw(st.integers(min_value=4, max_value=8)),
        n_outputs=2,
        n_gates=n_gates,
        n_pin_edges=min(edges, 4 * n_gates),
        depth=depth,
        seed=draw(st.integers(min_value=0, max_value=9999)),
    )
    return spec


class TestExactnessProperty:
    @settings(max_examples=10, deadline=None)
    @given(spec=small_circuits())
    def test_pruned_equals_brute_force(self, spec):
        bf = BruteForceStatisticalSizer(
            generate_circuit(spec), config=CFG, max_iterations=2
        ).run()
        pr = PrunedStatisticalSizer(
            generate_circuit(spec), config=CFG, max_iterations=2
        ).run()
        assert [s.gate for s in bf.steps] == [s.gate for s in pr.steps]
        assert [s.sensitivity for s in bf.steps] == [
            s.sensitivity for s in pr.steps
        ]
        assert bf.final_objective == pr.final_objective

    @settings(max_examples=8, deadline=None)
    @given(spec=small_circuits())
    def test_cached_pruned_equals_brute_force(self, spec):
        """Three iterations, so the pruned sizer's incremental base
        refresh and front reuse run, with the node memo on."""
        bf = BruteForceStatisticalSizer(
            generate_circuit(spec), config=CFG, max_iterations=3
        ).run()
        pr = PrunedStatisticalSizer(
            generate_circuit(spec), config=CFG.with_updates(cache=4096),
            max_iterations=3,
        ).run()
        assert [s.gate for s in bf.steps] == [s.gate for s in pr.steps]
        assert [s.sensitivity for s in bf.steps] == [
            s.sensitivity for s in pr.steps
        ]
        assert bf.final_objective == pr.final_objective
