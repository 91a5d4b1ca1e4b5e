"""Generator scale contract: byte-identical paper suite, linear growth.

The O(nodes + edges) generator rewrite is locked from both ends:

* **Fingerprint regression** — every PAPER_SUITE circuit (and the
  scaled-down variants the quick paths use) must hash to the exact
  structure recorded from the pre-rewrite generator in
  ``golden/structure_fingerprints.json``.  Any change to the RNG draw
  stream — a reordered draw, a filtered pool materialized differently,
  an extra shuffle — shows up here as a changed SHA-256 before any
  timing number moves.
* **Scale-up contract** — ``CircuitSpec.scaled`` at factors 10^2-10^3
  produces validated specs whose generated circuits hit gate/edge/depth
  targets exactly (the guard fallback now raises instead of silently
  shrinking pins), deterministically per seed.
* **Linear scaling** (``-m slow``) — generating 10^5 gates completes in
  seconds and doubling the gate count at that size costs at most ~2.5x
  wall-clock; a full dense-storage SSTA over the 10^5-gate circuit
  completes as the analysis-side smoke.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from repro.errors import NetlistError
from repro.netlist.benchmarks import PAPER_SUITE, load, spec_for
from repro.netlist.generate import (
    MAX_SCALED_GATES,
    CircuitSpec,
    generate_circuit,
)

GOLDEN = Path(__file__).parent / "golden" / "structure_fingerprints.json"


def fingerprint(circuit) -> str:
    """Order-sensitive structural hash: inputs, outputs, and every
    gate's cell/pin wiring in insertion order."""
    h = hashlib.sha256()
    h.update(("inputs:" + ",".join(circuit.inputs)).encode())
    h.update(("outputs:" + ",".join(circuit.outputs)).encode())
    for g in circuit.gates():
        h.update(
            f"gate:{g.output}={g.cell.name}({','.join(g.inputs)})".encode()
        )
    return h.hexdigest()


class TestFingerprintRegression:
    """The PAPER_SUITE circuits are byte-identical across the rewrite."""

    def test_golden_file_covers_the_suite(self):
        golden = json.loads(GOLDEN.read_text())
        for name in PAPER_SUITE:
            assert name in golden, f"no recorded fingerprint for {name}"

    @pytest.mark.parametrize("key", sorted(json.loads(GOLDEN.read_text())))
    def test_structure_locked(self, key):
        golden = json.loads(GOLDEN.read_text())
        if "@" in key:
            name, scale = key.split("@")
            circuit = load(name, scale=float(scale))
        else:
            circuit = load(key)
        assert fingerprint(circuit) == golden[key], (
            f"{key}: generated structure diverged from the pre-rewrite "
            "generator — the RNG draw stream changed"
        )


class TestScaledUp:
    def test_scaled_spec_is_validated_and_proportional(self):
        base = spec_for("c880")
        big = base.scaled(100)
        assert big.n_gates == 100 * base.n_gates
        # Fan-in mix (edges per gate) preserved to rounding.
        assert big.n_pin_edges / big.n_gates == pytest.approx(
            base.n_pin_edges / base.n_gates, rel=0.01
        )
        # Depth grows ~sqrt(factor): levels stay wide.
        assert big.depth == pytest.approx(base.depth * 10, abs=1)
        assert big.depth <= big.n_gates

    def test_generated_counts_exact_at_scale(self):
        spec = spec_for("c432").scaled(50)
        circuit = generate_circuit(spec)
        assert circuit.n_gates == spec.n_gates
        assert circuit.n_pin_edges == spec.n_pin_edges
        assert len(circuit.inputs) == spec.n_inputs
        assert circuit.depth() == spec.depth
        circuit.validate()

    def test_generation_is_deterministic(self):
        spec = spec_for("c880").scaled(30)
        assert fingerprint(generate_circuit(spec)) == fingerprint(
            generate_circuit(spec)
        )

    def test_scaled_down_unchanged(self):
        # Factor < 1 is the historical quick-path behavior; the golden
        # fingerprints include c432@0.25 / c880@0.25, so here it is
        # enough that the spec arithmetic still round-trips.
        small = spec_for("c880").scaled(0.25)
        assert small.n_gates == 91
        generate_circuit(small).validate()

    def test_gate_cap_raises_loudly(self):
        base = spec_for("c6288")
        with pytest.raises(NetlistError, match="MAX_SCALED_GATES"):
            base.scaled((MAX_SCALED_GATES // base.n_gates) + 10)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(NetlistError):
            spec_for("c17").scaled(0.0)
        with pytest.raises(NetlistError):
            spec_for("c17").scaled(-2)

    def test_infeasible_pin_edges_rejected(self):
        # More pin edges than max_fanin * gates cannot be wired.
        with pytest.raises(NetlistError, match="n_pin_edges"):
            CircuitSpec("bad", 8, 2, 10, 41, 3)


@pytest.mark.slow
class TestLargeScaleSmoke:
    """The 10^5-gate workload class (CI scale-smoke job, `-m slow`)."""

    def test_100k_gates_generate_in_seconds_with_linear_scaling(self):
        base = spec_for("c880")
        half = base.scaled(137)   # ~50k gates
        full = base.scaled(274)   # ~100k gates

        def best_of(spec, reps=3):
            best = float("inf")
            for _ in range(reps):
                t0 = time.perf_counter()
                circuit = generate_circuit(spec)
                best = min(best, time.perf_counter() - t0)
            return best, circuit

        t_half, _ = best_of(half)
        t_full, circuit = best_of(full)
        assert circuit.n_gates >= 100_000
        assert circuit.n_pin_edges == full.n_pin_edges
        assert t_full < 30.0, f"100k-gate generation took {t_full:.1f}s"
        # Linear scaling: 2x gates within ~2.5x wall-clock (measured
        # ~2.0x-2.4x; 2.8 leaves headroom for noisy CI runners).
        ratio = t_full / max(t_half, 1e-9)
        assert ratio < 2.8, (
            f"2x gates cost {ratio:.2f}x wall-clock — superlinear regression"
        )

    def test_100k_gate_ssta_completes(self):
        from repro.config import AnalysisConfig
        from repro.dist.pdf import DiscretePDF
        from repro.timing.delay_model import DelayModel
        from repro.timing.graph import TimingGraph
        from repro.timing.ssta import run_ssta

        spec = spec_for("c880").scaled(274)
        circuit = generate_circuit(spec)
        # Coarse grid keeps the smoke CI-sized.
        cfg = AnalysisConfig(dt=16.0)
        graph = TimingGraph(circuit)
        model = DelayModel(circuit, config=cfg)
        result = run_ssta(graph, model, config=cfg)
        assert all(isinstance(p, DiscretePDF) for p in result.arrivals)
        assert result.percentile(0.99) > result.sink_pdf.mean() > 0.0
