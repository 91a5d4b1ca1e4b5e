"""Gate delay evaluation: EQ 1 plus the statistical model.

The nominal pin-to-pin delay follows the paper's EQ 1,

    De = Dint + K * Cload / Ccell,

with ``Ccell = w * cell_cap`` so up-sizing speeds the gate, and
``Cload`` the sum of the fan-out pins' input capacitances (each scaling
with *its* gate's width), per-fan-out wire capacitance, and the fixed
primary-output load.  The statistical delay is a truncated Gaussian
around the nominal with ``sigma = sigma_fraction * nominal`` cut at
``truncation_sigma`` (Section 4: 10% and 3-sigma).

:class:`DelayModel` evaluates everything *live* from current gate
widths, with a memoized PDF cache keyed by (cell, width, load) — during
sizing, thousands of gates share identical operating points, so the
cache removes most discretization work.

A full analysis takes every gate's delay at once through
:meth:`DelayModel.delay_snapshot`: EQ 1 once per gate, then one
:meth:`delay_pdf` call per exact operating point the model has not
seen yet.  A cold ``ssta-10k`` pass (9,855 gates, 1,300 distinct
points) makes 1,300 calls instead of 9,855, and a warm pass none.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..config import AnalysisConfig, DEFAULT_CONFIG
from ..dist.families import truncated_gaussian_pdf
from ..dist.pdf import DiscretePDF
from ..errors import TimingError
from ..library.library import CellLibrary, default_library
from ..netlist.circuit import Circuit, Gate

__all__ = ["DelayModel"]


class DelayModel:
    """Computes nominal delays, sigmas, and delay PDFs for a circuit."""

    def __init__(
        self,
        circuit: Circuit,
        library: Optional[CellLibrary] = None,
        config: AnalysisConfig = DEFAULT_CONFIG,
    ) -> None:
        self.circuit = circuit
        self.library = library if library is not None else default_library()
        self.config = config
        self._output_set = set(circuit.outputs)
        self._pdf_cache: Dict[Tuple[str, float, float], DiscretePDF] = {}
        #: exact (cell, width, nominal) -> the PDF delay_pdf returned
        self._point_pdfs: Dict[Tuple[str, float, float], DiscretePDF] = {}

    # ------------------------------------------------------------------
    # Electrical model
    # ------------------------------------------------------------------
    def load_cap(self, net: str) -> float:
        """Total capacitance (fF) loading ``net``: fan-out input pins at
        their current widths, wire capacitance per fan-out, and the
        primary-output load when the net leaves the block."""
        total = 0.0
        fanouts = self.circuit.fanouts(net)
        for gate, _pin in fanouts:
            total += gate.cell.input_cap_at(gate.width)
        total += self.library.wire_cap_per_fanout * len(fanouts)
        if net in self._output_set:
            total += self.library.primary_output_cap
        return total

    def nominal_delay(self, gate: Gate) -> float:
        """EQ 1 evaluated at the gate's current width and live load."""
        return gate.cell.delay(gate.width, self.load_cap(gate.output))

    def sigma(self, gate: Gate) -> float:
        """Standard deviation of the gate delay (ps)."""
        return self.config.sigma_fraction * self.nominal_delay(gate)

    def delay_pdf(self, gate: Gate) -> DiscretePDF:
        """Discretized truncated-Gaussian pin-to-pin delay distribution
        at the gate's current operating point."""
        nominal = self.nominal_delay(gate)
        key = (gate.cell.name, round(gate.width, 9), round(nominal, 6))
        pdf = self._pdf_cache.get(key)
        if pdf is None:
            pdf = truncated_gaussian_pdf(
                self.config.dt,
                nominal,
                self.config.sigma_fraction * nominal,
                truncation=self.config.truncation_sigma,
                trim_eps=self.config.tail_eps,
            )
            self._pdf_cache[key] = pdf
        return pdf

    def delay_snapshot(self) -> Dict[str, DiscretePDF]:
        """Every gate's delay PDF, keyed by output net in topological
        order: each entry is the object :meth:`delay_pdf` returns for
        that gate at the current widths.

        Each gate's EQ 1 nominal is computed once, and :meth:`delay_pdf`
        is called once per exact operating point (cell, width, nominal)
        this model has not seen before, for its first gate in
        topological order; the gates sharing a point share its object,
        and a later snapshot reuses it.  Two points whose nominals
        differ by an ulp can round to one memo key; the first in
        topological order then fixes the key's PDF, exactly as a
        per-gate loop in that order would.
        """
        nominal_delay = self.nominal_delay
        delay_pdf = self.delay_pdf
        points = self._point_pdfs
        snapshot: Dict[str, DiscretePDF] = {}
        for gate in self.circuit.topo_gates():
            point = (gate.cell.name, gate.width, nominal_delay(gate))
            pdf = points.get(point)
            if pdf is None:
                pdf = points[point] = delay_pdf(gate)
            snapshot[gate.output] = pdf
        return snapshot

    # ------------------------------------------------------------------
    # Sizing support
    # ------------------------------------------------------------------
    def gates_affected_by_resize(self, gate: Gate) -> List[Gate]:
        """Gates whose delay changes when ``gate`` is resized: the gate
        itself (its drive changes), then the drivers of its input nets
        in pin order (their loads change).  Input nets are distinct and
        never the gate's own output, so each gate appears once.  This
        is exactly the set the paper's ``Initialize`` perturbs (Figure
        7, step 1).  The order is deterministic — ``Gate`` hashes by
        identity, so a set would iterate in memory-address order — and
        callers that stop at the first mismatch
        (``PerturbationFront.try_rebase``) then do the same work on
        every run."""
        return [gate] + [
            self.circuit.gate(net)
            for net in gate.inputs
            if self.circuit.has_gate(net)
        ]

    def nominal_delays(self) -> Dict[str, float]:
        """Snapshot of every gate's nominal delay keyed by gate name."""
        return {g.output: self.nominal_delay(g) for g in self.circuit.gates()}

    def cache_info(self) -> Tuple[int, int]:
        """(entries, bins) held by the PDF cache — used by runtime
        experiments to report memory-side effects."""
        entries = len(self._pdf_cache)
        bins = sum(p.n_bins for p in self._pdf_cache.values())
        return entries, bins

    def clear_cache(self) -> None:
        """Drop all memoized PDFs (e.g. after a config change)."""
        self._pdf_cache.clear()
        self._point_pdfs.clear()
