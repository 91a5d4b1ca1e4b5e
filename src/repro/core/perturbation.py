"""Perturbation fronts and the Theorem 1-4 sensitivity bounds.

This module implements the paper's central machinery (Sections 3.2 and
3.3).  Up-sizing a candidate gate ``x`` perturbs the delay PDFs of
``x`` and of the gates driving its inputs (their load grows).  Instead
of re-running SSTA over the whole circuit, a :class:`PerturbationFront`
propagates only the *perturbed* arrival CDFs forward, level by level,
re-using the unperturbed SSTA arrivals everywhere else.

For every perturbed node ``i`` the front records

    delta_i = max_p [ T(A_i, p) - T(A'_i, p) ],

the maximum horizontal gap between unperturbed and perturbed CDFs.
Theorems 1-3 prove this gap cannot grow through convolution or the
independence max, and Theorem 4 lifts that to the whole front: the
eventual gap at the sink is bounded by ``delta_mx``, the maximum
``delta_i`` over the *active cut* — perturbed nodes that still have
un-propagated fan-out arcs.  Dividing by ``dw`` gives the front
sensitivity bound

    Smx = delta_mx / dw  >=  Sx,

which the pruned sizer uses to discard candidates early.

Sign subtlety (the paper implicitly assumes improvements): when a
perturbation *degrades* a node (``delta_i < 0``), a downstream
statistical max with an unperturbed arrival can mask the degradation,
so ``delta`` may rise back toward zero.  The precise invariant is
therefore ``delta_downstream <= max(delta_mx, 0)``: non-increasing in
the positive regime, and never able to cross from negative to a
positive value.  Pruning soundness is unaffected — the exact
sensitivity satisfies ``Sx <= max(Smx, 0)``, and a candidate is only
ever selected when its sensitivity strictly exceeds ``Max_S >= 0``.

Construction and Initialize are separate steps.  Constructing a front
seeds Initialize (the perturbed delays, the scheduled output nets and
the level to reach); the propagation up to the candidate's level runs
either in the constructor or, for many fronts at once, in
:func:`initialize_fronts`, which advances every front's next level
through one shared scheduler call per round.  Heap-driven advances
(:meth:`PerturbationFront.propagate_one_level`) reuse the same
gather/apply halves one front at a time.

Exactness guarantee: the front computes perturbed arrivals with the
*same* kernel (:func:`repro.timing.ssta.compute_node_arrival`), the
same delay-PDF cache, and the same unperturbed inputs a full SSTA rerun
would use, so a front propagated all the way to the sink reproduces the
brute-force sink distribution **bit for bit** — pruning never changes
the optimizer's decisions, only its cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..dist.backends import get_backend
from ..dist.metrics import max_percentile_gap
from ..dist.ops import OpCounter
from ..dist.pdf import DiscretePDF
from ..errors import OptimizationError
from ..netlist.circuit import Gate
from ..timing.delay_model import DelayModel
from ..timing.graph import TimingGraph
from ..timing.ssta import (
    NodeParts,
    SSTAResult,
    compute_level_arrivals,
    compute_node_arrival,
    node_fanin_parts,
)
from .objectives import Objective

__all__ = ["PerturbationFront", "initialize_fronts"]

_NEG_INF = float("-inf")


def _identical(a: DiscretePDF, b: DiscretePDF) -> bool:
    """Bitwise equality of two distributions on the same grid.

    The identity shortcut matters with the node memo enabled: an
    absorbed perturbation resolves to the *same object* the base SSTA
    stored, so most checks never touch the mass vectors.
    """
    if a is b:
        return True
    return (
        a.offset == b.offset
        and a.n_bins == b.n_bins
        and np.array_equal(a.masses, b.masses)
    )


def _slot_gap(base: DiscretePDF, pert: DiscretePDF) -> Optional[float]:
    """The gap ``pert`` keeps for this very ``base`` object, or None
    (see :meth:`PerturbationFront._percentile_gap`)."""
    entry = getattr(pert, "_gap", None)
    if entry is not None and entry[0] is base:
        return entry[1]
    return None


class PerturbationFront:
    """Level-by-level propagation of one candidate gate's perturbation.

    Construction seeds the paper's ``Initialize`` (Figure 7): the
    candidate is temporarily up-sized, the delay PDFs of the affected
    gates are re-evaluated, and their output nets are scheduled.
    Initialize then advances the front to the candidate's own level so
    that :attr:`smx` is available for the first sort.  By default the
    constructor runs that propagation itself, through
    :func:`initialize_fronts` on ``[self]``; with ``initialize=False``
    it is left to one :func:`initialize_fronts` call over many fronts
    (the pruned sizer's steps 3-4), which batches every front's levels
    together.  Either way the front ends Initialize in the same state,
    bit for bit.

    Afterwards, :meth:`propagate_one_level` (Figure 9) advances the
    front one level at a time; :attr:`smx` is non-increasing along the
    way (the property tests assert this).  When the front reaches the
    sink — or dies out because every perturbed CDF collapsed back onto
    its unperturbed value — :attr:`sensitivity` holds the exact ``Sx``.

    Unperturbed inputs come from the base analysis: arrivals from
    ``base.arrivals`` and gate delays from the ``base.delays`` snapshot
    (the very objects the base pass convolved with).  When the base
    kept an arc memo (``base.arcs``), an arc whose arrival and delay
    are both unperturbed reuses the base pass's finished ADD result
    instead of convolving again.

    Parameters
    ----------
    drop_identical:
        Retire perturbed nodes whose CDF equals the unperturbed CDF
        bitwise.  This is exact (their downstream influence is nil) and
        lets absorbed perturbations terminate early; disable to follow
        the paper's pseudocode to the letter.
    initialize:
        Run Initialize during construction (the default).  ``False``
        leaves it to a later :func:`initialize_fronts` call.
    """

    def __init__(
        self,
        graph: TimingGraph,
        model: DelayModel,
        base: SSTAResult,
        gate: Gate,
        dw: float,
        objective: Objective,
        *,
        counter: Optional[OpCounter] = None,
        drop_identical: bool = True,
        initialize: bool = True,
    ) -> None:
        if dw <= 0.0:
            raise OptimizationError(f"dw must be positive, got {dw}")
        self.graph = graph
        self.model = model
        self.base = base
        self.gate = gate
        self.dw = dw
        self.objective = objective
        self.counter = counter
        self.drop_identical = drop_identical
        # Resolve once from the analysis config: the front's bitwise
        # exactness claim is against a full SSTA rerun *under the same
        # backend*, so both must take the kernel from the same knob.
        # The result cache rides along identically: sibling fronts and
        # later iterations re-visit nodes whose fan-in the node memo
        # has already seen.
        self._backend = get_backend(model.config.backend)
        self._cache = model.config.cache

        #: perturbed arrival PDFs of live nodes (the paper's A'set entries)
        self._perturbed: Dict[int, DiscretePDF] = {}
        #: remaining un-propagated fan-out arcs per computed node
        self._pending: Dict[int, int] = {}
        #: delta_i per *active* computed node
        self._delta: Dict[int, float] = {}
        #: scheduled-but-not-yet-computed nodes
        self._scheduled: Set[int] = set()
        #: perturbed delay PDFs, keyed by gate name
        self._perturbed_delay: Dict[str, DiscretePDF] = {}
        #: gates whose delay PDFs this candidate perturbs (Figure 7)
        self._affected: List[Gate] = []

        # Dependency ledger for cross-iteration reuse (:meth:`try_rebase`):
        # every unperturbed input the front has consumed so far, recorded
        # *by object*.  The incremental update keeps unchanged arrivals
        # object-identical across sizing iterations, and the delay
        # model returns one object per operating point, so identity
        # checks decide reusability exactly.
        #: node -> unperturbed arrival object consumed there
        self._dep_arrivals: Dict[int, DiscretePDF] = {}
        #: gate output net -> unperturbed delay PDF object consumed
        self._dep_delays: Dict[str, DiscretePDF] = {}

        #: bound after Initialize (before any on-demand propagation) —
        #: recorded so beam-style consumers can rank resumed fronts by
        #: the same key a freshly built front would have produced.
        self.initial_smx: float = _NEG_INF

        self.curr_level: int = 0
        self.levels_propagated: int = 0
        self.nodes_computed: int = 0
        self.reached_sink: bool = False
        self.sink_pdf: Optional[DiscretePDF] = None
        self.sensitivity: Optional[float] = None
        self._smx: float = _NEG_INF
        #: Initialize propagates through this level (the candidate's own)
        self._init_level: int = 0

        self._seed()
        if initialize:
            initialize_fronts([self])

    # ------------------------------------------------------------------
    # Public state
    # ------------------------------------------------------------------
    @property
    def smx(self) -> float:
        """Current sensitivity bound ``Smx = delta_mx / dw``.

        Once the exact sensitivity is known (front finished) this
        returns it, so sorting keys stay meaningful throughout.
        """
        if self.sensitivity is not None:
            return self.sensitivity
        return self._smx

    @property
    def is_done(self) -> bool:
        """True when no nodes remain to propagate."""
        return not self._scheduled

    @property
    def front_size(self) -> int:
        """Number of live nodes (computed-active plus scheduled)."""
        return len(self._delta) + len(self._scheduled)

    # ------------------------------------------------------------------
    # Initialize (Figure 7)
    # ------------------------------------------------------------------
    def _seed(self) -> None:
        """Initialize's construction half: perturbed delays of the
        affected gates, their output nets scheduled, and the level
        Initialize propagates through."""
        affected = self._affected = self.model.gates_affected_by_resize(
            self.gate
        )
        original = self.gate.width
        self.gate.width = original + self.dw
        try:
            for g in affected:
                self._perturbed_delay[g.output] = self.model.delay_pdf(g)
        finally:
            self.gate.width = original

        for g in affected:
            self._scheduled.add(self.graph.gate_output_node(g))
        self.curr_level = min(self.graph.level(n) for n in self._scheduled)
        self._init_level = self.graph.level(
            self.graph.gate_output_node(self.gate)
        )

    @property
    def _initializing(self) -> bool:
        """True while Initialize still has a level to propagate."""
        return bool(self._scheduled) and self.curr_level <= self._init_level

    # ------------------------------------------------------------------
    # PropagateOneLevel (Figure 9)
    # ------------------------------------------------------------------
    def _get_arrival(self, node: int) -> DiscretePDF:
        pdf = self._perturbed.get(node)
        if pdf is not None:
            return pdf
        pdf = self._dep_arrivals[node] = self.base.arrivals[node]
        return pdf

    def _get_delay_pdf(self, gate: Gate) -> DiscretePDF:
        pdf = self._perturbed_delay.get(gate.output)
        if pdf is not None:
            return pdf
        pdf = self._dep_delays[gate.output] = self.base.delays[gate.output]
        return pdf

    def propagate_one_level(self) -> None:
        """Advance the front to the next level that has scheduled nodes
        and compute the perturbed arrivals there.

        Under ``config.level_batch`` (the default) the level's nodes —
        mutually independent, like every level batch — run through the
        shared scheduler: one ``convolve_many`` dispatch, one grouped
        MAX sweep.  Gathering every node's fan-in operands before any
        computation is equivalent to the sequential interleave because
        the per-node bookkeeping only ever retires a perturbed fan-in
        once its *last* outstanding arc is consumed — a fan-in feeding
        two nodes of this level survives the first node's retirement
        exactly as it does sequentially.
        """
        if not self._scheduled:
            self._finish()
            return
        if self.model.config.level_batch:
            _advance_together([self])
        else:
            self._advance_sequential()

    def _next_level(self) -> List[int]:
        """Gather half, first step: move to the lowest scheduled level
        and return its nodes in ascending order."""
        graph = self.graph
        level = min(graph.level(n) for n in self._scheduled)
        self.curr_level = level
        return sorted(n for n in self._scheduled if graph.level(n) == level)

    def _gather(self, nodes: List[int]) -> List[NodeParts]:
        """Gather half: the fan-in operands of ``nodes``."""
        return [
            node_fanin_parts(
                self.graph, node, self._get_arrival, self._get_delay_pdf
            )
            for node in nodes
        ]

    def _advance_sequential(self) -> None:
        """One level through the per-node reference kernel, each node's
        bookkeeping applied right after its arrival is computed."""
        cfg = self.model.config
        for node in self._next_level():
            self._apply_node(
                node,
                compute_node_arrival(
                    self.graph,
                    node,
                    self._get_arrival,
                    self._get_delay_pdf,
                    trim_eps=cfg.tail_eps,
                    counter=self.counter,
                    backend=self._backend,
                    cache=self._cache,
                    arcs=self.base.arcs,
                ),
            )
        self._end_level()

    def _apply_node(
        self, node: int, perturbed: DiscretePDF,
        same: Optional[bool] = None,
    ) -> None:
        """Apply half, per node: retire fan-ins, then record the gap
        and schedule the fan-out (or finish at the sink).  ``same`` is
        the level merge's verdict on whether ``perturbed`` is bitwise
        the base arrival (None: not compared, check here)."""
        self._scheduled.discard(node)
        self.nodes_computed += 1
        self._retire_fanins(node)
        # The dependency ledger records the base object (its identity
        # is what try_rebase checks).
        base_pdf = self._dep_arrivals[node] = self.base.arrivals[node]
        if same is None:
            # A gap slot for this very base marks a result that is not
            # bitwise the base (see _percentile_gap).
            same = _slot_gap(base_pdf, perturbed) is None and _identical(
                perturbed, base_pdf
            )
        if self.drop_identical and same:
            return  # perturbation fully absorbed at this node
        if node == self.graph.sink:
            self.reached_sink = True
            self.sink_pdf = perturbed
            self.sensitivity = (
                self.objective.improvement(base_pdf, perturbed) / self.dw
            )
            return
        if same:
            # Kept only without drop_identical; no slot marks it.
            delta = max_percentile_gap(base_pdf, perturbed)
        else:
            delta = self._percentile_gap(base_pdf, perturbed)
        fanouts = self.graph.fanout_edges(node)
        self._perturbed[node] = perturbed
        self._pending[node] = len(fanouts)
        self._delta[node] = delta
        for edge in fanouts:
            if edge.dst not in self._perturbed:
                self._scheduled.add(edge.dst)

    def _end_level(self) -> None:
        """Apply half, per level: step past it and refresh ``Smx``."""
        self.levels_propagated += 1
        self.curr_level += 1
        self._refresh_smx()
        if not self._scheduled:
            self._finish()

    def _percentile_gap(self, base: DiscretePDF, pert: DiscretePDF) -> float:
        """Theorem-4 delta of a result that is not bitwise its base,
        memoized on the result.

        The gap costs as much as the kernel work it measures, and the
        same (base, perturbed) pair recurs: a node-memo hit returns the
        very result object an earlier front computed against the very
        same base arrival (sibling fronts, rebuilt fronts of later
        iterations, a warm service request).  So each result keeps its
        last gap in its ``_gap`` slot, a ``(base, gap)`` pair dropped
        by pickling like the result's memos, and read only while
        ``base`` is that very object: bit-exact, with no hashing.  A
        slot is written only for a result that is not bitwise its base,
        which lets a hit skip the identity check too.  The level merge
        fills it when it builds a result against its base; otherwise
        the gap is computed here and stored.  The pair is written at
        once, so a racing thread reads an old pair or a new one, each
        correct for its own base.
        """
        gap = _slot_gap(base, pert)
        if gap is None:
            gap = max_percentile_gap(base, pert)
            object.__setattr__(pert, "_gap", (base, gap))
        return gap

    def _retire_fanins(self, node: int) -> None:
        """Decrement pending fan-out counts of this node's perturbed
        fan-ins; fully propagated nodes leave the active cut (and their
        stored PDFs are released, as in the paper's fo_count scheme)."""
        for edge in self.graph.fanin_edges(node):
            src = edge.src
            remaining = self._pending.get(src)
            if remaining is None:
                continue
            if remaining <= 1:
                del self._pending[src]
                del self._delta[src]
                del self._perturbed[src]
            else:
                self._pending[src] = remaining - 1

    def _refresh_smx(self) -> None:
        if self._delta:
            self._smx = max(self._delta.values()) / self.dw
        elif self._scheduled:
            # Between Initialize sub-steps every computed node may have
            # retired while fanouts are still scheduled; keep the last
            # bound (it is still valid and non-increasing).
            pass
        else:
            self._smx = _NEG_INF

    def _finish(self) -> None:
        """Front exhausted: if the sink was never reached the
        perturbation died out and the exact sensitivity is zero."""
        if self.sensitivity is None:
            self.sensitivity = 0.0
        self._smx = self.sensitivity

    # ------------------------------------------------------------------
    # Cross-iteration reuse
    # ------------------------------------------------------------------
    def try_rebase(self, new_base: SSTAResult) -> bool:
        """Adopt a fresh base SSTA result if — and only if — every input
        this front has consumed so far is unchanged, and return whether
        that succeeded.

        The check is exact and conservative: the perturbed delay PDFs
        are re-derived at the candidate's *current* width and compared
        by object identity against the ones the front was built from,
        and every recorded unperturbed dependency must be the identical
        object in ``new_base``: each base arrival read against
        ``new_base.arrivals``, and each unaffected gate's delay PDF
        against ``new_base.delays`` — the objects a front reads, so no
        delay is re-derived for them.  Identity implies equal content,
        and no cache is needed for unchanged inputs to stay identical:
        the delay model returns one object per operating point, and
        :func:`~repro.timing.incremental.update_ssta_after_resize`
        refreshes the delay of every gate a resize affects and
        replaces only arrivals whose bits changed.  A base recomputed
        from scratch holds new objects everywhere (unless a node memo
        returns the stored ones), so a front rebases onto it only
        through the cache.  On success
        the front's state (including a finished front's exact
        sensitivity) is bitwise the state a freshly built front would
        reach at the same level under ``new_base``, by induction over
        the identical inputs; propagation simply continues against the
        new base.  On failure the caller rebuilds the front from
        scratch — reuse can only ever skip work, never change answers.
        """
        # The candidate's perturbation must re-derive identically at
        # today's widths and loads (a resized neighbor, or the gate
        # itself having won, shows up right here).
        original = self.gate.width
        self.gate.width = original + self.dw
        try:
            for g in self._affected:
                if self.model.delay_pdf(g) is not self._perturbed_delay[g.output]:
                    return False
        finally:
            self.gate.width = original
        for node, pdf in self._dep_arrivals.items():
            if new_base.arrivals[node] is not pdf:
                return False
        delays = new_base.delays
        for net, pdf in self._dep_delays.items():
            if delays[net] is not pdf:
                return False
        self.base = new_base
        return True

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def run_to_sink(self) -> float:
        """Propagate until finished and return the exact sensitivity —
        the standalone (unpruned) use of the front machinery."""
        while not self.is_done:
            self.propagate_one_level()
        if self.sensitivity is None:  # pragma: no cover - defensive
            self._finish()
        assert self.sensitivity is not None
        return self.sensitivity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.is_done else f"level {self.curr_level}"
        return (
            f"PerturbationFront(gate={self.gate.name!r}, {state}, "
            f"smx={self.smx:.4g}, live={self.front_size})"
        )


# ----------------------------------------------------------------------
# Many fronts at once
# ----------------------------------------------------------------------
def _advance_together(fronts: Sequence[PerturbationFront]) -> None:
    """Advance each front by its next level, all through **one**
    :func:`~repro.timing.ssta.compute_level_arrivals` call.

    Nodes of different fronts never depend on each other (each front
    reads only its own perturbed arrivals, which earlier levels already
    computed), and a front's own level is mutually independent, so the
    union is a valid batch: every result is bitwise the one a per-front
    call would return.  The gather half of every front runs before any
    apply half, which touches only its own front's state."""
    head = fronts[0]
    cfg = head.model.config
    steps = []
    parts_list: List[NodeParts] = []
    # Each node's unperturbed arrival goes into the merge, which then
    # returns the identity check and the gap with the result (the sink
    # needs neither: the objective reads it directly).
    bases: List[Optional[DiscretePDF]] = []
    for front in fronts:
        nodes = front._next_level()
        steps.append((front, nodes, len(parts_list)))
        parts_list.extend(front._gather(nodes))
        arrivals = front.base.arrivals
        sink = front.graph.sink
        bases.extend([None if n == sink else arrivals[n] for n in nodes])
    results, same = compute_level_arrivals(
        parts_list,
        trim_eps=cfg.tail_eps,
        counter=head.counter,
        backend=head._backend,
        cache=head._cache,
        arcs=head.base.arcs,
        bases=bases,
    )
    for front, nodes, start in steps:
        for j, node in enumerate(nodes, start):
            front._apply_node(node, results[j], same[j])
        front._end_level()


def initialize_fronts(fronts: Sequence[PerturbationFront]) -> None:
    """Run Initialize (Figure 7) for freshly constructed fronts.

    Under ``config.level_batch`` (the default) the fronts advance in
    rounds: each round gathers every still-initializing front's next
    level into one scheduler call, then applies each front's
    bookkeeping.  Without it each front steps through the per-node
    reference path alone.  Either way every front ends in exactly the
    state it would reach initialized by itself — the same perturbed
    arrivals, gaps, schedule, ``initial_smx`` and work counts — and the
    summed :class:`~repro.dist.ops.OpCounter` tallies match, because
    the scheduler's results and tallies do not depend on how its batch
    is composed.

    The fronts must share one model (hence backend and cache) and one
    counter, and must not have been initialized yet.
    """
    if not fronts:
        return
    head = fronts[0]
    for front in fronts:
        if (
            front.model is not head.model
            or front._backend is not head._backend
            or front._cache is not head._cache
            or front.counter is not head.counter
        ):
            raise OptimizationError(
                "fronts initialized together must share model, backend, "
                "cache and counter"
            )
        if front.levels_propagated:
            # Initialize always propagates at least the candidate's
            # own level, so this front has been initialized already.
            raise OptimizationError(
                f"front for gate {front.gate.name!r} is already initialized"
            )
    live = [f for f in fronts if f._initializing]
    if head.model.config.level_batch:
        while live:
            _advance_together(live)
            live = [f for f in live if f._initializing]
    else:
        for front in live:
            while front._initializing:
                front._advance_sequential()
    for front in fronts:
        front.initial_smx = front.smx
