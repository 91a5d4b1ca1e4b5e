"""The paper's accelerated statistical sizer (Figure 6).

Each iteration searches for the most sensitive gate *without* a full
SSTA per candidate:

1. refresh the unperturbed arrivals (step 2): the first iteration runs
   a full SSTA pass that keeps its arc memo, and every later one
   brings that same result up to date with the exact incremental wave
   over the previous iteration's resized gates
   (:func:`~repro.timing.incremental.update_ssta_after_resize`),
   bitwise what a full pass would give, with unchanged arrivals kept
   as the same objects;
2. ``Initialize`` a perturbation front per candidate gate (steps 3-4),
   all candidates together: every Initialize runs unconditionally
   before the first pop, so their levels advance in rounds, one
   batched scheduler call per round
   (:func:`~repro.core.perturbation.initialize_fronts`) — the same
   fronts, bit for bit, as initializing them one at a time;
3. keep candidates ordered by their sensitivity bound ``Smx``
   (step 5); repeatedly advance the *most promising* front one level
   (steps 7-10), so a highly sensitive gate reaches the sink early and
   its exact ``Sx`` raises ``Max_S``;
4. discard any candidate whose bound falls below ``Max_S`` — by
   Theorem 4 it can never win (step 20);
5. when the candidate list empties, size the winner by ``dw``
   (step 22) and iterate until no gate helps (``Max_S <= 0``).

The ordered list is a lazy max-heap: a front's ``Smx`` only changes
when *we* propagate it (it is non-increasing, Theorems 1-3), so heap
keys are exact at push time and the pop order matches the paper's
sorted ``gate_list``.  Pruning decisions use strict inequality
(``Smx < Max_S``), exactly as in step 20, so ties are propagated, never
guessed — this optimizer selects the same gates as the brute-force
sizer, bit for bit.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from ..dist.ops import OpCounter
from ..errors import OptimizationError
from ..netlist.circuit import Gate
from ..timing.incremental import update_ssta_after_resize
from ..timing.ssta import SSTAResult, run_ssta
from .objectives import Objective
from .perturbation import PerturbationFront, initialize_fronts
from .sizer_base import IterationStats, Selection, SizerBase

__all__ = ["PrunedStatisticalSizer"]


class PrunedStatisticalSizer(SizerBase):
    """Statistical sizing with perturbation-bound pruning.

    Parameters beyond :class:`SizerBase`:

    drop_identical:
        Let fronts retire nodes whose perturbed CDF is bitwise equal to
        the unperturbed one (exact shortcut; see
        :class:`~repro.core.perturbation.PerturbationFront`).
    gates_per_iteration:
        Size the top ``N`` gates per iteration instead of one — the
        modification the paper points out after Figure 6.  The pruning
        threshold generalizes from ``Max_S`` to the ``N``-th best
        finished sensitivity, which is still exact with respect to the
        top-``N`` set; per-iteration objective values become
        first-order estimates (re-anchored by the next SSTA).

    Because the base is refreshed incrementally, the sizer *reuses
    perturbation fronts across iterations*, cache or no cache: a
    candidate whose recorded dependencies are unchanged (see
    :meth:`~repro.core.perturbation.PerturbationFront.try_rebase`)
    resumes from its previous state — a finished front contributes its
    exact sensitivity for free — instead of re-running ``Initialize``
    and re-propagating.  This changes only *where* the heap starts each
    front, never the selection: pruning uses bounds that are valid at
    every level, the eventual winner's bound can never fall below the
    selection threshold, and exact ties are resolved by candidate order
    independent of completion order — so the selected gates, their
    sensitivities, and the resulting sizes are bitwise identical to the
    brute-force sizer's, with the cache on or off (the sizer-golden and
    exactness tests pin this).

    The incremental wave runs at the top of the iteration that needs
    it, so its kernel tallies land in that iteration's
    :class:`~repro.core.sizer_base.IterationStats`.
    """

    name = "pruned-statistical"

    def __init__(
        self,
        circuit,
        *,
        drop_identical: bool = True,
        gates_per_iteration: int = 1,
        **kwargs,
    ) -> None:
        super().__init__(circuit, **kwargs)
        if not self.objective.shift_bounded:
            raise OptimizationError(
                f"objective {self.objective.name!r} is not bounded by "
                "horizontal CDF shifts; Theorem 4 pruning would be unsound. "
                "Use BruteForceStatisticalSizer for this objective."
            )
        if gates_per_iteration < 1:
            raise OptimizationError(
                f"gates_per_iteration must be >= 1, got {gates_per_iteration}"
            )
        self.drop_identical = drop_identical
        self.gates_per_iteration = gates_per_iteration
        self._base: Optional[SSTAResult] = None
        #: gates resized since ``_base`` was last brought up to date
        self._resized: List[Gate] = []
        #: previous iteration's fronts by gate name (cross-iteration
        #: reuse)
        self._fronts: dict = {}

    def run(self):
        # Widths may have changed since a previous run: start from a
        # full pass.
        self._base = None
        self._resized = []
        return super().run()

    def _after_apply(self, gates) -> None:
        self._resized.extend(gates)

    def _refresh_base(self, counter: OpCounter) -> SSTAResult:
        if self._base is None:
            self._base = run_ssta(
                self.graph, self.model, counter=counter, keep_arcs=True
            )
        elif self._resized:
            update_ssta_after_resize(
                self._base, self.model, self._resized, counter=counter
            )
            self._resized = []
        return self._base

    def _build_fronts(self, base, candidates, dw, counter):
        """One front per candidate: resumed from the previous iteration
        when its dependencies are unchanged, freshly constructed
        otherwise; the fresh fronts are then initialized together in
        one :func:`~repro.core.perturbation.initialize_fronts` call.
        ``nodes_computed`` baselines are snapshotted so the iteration
        stats count only this iteration's work."""
        previous = self._fronts
        fronts = []
        fresh = []
        self._nodes_baseline = baseline = {}
        for gate in candidates:
            front = previous.get(gate.name)
            if (
                front is not None
                and front.gate is gate
                and front.try_rebase(base)
            ):
                front.counter = counter
                baseline[id(front)] = front.nodes_computed
            else:
                front = PerturbationFront(
                    self.graph,
                    self.model,
                    base,
                    gate,
                    dw,
                    self.objective,
                    counter=counter,
                    drop_identical=self.drop_identical,
                    initialize=False,
                )
                fresh.append(front)
            fronts.append(front)
        initialize_fronts(fresh)
        self._fronts = {f.gate.name: f for f in fronts}
        return fronts

    def _select_gate(self) -> Selection:
        dw = self.config.delta_w
        n_select = self.gates_per_iteration
        counter = OpCounter()
        base = self._refresh_base(counter)
        base_obj = self.objective.evaluate(base.sink_pdf)
        candidates = self._candidates()
        stats = IterationStats(candidates=len(candidates))

        fronts = self._build_fronts(base, candidates, dw, counter)

        # Min-heap of the current top-N finished fronts, keyed by
        # (sensitivity, -candidate order): the heap minimum is the
        # entry that loses to any contender — strictly smaller
        # sensitivity, or an equal sensitivity at a *later* candidate
        # position.  The order tiebreak mirrors the brute-force loop
        # (first candidate wins among exact ties); without it the
        # winner of a tie would depend on front completion order.
        top: List[Tuple[float, int, PerturbationFront]] = []

        def threshold() -> float:
            return top[0][0] if len(top) >= n_select else 0.0

        def record(front: PerturbationFront, order: int) -> None:
            s = front.sensitivity
            assert s is not None
            stats.finished_fronts += 1
            if s <= 0.0:
                return
            if len(top) < n_select:
                heapq.heappush(top, (s, -order, front))
            elif (s, -order) > top[0][:2]:
                heapq.heapreplace(top, (s, -order, front))

        heap: List[Tuple[float, int, PerturbationFront]] = [
            (-f.smx, i, f) for i, f in enumerate(fronts)
        ]
        heapq.heapify(heap)
        while heap:
            _neg, idx, front = heapq.heappop(heap)
            if front.sensitivity is not None:
                # Front finished during Initialize or a previous pop.
                record(front, idx)
                continue
            if front.smx < threshold():
                stats.pruned += 1
                continue
            front.propagate_one_level()
            if front.sensitivity is not None:
                record(front, idx)
            else:
                heapq.heappush(heap, (-front.smx, idx, front))

        baseline = self._nodes_baseline
        stats.nodes_computed = sum(
            f.nodes_computed - baseline.get(id(f), 0) for f in fronts
        )
        stats.convolutions = counter.convolutions
        stats.max_ops = counter.max_ops
        stats.cache_hits = counter.cache_hits
        if not top:
            return Selection([], base_obj, base_obj, stats)
        winners = sorted(top, key=lambda item: (-item[0], -item[1]))
        moves = [(front.gate, s) for s, _i, front in winners]
        estimate = base_obj - sum(s for _g, s in moves) * dw
        return Selection(moves, base_obj, estimate, stats)
