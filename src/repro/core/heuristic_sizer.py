"""Fast heuristic gate selection (the paper's stated future work).

The conclusions of the paper: "Future work includes development of
heuristics for fast and approximate identification of the statistically
most sensitive gate in the circuit", motivated by the observation that
when many gates have *similar* sensitivities, pruning struggles — and
exactly then the choice between near-tied gates barely matters.

:class:`HeuristicStatisticalSizer` implements the natural such
heuristic on top of the perturbation-front machinery:

1. ``Initialize`` every candidate's front (cheap: perturbation is only
   propagated to the candidate's own level) and rank candidates by the
   initial bound ``Smx`` — an optimistic estimate of their sensitivity;
2. propagate only the top ``beam_width`` fronts to the sink and pick
   the best *exact* sensitivity among them.

With ``beam_width = len(candidates)`` this degenerates to an unpruned
exact search; with small beams it trades a provably bounded amount of
optimality for a large constant-factor speedup (the selected gate's
sensitivity is at least the best finished sensitivity, and no pruned
gate can beat the *bound* of the worst beam member it lost to).  The
ablation benchmark quantifies the trade on the paper suite.
"""

from __future__ import annotations

from typing import List, Tuple

from ..dist.ops import OpCounter
from ..errors import OptimizationError
from .pruned_sizer import PrunedStatisticalSizer
from .sizer_base import IterationStats, Selection

__all__ = ["HeuristicStatisticalSizer"]


class HeuristicStatisticalSizer(PrunedStatisticalSizer):
    """Approximate statistical sizing: beam search over initial bounds.

    Parameters beyond :class:`PrunedStatisticalSizer`:

    beam_width:
        How many of the highest-``Smx`` candidates are propagated to
        the sink per iteration.  1 is the greediest (trust the bound
        ranking outright); 8-16 recovers the exact choice almost
        always at a fraction of the pruned search's cost.
    """

    name = "heuristic-statistical"

    def __init__(self, circuit, *, beam_width: int = 8, **kwargs) -> None:
        super().__init__(circuit, **kwargs)
        if beam_width < 1:
            raise OptimizationError(f"beam_width must be >= 1, got {beam_width}")
        self.beam_width = beam_width

    def _select_gate(self) -> Selection:
        dw = self.config.delta_w
        counter = OpCounter()
        base = self._refresh_base(counter)
        base_obj = self.objective.evaluate(base.sink_pdf)
        candidates = self._candidates()
        stats = IterationStats(candidates=len(candidates))

        fronts = self._build_fronts(base, candidates, dw, counter)
        # Rank by the post-Initialize bound — recorded at construction,
        # so a front resumed from a previous iteration ranks exactly as
        # the freshly built front would, keeping the beam membership
        # (and hence the selection) independent of reuse.
        ranked = sorted(fronts, key=lambda f: -f.initial_smx)
        beam = ranked[: self.beam_width]
        stats.pruned = len(ranked) - len(beam)

        best_front = None
        best_s = 0.0
        for front in beam:
            s = front.run_to_sink()
            stats.finished_fronts += 1
            if s > best_s:
                best_s = s
                best_front = front

        baseline = self._nodes_baseline
        stats.nodes_computed = sum(
            f.nodes_computed - baseline.get(id(f), 0) for f in fronts
        )
        stats.convolutions = counter.convolutions
        stats.max_ops = counter.max_ops
        stats.cache_hits = counter.cache_hits
        if best_front is None:
            return Selection([], base_obj, base_obj, stats)
        return Selection(
            [(best_front.gate, best_s)], base_obj, base_obj - best_s * dw, stats
        )
