"""Incremental SSTA: exact arrival updates after a sizing commit.

The paper's outer loop re-runs a full SSTA at the top of every sizing
iteration (Figure 6, step 2).  That is wasteful: committing one gate's
width change perturbs only the gates whose delays changed (the gate and
its fan-in drivers) and their downstream cone.  This module updates an
existing :class:`~repro.timing.ssta.SSTAResult` *in place of* a full
rerun by re-propagating exactly that cone — the same level-ordered
sweep a perturbation front performs, but committing the results.

The update is **exact**: it uses the same kernel and delay-PDF cache as
:func:`~repro.timing.ssta.run_ssta`, and it recomputes a node only
while its result can still change; downstream nodes whose recomputed
arrival is bitwise identical to the stored one cut the wave off, and
keep their stored object.  The result's gate-delay snapshot
(``SSTAResult.delays``) is refreshed for every gate whose delay the
resize changed, and its arc memo (``SSTAResult.arcs``) loses every
entry whose arrival or delay the update replaced and gains every arc
the wave computes — so later consumers of the result, the wave itself
and perturbation fronts, read current objects.  Unchanged arrivals
stay the *same objects*, which is what lets the pruned sizer, whose
base this is after its first iteration, resume fronts across
iterations by identity.  ``tests/timing/test_incremental.py`` asserts
bitwise equality against full reruns.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Set

import numpy as np

from ..dist.backends import get_backend
from ..dist.ops import OpCounter
from ..dist.pdf import DiscretePDF
from ..netlist.circuit import Gate
from . import ssta
from .delay_model import DelayModel
from .graph import TimingGraph
from .ssta import SSTAResult

__all__ = ["update_ssta_after_resize"]


def _identical(a: DiscretePDF, b: DiscretePDF) -> bool:
    return (
        a.offset == b.offset
        and a.n_bins == b.n_bins
        and np.array_equal(a.masses, b.masses)
    )


def update_ssta_after_resize(
    result: SSTAResult,
    model: DelayModel,
    resized_gates: Iterable[Gate],
    *,
    counter: Optional[OpCounter] = None,
) -> int:
    """Refresh ``result.arrivals`` after the given gates were resized.

    The gates must already carry their *new* widths.  Every arrival
    whose value can have changed is recomputed in level order; the
    number of recomputed nodes is returned (the work metric the
    ablation benchmark reports).

    The update wave starts at the output nets of all delay-affected
    gates (each resized gate plus its fan-in drivers, mirroring
    ``gates_affected_by_resize``) and follows fan-out edges, stopping
    wherever the recomputed arrival is bitwise unchanged.  Before the
    wave, the ``result.delays`` entry of every affected gate is
    refreshed from the model — no other gate's delay can have changed —
    so the wave, and any perturbation front later built on ``result``,
    reads exactly the delay objects a fresh
    :func:`~repro.timing.ssta.run_ssta` would hold.  ``counter``
    receives the wave's kernel tallies.
    """
    graph: TimingGraph = result.graph
    cfg = model.config
    # Same backend and result-cache resolution as the full pass — the
    # bitwise-equality wave cutoff only works if both computed through
    # the same kernel (cache hits are bitwise by construction, so the
    # cache can only make the cutoff cheaper, never wrong).
    kernel = get_backend(cfg.backend)
    cache = cfg.cache
    arrivals = result.arrivals
    delays = result.delays
    arcs = result.arcs

    seeds: Set[int] = set()
    for gate in resized_gates:
        for g in model.gates_affected_by_resize(gate):
            node = graph.gate_output_node(g)
            old, new = delays[g.output], model.delay_pdf(g)
            if arcs is not None and new is not old:
                for edge in graph.fanin_edges(node):
                    arcs.drop(arrivals[edge.src], old)
            delays[g.output] = new
            seeds.add(node)

    def get_delay_pdf(gate: Gate) -> DiscretePDF:
        return delays[gate.output]

    # Level-ordered worklist (a node may be enqueued once).  Under
    # ``config.level_batch`` every queued node of the current level is
    # popped and recomputed through one batched scheduler call — nodes
    # of one level are mutually independent, and fan-out pushes only
    # target higher levels, so the wave front *is* a level batch.
    heap: List = [(graph.level(n), n) for n in seeds]
    heapq.heapify(heap)
    queued: Set[int] = set(seeds)
    recomputed = 0
    get_arrival = arrivals.__getitem__

    while heap:
        lvl, node = heapq.heappop(heap)
        queued.discard(node)
        batch = [node]
        if cfg.level_batch:
            while heap and heap[0][0] == lvl:
                _lvl, nxt = heapq.heappop(heap)
                queued.discard(nxt)
                batch.append(nxt)
            # Through the module, not names bound at import: whoever
            # wraps the scheduler in ``repro.timing.ssta`` sees the wave.
            parts_list = [
                ssta.node_fanin_parts(graph, n, get_arrival, get_delay_pdf)
                for n in batch
            ]
            news = ssta.compute_level_arrivals(
                parts_list,
                trim_eps=cfg.tail_eps,
                counter=counter,
                backend=kernel,
                cache=cache,
                arcs=arcs,
                fill_arcs=True,
            )
        else:
            news = [
                ssta.compute_node_arrival(
                    graph,
                    n,
                    get_arrival,
                    get_delay_pdf,
                    trim_eps=cfg.tail_eps,
                    counter=counter,
                    backend=kernel,
                    cache=cache,
                    arcs=arcs,
                    fill_arcs=True,
                )
                for n in batch
            ]
        for n, new_pdf in zip(batch, news):
            recomputed += 1
            old = arrivals[n]
            if _identical(new_pdf, old):
                continue  # wave dies here
            arrivals[n] = new_pdf
            for edge in graph.fanout_edges(n):
                if arcs is not None and edge.gate is not None:
                    arcs.drop(old, delays[edge.gate.output])
                if edge.dst not in queued:
                    queued.add(edge.dst)
                    heapq.heappush(heap, (graph.level(edge.dst), edge.dst))
    return recomputed
