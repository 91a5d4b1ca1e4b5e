"""Backward SSTA and statistical criticality (analysis extension).

Deterministic sizers only look at the critical path; the paper's point
is that *statistically* there is no single critical path — "the circuit
delay PDF is a combination of all the path delay PDFs" (Section 3.1).
This module quantifies that statement per gate:

* :func:`run_backward_ssta` — the mirror image of the forward pass: the
  **delay-to-sink** distribution ``B_i`` of every node, computed by
  propagating PDFs backward through the same convolution/independence-
  max operations (so it is an upper bound of the same kind as [3]).
* :func:`node_criticality` — for each node, the probability that a path
  through it is the longest one, approximated under the engine's global
  independence assumption as the probability that ``A_i + B_i`` (its
  through-delay) reaches the circuit's delay:
  ``P(A_i + B_i >= T(p*))`` with ``T(p*)`` the objective percentile of
  the sink distribution.
* :func:`criticality_report` — ranked table used by examples/tests.

Statistical criticality explains both headline results: after
deterministic optimization *many* gates carry high criticality (the
wall); the statistical sizer's best gate is reliably among the most
critical, which is why the ``Smx`` bound ranking finds it early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..config import AnalysisConfig
from ..dist.backends import BackendLike, get_backend
from ..dist.ops import OpCounter, convolve
from ..dist.pdf import DiscretePDF
from ..errors import TimingError
from .delay_model import DelayModel
from .graph import TimingGraph
from .ssta import (
    SSTAResult,
    _node_arrival,
    compute_level_arrivals,
    gate_delays,
)

__all__ = [
    "BackwardSSTAResult",
    "run_backward_ssta",
    "node_criticality",
    "criticality_report",
    "CriticalityRow",
]


@dataclass
class BackwardSSTAResult:
    """Delay-to-sink PDFs from one backward pass.

    ``to_sink[node]`` is the distribution of the longest remaining
    delay from ``node`` to the sink (zero at the sink itself).
    ``backend`` records the convolution backend the pass ran under, so
    downstream criticality queries default to the same kernel instead
    of silently mixing kernels within one analysis.
    """

    graph: TimingGraph
    to_sink: List[DiscretePDF]
    counter: OpCounter
    backend: BackendLike = "auto"

    def to_sink_of_net(self, net: str) -> DiscretePDF:
        """Delay-to-sink PDF at a named net."""
        return self.to_sink[self.graph.node_of_net(net)]


def _node_fanout_parts(graph, delays, to_sink, node):
    """A node's fan-out operands ``(to-sink PDF, delay-or-None)`` in
    edge order — the backward mirror of
    :func:`~repro.timing.ssta.node_fanin_parts`; ``delays`` is the
    pass's gate-delay snapshot, keyed by gate output net."""
    fanout = graph.fanout_edges(node)
    if not fanout:
        raise TimingError(f"node {node} has no fan-out (not a sink)")
    parts = []
    for edge in fanout:
        dst_pdf = to_sink[edge.dst]
        assert dst_pdf is not None
        if edge.gate is None:
            parts.append((dst_pdf, None))
        else:
            parts.append((dst_pdf, delays[edge.gate.output]))
    return parts


def run_backward_ssta(
    graph: TimingGraph,
    model: DelayModel,
    *,
    config: Optional[AnalysisConfig] = None,
    counter: Optional[OpCounter] = None,
) -> BackwardSSTAResult:
    """Propagate delay-to-sink PDFs from the sink toward the source.

    Mirrors :func:`~repro.timing.ssta.run_ssta`: an outgoing arc adds
    the arc's gate delay by convolution, and multiple fan-out arcs
    merge through the independence max (upper bound).  Under
    ``config.level_batch`` (the default) each topological level — whose
    nodes are mutually independent in the backward direction too —
    runs through the batched level scheduler, bitwise identical to the
    sequential walk.  Both modes use the forward engines' node merge,
    so with a cache attached they consult the same whole-node memo: a
    repeated pass resolves every node in one probe.  Gate delays come
    from one snapshot per pass
    (:meth:`~repro.timing.delay_model.DelayModel.delay_snapshot`), the
    objects ``delay_pdf`` returns.
    """
    cfg = config if config is not None else model.config
    own = counter if counter is not None else OpCounter()
    kernel = get_backend(cfg.backend)
    cache = cfg.cache
    to_sink: List[Optional[DiscretePDF]] = [None] * graph.n_nodes
    to_sink[graph.sink] = DiscretePDF.delta(cfg.dt, 0.0)
    delays = gate_delays(graph, model)
    if cfg.level_batch:
        # Sink alone occupies the top level; walk the rest downward,
        # visiting nodes within a level in the sequential (reversed
        # topological) order so the cache request stream matches.
        for level in range(graph.max_level - 1, -1, -1):
            nodes = list(reversed(graph.nodes_at_level(level)))
            if not nodes:
                continue
            parts_list = [
                _node_fanout_parts(graph, delays, to_sink, node)
                for node in nodes
            ]
            for node, pdf in zip(
                nodes,
                compute_level_arrivals(
                    parts_list,
                    trim_eps=cfg.tail_eps,
                    counter=own,
                    backend=kernel,
                    cache=cache,
                ),
            ):
                to_sink[node] = pdf
    else:
        for node in reversed(graph.topo_nodes()):
            if node == graph.sink:
                continue
            to_sink[node] = _node_arrival(
                _node_fanout_parts(graph, delays, to_sink, node),
                cfg.tail_eps, own, kernel, cache,
            )
    return BackwardSSTAResult(
        graph=graph, to_sink=to_sink, counter=own, backend=kernel,  # type: ignore[arg-type]
    )


def node_criticality(
    forward: SSTAResult,
    backward: BackwardSSTAResult,
    net: str,
    *,
    percentile: float = 0.99,
    backend: Optional[BackendLike] = None,
) -> float:
    """P(through-delay of ``net`` >= the circuit's p-percentile delay).

    The through-delay ``A_i + B_i`` treats arrival and delay-to-sink as
    independent (consistent with the engine's global assumption), so
    the value is a *bound-flavored* criticality: 1.0 means paths through
    the net essentially set the circuit delay; near 0 means the net is
    statistically irrelevant.  Relative ranking is what the analysis
    consumers use.  ``backend`` defaults to the kernel the backward
    pass ran under, keeping one backend threaded through the whole
    analysis.
    """
    graph = forward.graph
    node = graph.node_of_net(net)
    kernel = backward.backend if backend is None else backend
    through = convolve(
        forward.arrivals[node], backward.to_sink[node], backend=kernel
    )
    target = forward.sink_pdf.percentile(percentile)
    return 1.0 - through.cdf_at(target)


@dataclass
class CriticalityRow:
    """One net's statistical criticality."""

    net: str
    criticality: float
    arrival_mean: float
    to_sink_mean: float


def criticality_report(
    forward: SSTAResult,
    backward: BackwardSSTAResult,
    *,
    percentile: float = 0.99,
    top_k: int = 20,
    backend: Optional[BackendLike] = None,
) -> List[CriticalityRow]:
    """The ``top_k`` most critical gate-output nets, ranked."""
    if top_k < 1:
        raise TimingError(f"top_k must be >= 1, got {top_k}")
    graph = forward.graph
    rows: List[CriticalityRow] = []
    for gate in graph.circuit.topo_gates():
        net = gate.output
        rows.append(
            CriticalityRow(
                net=net,
                criticality=node_criticality(
                    forward, backward, net,
                    percentile=percentile, backend=backend,
                ),
                arrival_mean=forward.arrival_of_net(net).mean(),
                to_sink_mean=backward.to_sink_of_net(net).mean(),
            )
        )
    rows.sort(key=lambda r: (-r.criticality, r.net))
    return rows[:top_k]
