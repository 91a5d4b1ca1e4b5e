"""Block-based statistical static timing analysis.

Exactly the analysis the paper builds on: discretized arrival-time PDFs
are propagated from the source in one topological pass; edge delays are
added by **convolution** and converging arrivals are merged with the
independence-assuming **statistical maximum**, which yields the upper
bound on the exact circuit-delay CDF of Agarwal et al. DAC'03 [3]
(tight in practice — validated against Monte Carlo in the Figure 10
experiment).

Two execution modes share one numeric contract:

* the **sequential** per-node kernel :func:`compute_node_arrival`, the
  paper-literal reference path retained for differential testing;
* the **level-batched** scheduler :func:`compute_level_arrivals` (the
  default, ``AnalysisConfig(level_batch=True)``): all fan-in ADD pairs
  of a topological level go through one
  :func:`~repro.dist.ops.convolve_many` dispatch and all of its MAX
  reductions through one :func:`~repro.dist.ops.stat_max_groups`
  sweep, cutting the per-node Python dispatch that dominates the
  miss-path cost of the sizing loop.  The ADD results stay raw
  (:class:`~repro.dist.ops.DeferredAdds`): with the compiled tier the
  MAX call builds them, merges and builds the node results in one
  foreign call, so a level makes a :class:`~repro.dist.pdf.DiscretePDF`
  per node, not per arc.  Only an arc memo being filled gets ADD
  objects.

Both modes are **bitwise interchangeable**: the same arrival mass
vectors and offsets on every backend, cache on or off.  The accounting
matches too — identical :class:`~repro.dist.ops.OpCounter` tallies and
cache request stream — whenever the cache holds its working set; a
*thrashing* cache (capacity below the level's request count) may
evict entries between the orders' differently-interleaved stores, so
hit/miss patterns can then legitimately differ while the values stay
bitwise.  Nodes of one topological level never depend on each other
(every timing arc crosses levels), so batching a level reorders only
independent work; the level-batching differential suite and the CI
drift gate enforce the equivalence end to end.

With a cache attached every node first probes the whole-node memo;
only a miss reaches the kernels.  Behind a miss, a gate arc whose
operands are the very objects an SSTA pass convolved takes that pass's
finished result from its **arc memo** (:class:`ArcMemo`, matched by
object identity, never by content); every other ADD and every MAX
merge is computed.  Only the sizer's base pass keeps an arc memo
(``run_ssta(keep_arcs=True)``, refreshed by the incremental wave): its
perturbation fronts re-request the unperturbed arcs of every node they
touch.  The backward pass of :mod:`repro.timing.criticality` runs the
same node merge.

A full pass takes every gate's delay PDF up front, once, from the
model's batched snapshot (:func:`gate_delays`,
:meth:`~repro.timing.delay_model.DelayModel.delay_snapshot`): EQ 1
once per gate, and one ``delay_pdf`` call per exact operating point the
model has not seen.  Measured on ``ssta-10k`` (9,855 gates, 2-vCPU
host), these two changes take a cold pass from 579 to 431 ms
(perfbench medians).

The kernels are shared with the perturbation-front machinery of the
optimizer (`repro.core.perturbation`): a perturbed propagation is the
same computation with some arrivals/delay-PDFs overridden, which
guarantees the pruned sizer and the brute-force sizer see bit-identical
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import AnalysisConfig, DEFAULT_CONFIG
from ..dist.backends import BackendLike, get_backend
from ..dist.cache import ConvolutionCache
from ..dist.ops import (
    DeferredAdds,
    OpCounter,
    convolve_many,
    stat_max_groups,
    stat_max_many,
)
from ..dist.pdf import DiscretePDF
from ..errors import TimingError
from ..netlist.circuit import Gate
from .delay_model import DelayModel
from .graph import TimingGraph

__all__ = [
    "ArcMemo",
    "SSTAResult",
    "run_ssta",
    "compute_node_arrival",
    "compute_level_arrivals",
    "node_fanin_parts",
]

#: One node's merge inputs: ``(arrival, delay-or-None)`` per incoming
#: arc, in edge order.  ``None`` marks a zero-delay virtual arc whose
#: arrival enters the MAX directly; a gate arc convolves first.
NodeParts = List[Tuple[DiscretePDF, Optional[DiscretePDF]]]


def node_fanin_parts(
    graph: TimingGraph,
    node: int,
    get_arrival: Callable[[int], DiscretePDF],
    get_delay_pdf: Callable[[Gate], DiscretePDF],
) -> NodeParts:
    """Gather a node's fan-in operands in edge order.

    The contribution order must match the edge order exactly: the MAX
    CDF product multiplies rows in sequence, so reordering would change
    round-off (and break bitwise reproducibility claims).
    """
    fanin = graph.fanin_edges(node)
    if not fanin:
        raise TimingError(f"node {node} has no fan-in")
    parts: NodeParts = []
    for edge in fanin:
        src_pdf = get_arrival(edge.src)
        if edge.gate is None:
            parts.append((src_pdf, None))
        else:
            parts.append((src_pdf, get_delay_pdf(edge.gate)))
    return parts


def _node_hit_tally(counter: Optional[OpCounter], parts: NodeParts) -> None:
    """Tally a whole-node memo hit: it stands in for every kernel
    request the node would have made (one ADD per gate arc, an n-way
    MAX merge)."""
    if counter is not None:
        counter.convolve_cache_hits += sum(
            1 for _pdf, delay in parts if delay is not None
        )
        counter.max_cache_hits += len(parts) - 1


class ArcMemo:
    """Finished ADD results of one SSTA pass's gate arcs, matched by
    object identity.

    An entry maps the exact ``(arrival, delay)`` objects a pass
    convolved to the result it produced, so a later request for the
    same two objects — a perturbation front reading an unperturbed arc
    — gets that very result object back: bitwise what recomputing
    would give, with no hashing.  Entries hold references to both
    operands, so the ``id`` pair keying an entry cannot be reused by
    another object while the entry lives.  The memo is valid only under
    the trim epsilon and resolved backend it was filled with; the
    scheduler refuses any other.

    A reuse from the memo is not a cache hit: it is tallied nowhere on
    the :class:`~repro.dist.ops.OpCounter`, exactly like a request that
    was never made.
    """

    __slots__ = ("trim_eps", "kernel", "_entries")

    def __init__(self, trim_eps: float, kernel) -> None:
        self.trim_eps = trim_eps
        self.kernel = kernel
        self._entries: Dict[tuple, tuple] = {}

    def get(
        self, arrival: DiscretePDF, delay: DiscretePDF
    ) -> Optional[DiscretePDF]:
        entry = self._entries.get((id(arrival), id(delay)))
        return None if entry is None else entry[2]

    def put(
        self, arrival: DiscretePDF, delay: DiscretePDF, result: DiscretePDF
    ) -> None:
        self._entries[(id(arrival), id(delay))] = (arrival, delay, result)

    def drop(self, arrival: DiscretePDF, delay: DiscretePDF) -> None:
        self._entries.pop((id(arrival), id(delay)), None)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        """``(arrival, delay, result)`` per entry."""
        return iter(self._entries.values())


def _arc_contribs(
    parts_list: Sequence[NodeParts],
    trim_eps: float,
    counter: Optional[OpCounter],
    kernel,
    arcs: Optional[ArcMemo],
    fill_arcs: bool,
) -> Tuple[List[list], Optional[DeferredAdds]]:
    """Every node's MAX operands, and the batch's deferred ADDs.

    Virtual arcs pass their arrival through, gate arcs come from the
    arc memo or from **one** deferred
    :func:`~repro.dist.ops.convolve_many` dispatch over the remaining
    pairs, where an operand ``int`` ``i`` stands for the result of pair
    ``i`` (see :func:`~repro.dist.ops.stat_max_groups`).  With
    ``fill_arcs`` the computed results are built and stored in
    ``arcs``."""
    if arcs is not None and (
        arcs.trim_eps != trim_eps or arcs.kernel is not kernel
    ):
        raise TimingError(
            "arc memo was filled under another trim epsilon or backend"
        )
    contribs_list: List[list] = []
    pairs: list = []
    for parts in parts_list:
        contribs = []
        for part in parts:
            pdf, delay = part
            if delay is None:
                contribs.append(pdf)
                continue
            if arcs is not None:
                res = arcs.get(pdf, delay)
                if res is not None:
                    contribs.append(res)
                    continue
            contribs.append(len(pairs))
            pairs.append(part)
        contribs_list.append(contribs)
    if not pairs:
        return contribs_list, None
    adds = convolve_many(
        pairs, trim_eps=trim_eps, counter=counter, backend=kernel,
        defer=True,
    )
    if fill_arcs and arcs is not None:
        for (pdf, delay), res in zip(pairs, adds.built()):
            arcs.put(pdf, delay, res)
    return contribs_list, adds


def _merge_parts(
    parts: NodeParts,
    trim_eps: float,
    counter: Optional[OpCounter],
    kernel,
    cache: Optional[ConvolutionCache],
    node_key: Optional[tuple],
    arcs: Optional[ArcMemo],
    fill_arcs: bool,
) -> DiscretePDF:
    """Sequential ADD-then-MAX merge of one node's parts, stored in the
    node memo under ``node_key`` (when a cache is attached)."""
    contribs_list, adds = _arc_contribs(
        [parts], trim_eps, counter, kernel, arcs, fill_arcs
    )
    result = stat_max_many(
        contribs_list[0], trim_eps=trim_eps, counter=counter,
        backend=kernel, adds=adds,
    )
    if node_key is not None:
        cache.store_node(node_key, result, kernel)
    return result


def _node_arrival(
    parts: NodeParts,
    trim_eps: float,
    counter: Optional[OpCounter],
    kernel,
    cache: Optional[ConvolutionCache],
    arcs: Optional[ArcMemo] = None,
    fill_arcs: bool = False,
) -> DiscretePDF:
    """One node's merged arrival from its gathered parts — the body of
    :func:`compute_node_arrival`, shared with the backward pass's
    sequential walk."""
    node_key = None
    if cache is not None:
        # Whole-node fast path: the arrival is a pure function of the
        # fan-in operands, so an unchanged node (the dominant case for
        # perturbation fronts re-visiting base territory and for the
        # per-iteration SSTA refresh) resolves in one probe.  The hits
        # stand in for every kernel request the node would have made.
        node_key = cache.node_key(parts, trim_eps, kernel)
        hit = cache.lookup_node(node_key, kernel)
        if hit is not None:
            _node_hit_tally(counter, parts)
            return hit
    return _merge_parts(
        parts, trim_eps, counter, kernel, cache, node_key, arcs, fill_arcs
    )


def compute_node_arrival(
    graph: TimingGraph,
    node: int,
    get_arrival: Callable[[int], DiscretePDF],
    get_delay_pdf: Callable[[Gate], DiscretePDF],
    *,
    trim_eps: float,
    counter: Optional[OpCounter] = None,
    backend: BackendLike = "auto",
    cache: Optional[ConvolutionCache] = None,
    arcs: Optional[ArcMemo] = None,
    fill_arcs: bool = False,
) -> DiscretePDF:
    """Arrival PDF at ``node`` given fan-in arrivals and edge delays.

    Virtual (source/sink) arcs add zero delay; gate arcs convolve the
    fan-in arrival with the gate's pin-to-pin delay PDF; multiple arcs
    merge through the independence max.  All of a node's gate arcs go
    through one batched :func:`~repro.dist.ops.convolve_many` call.
    ``backend`` selects the convolution kernel and ``cache`` the node
    memo — callers (full SSTA, incremental updates, perturbation
    fronts) must pass the same choices to stay bitwise
    interchangeable.  ``arcs`` is an :class:`ArcMemo` consulted behind
    a node-memo miss, and ``fill_arcs`` stores the computed arcs in it
    (only a pass that owns the memo fills it).

    This is the sequential reference kernel; the level-batched
    scheduler (:func:`compute_level_arrivals`) reproduces a loop of
    these calls bitwise.
    """
    kernel = get_backend(backend)
    parts = node_fanin_parts(graph, node, get_arrival, get_delay_pdf)
    return _node_arrival(
        parts, trim_eps, counter, kernel, cache, arcs, fill_arcs
    )


def compute_level_arrivals(
    parts_list: Sequence[NodeParts],
    *,
    trim_eps: float,
    counter: Optional[OpCounter] = None,
    backend: BackendLike = "auto",
    cache: Optional[ConvolutionCache] = None,
    arcs: Optional[ArcMemo] = None,
    fill_arcs: bool = False,
    bases: Optional[Sequence[Optional[DiscretePDF]]] = None,
):
    """The level scheduler: merged arrivals for a batch of mutually
    independent nodes, one per parts list.

    A batch is any set of nodes none of which feeds another: a whole
    topological level of one analysis (full SSTA, the incremental
    wave), or the next levels of several perturbation fronts at once
    (:func:`repro.core.perturbation.initialize_fronts`), whose nodes
    read only inputs computed before the call.  Each node's result
    depends only on its own parts list, never on the batch's make-up.

    Instead of dispatching kernels node by node, the scheduler

    1. probes the whole-node memo for every node (nodes whose fan-in
       is unchanged resolve in one probe each, and a node repeating an
       earlier node's key within the level resolves from the entry that
       node stores — as it would sequentially);
    2. takes every remaining gate arc found in the arc memo ``arcs``
       from there, and gathers the rest of the level's ADDs into
       **one** deferred :func:`~repro.dist.ops.convolve_many` dispatch
       (with ``fill_arcs``, their results are built and stored in
       ``arcs``);
    3. merges every node's contributions through **one**
       :func:`~repro.dist.ops.stat_max_groups` call — which builds the
       deferred ADDs and the merged results together — and stores each
       result in the node memo.

    The result is bitwise identical to looping
    :func:`compute_node_arrival` over the same parts lists in order —
    and so are the counter tallies and the cache request stream as long
    as the cache holds its working set (a thrashing cache may evict
    between the orders' differently-interleaved stores, legitimately
    shifting hit/miss patterns while the values stay bitwise; both
    regimes are pinned by the differential suite, per backend and cache
    configuration).  A level with nothing left to compute (empty, or
    every node served from the cache) never touches the backend.

    ``bases`` (one unperturbed arrival or None per node) is a
    perturbation front's: the call then returns ``(results, same)``,
    where ``same[i]`` says whether a node the merge computed is bitwise
    ``bases[i]`` and a result that is not carries its Theorem-4 gap
    (see :func:`~repro.dist.ops.stat_max_groups`).  ``same[i]`` is None
    where nothing was compared (a memo hit, a pass-through node, no
    compiled tier), and the front checks those itself.
    """
    n = len(parts_list)
    results: List[Optional[DiscretePDF]] = [None] * n
    same: List[Optional[bool]] = [None] * n
    kernel = get_backend(backend)
    node_keys: List[Optional[tuple]] = [None] * n
    todo: List[int] = []
    dups: List[int] = []
    if cache is not None:
        seen: set = set()
        for i, parts in enumerate(parts_list):
            key = cache.node_key(parts, trim_eps, kernel)
            node_keys[i] = key
            if key in seen:
                # Identical node computed earlier in this level: its
                # store below serves this one, exactly as a sequential
                # walk's later node-memo probe would hit (probing now
                # would register a miss the sequential stream never
                # sees).
                dups.append(i)
                continue
            hit = cache.lookup_node(key, kernel)
            if hit is not None:
                _node_hit_tally(counter, parts)
                results[i] = hit
                continue
            seen.add(key)
            todo.append(i)
    else:
        todo = list(range(n))

    if todo:
        # One batched ADD dispatch and one batched MAX sweep for the
        # whole level.
        contribs_list, adds = _arc_contribs(
            [parts_list[i] for i in todo],
            trim_eps, counter, kernel, arcs, fill_arcs,
        )
        merged = stat_max_groups(
            contribs_list,
            trim_eps=trim_eps, counter=counter, backend=kernel,
            adds=adds,
            bases=None if bases is None else [bases[i] for i in todo],
        )
        if bases is not None:
            merged, flags = merged
            for i, flag in zip(todo, flags):
                same[i] = flag
        for i, res in zip(todo, merged):
            results[i] = res
            if node_keys[i] is not None:
                cache.store_node(node_keys[i], res, kernel)

    # Intra-level node duplicates replay through the now-warm memo.
    for i in dups:
        parts = parts_list[i]
        hit = cache.lookup_node(node_keys[i], kernel)
        if hit is None:
            # Entry already evicted (tiny capacity churn): recompute
            # sequentially, as the per-node walk would at this point.
            hit = _merge_parts(
                parts, trim_eps, counter, kernel, cache, node_keys[i],
                arcs, fill_arcs,
            )
        else:
            _node_hit_tally(counter, parts)
        results[i] = hit
    if bases is not None:
        return results, same
    return results  # type: ignore[return-value]


def gate_delays(
    graph: TimingGraph, model: DelayModel
) -> Dict[str, DiscretePDF]:
    """Every gate's delay PDF for one pass, keyed by output net in
    topological order: the model's batched
    :meth:`~repro.timing.delay_model.DelayModel.delay_snapshot`, or one
    ``delay_pdf`` call per gate when the model describes another
    circuit object than the graph."""
    if model.circuit is graph.circuit:
        return model.delay_snapshot()
    return {g.output: model.delay_pdf(g) for g in graph.circuit.topo_gates()}


@dataclass
class SSTAResult:
    """Arrival-time PDFs from one full SSTA pass.

    ``arrivals[node]`` is the (upper-bound) arrival CDF at each timing
    graph node; ``arrivals[graph.sink]`` is the circuit-delay
    distribution the optimization objective is defined on.

    ``delays`` maps each gate's output net to the delay PDF the pass
    convolved that gate's arcs with — the very object
    :meth:`~repro.timing.delay_model.DelayModel.delay_pdf` returned at
    the widths of the pass.  Perturbation fronts read unperturbed
    delays from it instead of re-deriving them, and
    :func:`~repro.timing.incremental.update_ssta_after_resize` refreshes
    the entries of the gates a resize affects.

    ``arcs`` is the pass's :class:`ArcMemo` — the finished ADD result of
    every gate arc it computed — when the pass was asked to keep one
    (``run_ssta(keep_arcs=True)``, the pruned sizer's base), else None.
    The incremental update keeps it in step with ``arrivals`` and
    ``delays``: every entry pairs a current arrival with a current
    delay.
    """

    graph: TimingGraph
    arrivals: List[DiscretePDF]
    delays: Dict[str, DiscretePDF]
    counter: OpCounter = field(default_factory=OpCounter)
    arcs: Optional[ArcMemo] = None

    @property
    def sink_pdf(self) -> DiscretePDF:
        """Circuit-delay distribution (bound CDF of [3])."""
        return self.arrivals[self.graph.sink]

    def percentile(self, p: float) -> float:
        """``T(A_nf, p)`` — the paper's objective at level ``p``."""
        return self.sink_pdf.percentile(p)

    def arrival_of_net(self, net: str) -> DiscretePDF:
        """Arrival PDF at a named circuit net."""
        return self.arrivals[self.graph.node_of_net(net)]

    def mean_delay(self) -> float:
        """Mean circuit delay (ps)."""
        return self.sink_pdf.mean()

    def std_delay(self) -> float:
        """Circuit-delay standard deviation (ps)."""
        return self.sink_pdf.std()


def run_ssta(
    graph: TimingGraph,
    model: DelayModel,
    *,
    config: Optional[AnalysisConfig] = None,
    counter: Optional[OpCounter] = None,
    keep_arcs: bool = False,
) -> SSTAResult:
    """One full block-based SSTA pass over the circuit.

    Runtime is linear in circuit size (one convolution per gate arc and
    one max reduction per multi-fan-in node), the property that makes
    the brute-force sensitivity loop O(N*E) per sizing iteration and
    motivates the paper's pruning algorithm.  With
    ``config.level_batch`` (the default) each topological level runs
    through the batched scheduler; the sequential per-node walk is
    bitwise identical and retained for differential testing.  Each
    gate's delay PDF is derived once, up front, through the model's
    batched snapshot (:func:`gate_delays`), and shared by all of its
    arcs (:attr:`SSTAResult.delays`).

    ``keep_arcs`` makes the pass fill an :class:`ArcMemo` with every
    gate arc it computes (:attr:`SSTAResult.arcs`) for perturbation
    fronts to reuse.  A pass nobody builds fronts on should not keep
    one: it holds a result per arc for the life of the result.
    """
    cfg = config if config is not None else model.config
    own_counter = counter if counter is not None else OpCounter()
    kernel = get_backend(cfg.backend)
    arrivals: List[Optional[DiscretePDF]] = [None] * graph.n_nodes
    arrivals[graph.source] = DiscretePDF.delta(cfg.dt, 0.0)
    get_arrival = arrivals.__getitem__
    delays = gate_delays(graph, model)
    # Gates hash by identity: the arcs look their delay up by gate.
    get_delay_pdf = dict(
        zip(graph.circuit.topo_gates(), delays.values())
    ).__getitem__
    arcs = ArcMemo(cfg.tail_eps, kernel) if keep_arcs else None

    if cfg.level_batch:
        # Level 0 holds exactly the source; every other level's nodes
        # are mutually independent (arcs always cross levels).
        for level in range(1, graph.max_level + 1):
            nodes = graph.nodes_at_level(level)
            if not nodes:
                continue
            parts_list = [
                node_fanin_parts(graph, node, get_arrival, get_delay_pdf)
                for node in nodes
            ]
            for node, pdf in zip(
                nodes,
                compute_level_arrivals(
                    parts_list,
                    trim_eps=cfg.tail_eps,
                    counter=own_counter,
                    backend=kernel,
                    cache=cfg.cache,
                    arcs=arcs,
                    fill_arcs=keep_arcs,
                ),
            ):
                arrivals[node] = pdf
    else:
        for node in graph.topo_nodes():
            if node == graph.source:
                continue
            arrivals[node] = compute_node_arrival(
                graph,
                node,
                get_arrival,  # type: ignore[arg-type]
                get_delay_pdf,
                trim_eps=cfg.tail_eps,
                counter=own_counter,
                backend=kernel,
                cache=cfg.cache,
                arcs=arcs,
                fill_arcs=keep_arcs,
            )
    return SSTAResult(
        graph=graph,
        arrivals=arrivals,  # type: ignore[arg-type]
        delays=delays,
        counter=own_counter,
        arcs=arcs,
    )
