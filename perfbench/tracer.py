"""Span recorder for the benchmark's traced runs.

Nothing inside ``src/`` is instrumented.  :func:`install` replaces the
public functions and methods of ``repro`` modules with wrappers that
record one span per call; :func:`uninstall` puts the originals back.
Functions that a module imported with ``from x import f`` are patched
at the *call-site* module (``repro.timing.ssta.convolve_many``, not
``repro.dist.ops.convolve_many``), because that module-level name is
the one the caller looks up at run time.

A span is ``[name, start_ns, end_ns, parent, count]``.  ``parent`` is
the span that was open on the same thread when this one started;
``count`` is a work count taken at the boundary (pairs convolved,
groups merged, nodes in a level, reply bytes).  Spans stay in memory
and are written out once, when the run ends.  A span's *self time* is
its duration minus the part of its interval that its child spans
cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Sequence

__all__ = [
    "PATCHES",
    "Tracer",
    "child_counts",
    "install",
    "layer_totals",
    "root_coverage",
    "self_times",
    "subtree_filter",
    "uninstall",
]


def _len_arg0(args, kwargs, result) -> int:
    return len(args[0]) if args else 0


#: (call-site module, attribute, span name, count).  ``Class.method``
#: attributes patch the class, so every instance and every caller sees
#: the wrapper.  ``count`` maps ``(args, kwargs, result)`` to the work
#: count stored on the span.
PATCHES = (
    # timing.ssta: full passes and the level scheduler.
    ("repro.timing.ssta", "run_ssta", "ssta.run", None),
    ("repro.core.pruned_sizer", "run_ssta", "ssta.run", None),
    ("repro.service.state", "run_ssta", "ssta.run", None),
    ("repro.timing.ssta", "compute_level_arrivals", "ssta.level", _len_arg0),
    ("repro.core.perturbation", "compute_level_arrivals", "ssta.level",
     _len_arg0),
    ("repro.timing.ssta", "node_fanin_parts", "ssta.fanin_parts", None),
    ("repro.core.perturbation", "node_fanin_parts", "ssta.fanin_parts",
     None),
    # dist.ops: the batched ADD and MAX kernels.
    ("repro.timing.ssta", "convolve_many", "ops.convolve_many", _len_arg0),
    ("repro.timing.ssta", "stat_max_groups", "ops.stat_max_groups",
     _len_arg0),
    # dist.metrics: the Theorem-4 percentile gap.
    ("repro.core.perturbation", "max_percentile_gap", "metrics.gap", None),
    # core.perturbation: front construction (Initialize) and advances.
    ("repro.core.perturbation", "PerturbationFront.__init__",
     "perturbation.init", None),
    ("repro.core.perturbation", "PerturbationFront.propagate_one_level",
     "perturbation.advance", None),
    # timing.delay_model, timing.graph, netlist.
    ("repro.timing.delay_model", "DelayModel.delay_pdf",
     "delay_model.delay_pdf", None),
    ("repro.timing.graph", "TimingGraph.__init__", "graph.build", None),
    ("repro.netlist.benchmarks", "generate_circuit", "netlist.generate",
     None),
    # dist.cache: the whole-node memo probe (key hashing + lookup).
    ("repro.dist.cache", "ConvolutionCache.node_key", "cache.node_key",
     None),
    ("repro.dist.cache", "ConvolutionCache.lookup_node", "cache.node_probe",
     None),
    # service: request handlers (server side) and client codecs.
    ("repro.service.state", "ServiceState.analyze", "service.analyze", None),
    ("repro.service.state", "ServiceState.optimize", "service.optimize",
     None),
    ("repro.service.client", "pdf_from_wire", "protocol.decode", None),
    ("repro.service.client", "sizing_result_from_wire", "protocol.decode",
     None),
)


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else None, 0]
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        return span

    def end(self, span: list, count: int = 0) -> None:
        span[2] = time.perf_counter_ns()
        span[4] = count
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around the ``with`` body; the yielded list's
        last element may be set to a work count."""
        span = self.begin(name)
        box = [0]
        try:
            yield box
        finally:
            self.end(span, box[0])

    def wrap(self, name: str, fn: Callable, count=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(span, count(args, kwargs, result) if count else 0)

        return traced

    def export(self) -> List[list]:
        """Spans as ``[name, start_ns, end_ns, parent_index, count]``
        rows, parents before children.  Spans still open are dropped
        together with their descendants."""
        index: Dict[int, int] = {}
        rows: List[list] = []
        for span in self.spans:
            name, start, end, parent, count = span
            if not end:
                continue
            if parent is None:
                p = -1
            elif id(parent) in index:
                p = index[id(parent)]
            else:
                continue
            index[id(span)] = len(rows)
            rows.append([name, start, end, p, count])
        return rows


class _JsonProxy:
    """Stands in for the ``json`` module inside ``repro.service.client``
    so reply decoding and reply size are measured at the client."""

    def __init__(self, tracer: Tracer, real) -> None:
        self._tracer = tracer
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def loads(self, data, *args, **kwargs):
        with self._tracer.span("protocol.decode_json") as box:
            box[0] = len(data)
            return self._real.loads(data, *args, **kwargs)


def _resolve(target: str, attr: str):
    module = importlib.import_module(target)
    if "." in attr:
        cls_name, name = attr.split(".", 1)
        return getattr(module, cls_name), name
    return module, attr


def install(tracer: Tracer) -> list:
    """Wrap every patch target; returns the undo list for
    :func:`uninstall`."""
    undo = []
    for module_name, attr, span_name, count in PATCHES:
        owner, name = _resolve(module_name, attr)
        raw = vars(owner)[name]
        if isinstance(raw, staticmethod):
            new = staticmethod(tracer.wrap(span_name, raw.__func__, count))
        else:
            new = tracer.wrap(span_name, raw, count)
        setattr(owner, name, new)
        undo.append((owner, name, raw))
    client = importlib.import_module("repro.service.client")
    undo.append((client, "json", client.json))
    client.json = _JsonProxy(tracer, client.json)
    return undo


def uninstall(undo: list) -> None:
    for owner, name, raw in reversed(undo):
        setattr(owner, name, raw)


# ----------------------------------------------------------------------
# Span arithmetic (pure functions over exported rows)
# ----------------------------------------------------------------------

def self_times(rows: Sequence[list]) -> List[int]:
    """Self time (ns) of each row: duration minus the union of its
    children's intervals, clipped to the parent's interval."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for row in rows:
        if row[3] >= 0:
            children[row[3]].append((row[1], row[2]))
    out = []
    for i, (_name, start, end, _parent, _count) in enumerate(rows):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def subtree_filter(rows: Sequence[list], keep_root) -> List[list]:
    """Rows whose root ancestor satisfies ``keep_root(index, row)``,
    re-indexed (parents precede children in exported rows)."""
    new_index: Dict[int, int] = {}
    out: List[list] = []
    for i, row in enumerate(rows):
        parent = row[3]
        if parent < 0:
            if not keep_root(i, row):
                continue
            p = -1
        elif parent in new_index:
            p = new_index[parent]
        else:
            continue
        new_index[i] = len(out)
        out.append([row[0], row[1], row[2], p, row[4]])
    return out


def layer_totals(rows: Sequence[list]) -> Dict[str, dict]:
    """Per span name: ``calls``, summed ``self_s`` and summed
    ``count``."""
    totals: Dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "count": 0}
    )
    for row, self_ns in zip(rows, self_times(rows)):
        t = totals[row[0]]
        t["calls"] += 1
        t["self_s"] += self_ns * 1e-9
        t["count"] += row[4]
    return dict(totals)


def child_counts(rows: Sequence[list], child: str, parent: str) -> int:
    """Summed ``count`` of ``child`` spans whose direct parent is a
    ``parent`` span."""
    return sum(
        row[4] for row in rows
        if row[0] == child and row[3] >= 0 and rows[row[3]][0] == parent
    )


def root_coverage(rows: Sequence[list], roots: Iterable[str]) -> float:
    """Share of the named root spans' wall-clock covered by child
    spans, i.e. attributed to some layer (1 - root self / root
    duration)."""
    roots = set(roots)
    selfs = self_times(rows)
    total = own = 0
    for row, self_ns in zip(rows, selfs):
        if row[0] in roots and row[3] < 0:
            total += row[2] - row[1]
            own += self_ns
    return 1.0 - own / total if total else 0.0
