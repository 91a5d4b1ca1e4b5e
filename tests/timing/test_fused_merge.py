"""The fused level merge and the batched gate-delay snapshot.

A level's ADD results reach the MAX merge unconstructed
(:class:`~repro.dist.ops.DeferredAdds`); with the compiled tier one
foreign call builds them, takes every group's MAX and builds the
results.  These tests pin it bitwise, tally for tally, against building
every ADD and merging the objects, with the provider on and off.  The
snapshot tests pin :meth:`DelayModel.delay_snapshot` to ``delay_pdf``
gate by gate.
"""

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MAX_BINS, AnalysisConfig
from repro.dist import _compiled, ops
from repro.dist.backends import get_backend
from repro.dist.ops import (
    OpCounter,
    convolve,
    convolve_many,
    stat_max,
    stat_max_groups,
    stat_max_many,
)
from repro.dist.pdf import DiscretePDF
from repro.errors import DistributionError, GridMismatchError, LibraryError
from repro.netlist import benchmarks
from repro.netlist.benchmarks import load
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.ssta import ArcMemo, compute_level_arrivals, run_ssta

PROVIDER = _compiled.get_provider()

needs_merge = pytest.mark.skipif(
    PROVIDER is None or not PROVIDER.merge_ok,
    reason="compiled fused merge unavailable",
)


def provider(on: bool):
    """The host's provider, or the kill switch's world (every kernel
    runs its NumPy code)."""
    if on:
        return contextlib.nullcontext()
    return mock.patch.object(_compiled, "get_provider", lambda: None)


def same(p: DiscretePDF, q: DiscretePDF) -> bool:
    return (
        p.dt == q.dt
        and p.offset == q.offset
        and np.array_equal(p.masses, q.masses)
    )


def tallies(counter: OpCounter) -> tuple:
    return (
        counter.convolutions,
        counter.max_ops,
        counter.convolve_cache_hits,
        counter.max_cache_hits,
    )


@st.composite
def levels(draw):
    """A level: pools of arrivals and delays on one grid, and groups of
    ``(arrival, delay-or-None)`` parts drawn from them, so pairs repeat
    within and across groups."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def pdf(lo, hi):
        n = int(rng.integers(1, 160))
        return DiscretePDF(2.0, int(rng.integers(lo, hi)),
                           rng.random(n) + 1e-6).trimmed(1e-9)

    arrivals = [pdf(-40, 40) for _ in range(draw(st.integers(1, 6)))]
    delays = [pdf(0, 30) for _ in range(draw(st.integers(1, 4)))]
    n_groups = draw(st.integers(1, 8))
    parts_list = []
    for _ in range(n_groups):
        k = draw(st.integers(1, 4))
        parts = []
        for _ in range(k):
            arrival = arrivals[draw(st.integers(0, len(arrivals) - 1))]
            d = draw(st.integers(-1, len(delays) - 1))
            parts.append((arrival, None if d < 0 else delays[d]))
        parts_list.append(parts)
    return parts_list


def reference(parts_list, trim_eps):
    """Every node as ADD objects merged by ``stat_max_many``, one by
    one: the composition the fused merge replaces."""
    counter = OpCounter()
    results = []
    for parts in parts_list:
        contribs = [
            a if d is None
            else convolve(a, d, trim_eps=trim_eps, counter=counter)
            for a, d in parts
        ]
        results.append(
            stat_max_many(contribs, trim_eps=trim_eps, counter=counter)
        )
    return results, counter


def deferred_groups(parts_list, trim_eps, counter, defer=True):
    """``(groups, adds)`` for a level: gate arcs as pair indices into one
    (deferred or built) ``convolve_many`` batch."""
    pairs = []
    groups = []
    for parts in parts_list:
        group = []
        for a, d in parts:
            if d is None:
                group.append(a)
            else:
                group.append(len(pairs))
                pairs.append((a, d))
        groups.append(group)
    adds = None
    if pairs:
        adds = convolve_many(pairs, trim_eps=trim_eps, counter=counter,
                             defer=defer)
    return groups, adds


class TestFusedMerge:
    @settings(deadline=None, max_examples=60)
    @given(parts_list=levels(), trim_eps=st.sampled_from([0.0, 1e-9, 1e-4]))
    def test_bitwise_against_materialized(self, parts_list, trim_eps):
        """Fused (provider on), materialized (ADD objects into
        ``stat_max_groups``) and the NumPy path (provider off) give the
        same bits and the same tallies as per-node objects."""
        ref, ref_counter = reference(parts_list, trim_eps)
        runs = []
        for materialize in (False, True):
            for provider_on in (True, False):
                counter = OpCounter()
                with provider(provider_on):
                    groups, adds = deferred_groups(
                        parts_list, trim_eps, counter
                    )
                    if materialize and adds is not None:
                        built = adds.built()
                        groups = [
                            [built[o] if type(o) is int else o for o in g]
                            for g in groups
                        ]
                        adds = None
                    got = stat_max_groups(
                        groups, trim_eps=trim_eps, counter=counter, adds=adds
                    )
                runs.append((got, counter))
        for got, counter in runs:
            assert tallies(counter) == tallies(ref_counter)
            assert all(same(g, r) for g, r in zip(got, ref))

    @settings(deadline=None, max_examples=40)
    @given(parts_list=levels())
    def test_scheduler_with_arc_memo(self, parts_list):
        """Through the level scheduler: virtual arcs, arc-memo hits on
        some pairs and ``fill_arcs`` storing the rest, with the provider
        on and off."""
        trim_eps = 1e-9
        ref, _ = reference(parts_list, trim_eps)
        kernel = get_backend("auto")
        gate_pairs = [(a, d) for parts in parts_list for a, d in parts
                      if d is not None]
        tally_sets = []
        for provider_on in (True, False):
            with provider(provider_on):
                for fill in (False, True):
                    memo = ArcMemo(trim_eps, kernel)
                    for a, d in gate_pairs[::2]:
                        memo.put(a, d, convolve(a, d, trim_eps=trim_eps))
                    counter = OpCounter()
                    got = compute_level_arrivals(
                        parts_list, trim_eps=trim_eps, counter=counter,
                        backend=kernel, arcs=memo, fill_arcs=fill,
                    )
                    assert all(same(g, r) for g, r in zip(got, ref))
                    tally_sets.append(tallies(counter))
                    if fill:
                        for a, d in gate_pairs:
                            hit = memo.get(a, d)
                            assert hit is not None
                            assert same(hit, convolve(a, d, trim_eps=trim_eps))
        assert len(set(tally_sets)) == 1

    def test_single_operand_groups(self):
        """A lone ADD and a lone finished operand: the first is built by
        the merge, the second passes through trimming untouched."""
        rng = np.random.default_rng(5)
        a = DiscretePDF(2.0, 3, rng.random(40) + 1e-3).trimmed(1e-9)
        d = DiscretePDF(2.0, 10, rng.random(12) + 1e-3).trimmed(1e-9)
        counter = OpCounter()
        adds = convolve_many([(a, d)], trim_eps=1e-9, counter=counter,
                             defer=True)
        lone_add, lone_arrival = stat_max_groups(
            [[0], [a]], trim_eps=1e-9, counter=counter, adds=adds
        )
        assert same(lone_add, convolve(a, d, trim_eps=1e-9))
        assert lone_arrival is a
        assert tallies(counter) == (1, 0, 0, 0)

    def test_repeated_pair_convolves_once(self):
        """Two slots naming one (arrival, delay) pair share one
        computation; the counter still tallies both requests."""
        rng = np.random.default_rng(6)
        a = DiscretePDF(2.0, 0, rng.random(30) + 1e-3)
        d = DiscretePDF(2.0, 4, rng.random(9) + 1e-3)
        adds = convolve_many([(a, d), (a, d)], defer=True)
        assert adds.slots == [0, 0] and len(adds.offsets) == 1
        counter = OpCounter()
        first, second = convolve_many([(a, d), (a, d)], counter=counter)
        assert first is second and counter.convolutions == 2

    @pytest.mark.parametrize("provider_on", [True, False])
    def test_max_bins_overflow_is_typed(self, provider_on):
        """A MAX whose union range exceeds MAX_BINS raises
        DistributionError on both paths."""
        a = DiscretePDF(2.0, 0, np.ones(4))
        d = DiscretePDF(2.0, 1, np.ones(3))
        far = DiscretePDF(2.0, MAX_BINS + 50, np.ones(2))
        with provider(provider_on):
            adds = convolve_many([(a, d)], trim_eps=1e-9, defer=True)
            with pytest.raises(DistributionError, match="MAX_BINS"):
                stat_max_groups([[0, far]], trim_eps=1e-9, adds=adds)

    @pytest.mark.parametrize("provider_on", [True, False])
    def test_mixed_grids(self, provider_on):
        """A batch may mix grids (each result keeps its own); a pair or
        a MAX group that mixes them, raw ADDs included, raises
        GridMismatchError."""
        a = DiscretePDF(2.0, 0, np.ones(4))
        b = DiscretePDF(4.0, 0, np.ones(4))
        with pytest.raises(GridMismatchError):
            convolve_many([(a, b)], defer=True)
        with provider(provider_on):
            adds = convolve_many([(a, a), (b, b)], defer=True)
            aa, bb, ab = stat_max_groups(
                [[0], [1], [a, convolve(a, a)]], adds=adds
            )
            assert same(aa, convolve(a, a)) and same(bb, convolve(b, b))
            assert same(ab, stat_max(a, convolve(a, a)))
            with pytest.raises(GridMismatchError):
                stat_max_groups([[0, 1]], adds=convolve_many(
                    [(a, a), (b, b)], defer=True))
            adds = convolve_many([(a, a)], defer=True)
            with pytest.raises(GridMismatchError):
                stat_max_groups([[0, b]], adds=adds)


@needs_merge
class TestNoAddObjects:
    def test_cache_off_c880_pass_builds_no_add_result(self, monkeypatch):
        """A cache-off pass defers every ADD batch and never builds one:
        one merge call per level with gate arcs makes the node results,
        bitwise those of the object composition, and a level that only
        merges finished arrivals makes one with no raws."""
        from repro.timing import ssta

        circuit = load("c880")
        graph = TimingGraph(circuit)
        model = DelayModel(circuit)
        with provider(False):
            expected = run_ssta(graph, model)
        batches = []
        real_convolve_many = ssta.convolve_many

        def spy_convolve_many(pairs, **kwargs):
            batches.append(kwargs.get("defer", False))
            return real_convolve_many(pairs, **kwargs)

        monkeypatch.setattr(ssta, "convolve_many", spy_convolve_many)
        built = []
        real_built = ops.DeferredAdds.built

        def spy_built(adds):
            built.append(len(adds))
            return real_built(adds)

        monkeypatch.setattr(ops.DeferredAdds, "built", spy_built)
        # The provider resolved now: an earlier test may have reset it.
        current = _compiled.get_provider()
        merges = []
        real_merge = current.merge_level

        def spy_merge(raws, *args):
            merges.append(len(raws))
            return real_merge(raws, *args)

        monkeypatch.setattr(current, "merge_level", spy_merge)
        result = run_ssta(graph, model)
        levels_with_arcs = sum(
            1 for level in range(1, graph.max_level + 1)
            if any(edge.gate is not None
                   for node in graph.nodes_at_level(level)
                   for edge in graph.fanin_edges(node))
        )
        # A level without gate arcs that still merges (the sink's MAX
        # over virtual arcs) makes a merge call with no raw ADDs.
        levels_merging = sum(
            1 for level in range(1, graph.max_level + 1)
            if any(len(edges) > 1 or any(e.gate is not None for e in edges)
                   for edges in map(graph.fanin_edges,
                                    graph.nodes_at_level(level)))
        )
        assert batches == [True] * levels_with_arcs
        assert built == []
        assert sum(1 for n in merges if n) == levels_with_arcs
        assert len(merges) == levels_merging > levels_with_arcs
        assert all(same(p, q) for p, q in
                   zip(result.arrivals, expected.arrivals))


def ssta_10k_circuit():
    spec = dataclasses.replace(
        benchmarks.spec_for("c880").scaled(27), seed=7
    )
    return benchmarks.generate_circuit(spec)


def assert_snapshot_is_per_gate(circuit):
    """The snapshot holds ``delay_pdf``'s own objects, and the bits a
    per-gate loop in topological order gives a fresh model."""
    model = DelayModel(circuit)
    snapshot = model.delay_snapshot()
    loop_model = DelayModel(circuit)
    gates = circuit.topo_gates()
    assert list(snapshot) == [g.output for g in gates]
    for g in gates:
        pdf = snapshot[g.output]
        assert pdf is model.delay_pdf(g)
        assert same(pdf, loop_model.delay_pdf(g))


class TestDelaySnapshot:
    @pytest.mark.parametrize(
        "name", ["c17", "c432", "c499", "c880", "c1355", "c1908"]
    )
    def test_entries_are_delay_pdf(self, name):
        circuit = load(name)
        assert_snapshot_is_per_gate(circuit)
        rng = np.random.default_rng(11)
        gates = circuit.topo_gates()
        for i in rng.choice(len(gates), size=min(25, len(gates)),
                            replace=False):
            gates[int(i)].width += float(rng.uniform(0.25, 3.0))
        assert_snapshot_is_per_gate(circuit)

    def test_entries_are_delay_pdf_on_the_10k_circuit(self):
        circuit = ssta_10k_circuit()
        assert_snapshot_is_per_gate(circuit)
        rng = np.random.default_rng(12)
        gates = circuit.topo_gates()
        for i in rng.choice(len(gates), size=200, replace=False):
            gates[int(i)].width += float(rng.uniform(0.25, 3.0))
        assert_snapshot_is_per_gate(circuit)

    def test_one_ulp_pair_takes_the_first_gates_pdf(self):
        """c499's N282 and N347 share cell and width, and their nominal
        delays differ by one ulp and round to one memo key: the PDF is
        the one built for N282, first in topological order."""
        circuit = load("c499")
        model = DelayModel(circuit)
        first, second = circuit.gate("N282"), circuit.gate("N347")
        order = [g.output for g in circuit.topo_gates()]
        assert order.index("N282") < order.index("N347")
        assert (first.cell, first.width) == (second.cell, second.width)
        n1, n2 = model.nominal_delay(first), model.nominal_delay(second)
        assert n1 != n2 and abs(n1 - n2) == np.spacing(max(n1, n2))
        assert round(n1, 6) == round(n2, 6)
        snapshot = model.delay_snapshot()
        assert snapshot["N347"] is snapshot["N282"]
        own = DelayModel(circuit)
        assert same(snapshot["N282"], own.delay_pdf(first))

    def test_one_delay_pdf_call_per_exact_point(self):
        circuit = load("c1355")
        model = DelayModel(circuit)
        real = model.delay_pdf
        calls = []

        def counting(gate):
            calls.append(gate.output)
            return real(gate)

        model.delay_pdf = counting

        def first_gates():
            points = {}
            for g in circuit.topo_gates():
                point = (g.cell.name, g.width, model.nominal_delay(g))
                points.setdefault(point, g.output)
            return list(points.values())

        first = model.delay_snapshot()
        assert calls == first_gates()
        # A warm snapshot asks for no point again and gives the same
        # objects; a resize asks only for the points it created.
        calls.clear()
        again = model.delay_snapshot()
        assert calls == []
        assert all(again[net] is pdf for net, pdf in first.items())
        gate = circuit.topo_gates()[7]
        gate.width += 0.5
        model.delay_snapshot()
        assert gate.output in calls
        assert set(calls) <= {g.output for g in
                              model.gates_affected_by_resize(gate)}
        model.clear_cache()
        calls.clear()
        model.delay_snapshot()
        assert calls == first_gates()

    @pytest.mark.parametrize("width", [0.0, -1.0])
    def test_nonpositive_width_raises_library_error(self, width):
        """The snapshot raises the error a per-gate loop in topological
        order raises first."""
        circuit = load("c432")
        model = DelayModel(circuit)
        gates = circuit.topo_gates()
        gates[40].width = width
        gates[90].width = -5.0
        with pytest.raises(LibraryError) as snapshot:
            model.delay_snapshot()
        with pytest.raises(LibraryError) as scalar:
            for g in gates:
                model.delay_pdf(g)
        assert str(snapshot.value) == str(scalar.value)

    def test_foreign_model_falls_back_per_gate(self):
        """A model of another circuit object sees the graph's gates
        through ``delay_pdf``, as before the snapshot existed."""
        circuit = load("c17")
        other = circuit.copy()
        model = DelayModel(other, config=AnalysisConfig())
        result = run_ssta(TimingGraph(circuit), model)
        for g in circuit.topo_gates():
            assert result.delays[g.output] is model.delay_pdf(g)
