"""Differential harness: level-batched propagation == sequential, bitwise.

The PR-4 tentpole makes ``AnalysisConfig(level_batch=True)`` the
default execution mode of every engine that walks the timing graph —
forward SSTA, backward SSTA, incremental updates, and perturbation
fronts all collect a topological level's ADD pairs into one
``convolve_many`` dispatch and its MAX reductions into one
``stat_max_groups`` sweep.  This suite pins the contract that makes
that safe to default:

* **bitwise values** — identical mass vectors and offsets at *every*
  node, across random DAGs, all three backends, and cache off / on /
  tiny (eviction churn mid-level);
* **identical accounting** — OpCounter tallies (computed ops *and*
  cache hits) and ConvolutionCache statistics match the sequential
  request stream whenever the cache is not thrashing (a thrashing
  cache may hit/miss differently between the orders, but values stay
  bitwise — which is exactly what the tiny-capacity runs check);
* **edge shapes** — single-node levels (chains), fan-in-1 nodes,
  disjoint-support merges (two_path's unbalanced reconvergence), and
  levels whose work resolves entirely from the cache (which must not
  touch the backend at all).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AnalysisConfig
from repro.core.objectives import default_objective
from repro.core.perturbation import PerturbationFront
from repro.dist.backends import DirectBackend
from repro.dist.cache import ConvolutionCache
from repro.dist.families import truncated_gaussian_pdf
from repro.dist.ops import (
    OpCounter,
    convolve,
    convolve_many,
    stat_max_groups,
    stat_max_many,
)
from repro.dist.pdf import DiscretePDF
from repro.netlist.generate import CircuitSpec, generate_circuit
from repro.timing.criticality import run_backward_ssta
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.incremental import update_ssta_after_resize
from repro.timing.ssta import (
    compute_level_arrivals,
    node_fanin_parts,
    run_ssta,
)

from tests.conftest import ALL_BACKENDS, build_chain3, build_two_path

#: Cache variants the differential runs cover: off, ample (no
#: eviction), and tiny (constant churn; only bitwise equality is
#: promised there — hit/miss patterns may legitimately differ).
CACHE_SPECS = (None, 1 << 14, 32)
AMPLE = (None, 1 << 14)


def _cfg(backend, cache_spec, level_batch, **kw):
    cache = None if cache_spec is None else ConvolutionCache(cache_spec)
    return AnalysisConfig(
        dt=8.0, backend=backend, cache=cache, level_batch=level_batch, **kw
    )


def _assert_bitwise(pdfs_a, pdfs_b):
    for a, b in zip(pdfs_a, pdfs_b):
        assert a.offset == b.offset
        assert a.dt == b.dt
        assert np.array_equal(a.masses, b.masses)


def _tallies(counter):
    return (
        counter.convolutions,
        counter.max_ops,
        counter.convolve_cache_hits,
        counter.max_cache_hits,
    )


@st.composite
def circuits(draw):
    n_gates = draw(st.integers(min_value=5, max_value=40))
    depth = draw(st.integers(min_value=2, max_value=min(8, n_gates)))
    edges = draw(
        st.integers(min_value=int(1.5 * n_gates), max_value=int(2.5 * n_gates))
    )
    seed = draw(st.integers(min_value=0, max_value=9999))
    spec = CircuitSpec(
        name="hyp",
        n_inputs=draw(st.integers(min_value=3, max_value=10)),
        n_outputs=2,
        n_gates=n_gates,
        n_pin_edges=min(edges, 4 * n_gates),
        depth=depth,
        seed=seed,
    )
    return generate_circuit(spec)


def _forward_pair(circuit, backend, cache_spec):
    """(batched, sequential) SSTA results + counters on fresh copies."""
    out = {}
    for level_batch in (True, False):
        cfg = _cfg(backend, cache_spec, level_batch)
        c = circuit.copy()
        graph = TimingGraph(c)
        model = DelayModel(c, config=cfg)
        counter = OpCounter()
        out[level_batch] = (
            run_ssta(graph, model, config=cfg, counter=counter),
            counter,
            cfg.cache,
        )
    return out


class TestForwardDifferential:
    @settings(max_examples=20, deadline=None)
    @given(circuit=circuits())
    def test_every_arrival_bitwise_per_backend_and_cache(self, circuit):
        for backend in ALL_BACKENDS:
            for cache_spec in CACHE_SPECS:
                out = _forward_pair(circuit, backend, cache_spec)
                _assert_bitwise(out[True][0].arrivals, out[False][0].arrivals)

    @settings(max_examples=10, deadline=None)
    @given(circuit=circuits())
    def test_counters_and_cache_stats_invariant(self, circuit):
        """At ample capacity the batched run replicates the sequential
        request stream exactly: same computed tallies, same hit
        tallies, same cache hit/miss/eviction statistics."""
        for backend in ALL_BACKENDS:
            for cache_spec in AMPLE:
                out = _forward_pair(circuit, backend, cache_spec)
                assert _tallies(out[True][1]) == _tallies(out[False][1])
                if cache_spec is not None:
                    sa, sb = out[True][2].stats, out[False][2].stats
                    assert (sa.hits, sa.misses, sa.evictions) == (
                        sb.hits, sb.misses, sb.evictions
                    )

    @pytest.mark.parametrize("builder", [build_chain3, build_two_path])
    def test_hand_circuit_shapes(self, builder, backend):
        """chain3: every level is a single fan-in-1 node.  two_path: an
        unbalanced merge whose operands have disjoint supports (three
        INV stages versus one)."""
        for cache_spec in CACHE_SPECS:
            out = _forward_pair(builder(), backend, cache_spec)
            _assert_bitwise(out[True][0].arrivals, out[False][0].arrivals)

    def test_two_path_merge_is_disjoint_support(self):
        """Guard the claim above: the two_path output gate really does
        merge disjoint-support arrivals (else the edge case is gone)."""
        circuit = build_two_path()
        cfg = _cfg("direct", None, True)
        graph = TimingGraph(circuit)
        result = run_ssta(graph, DelayModel(circuit, config=cfg), config=cfg)
        assert (
            result.arrival_of_net("s1").support[1]
            < result.arrival_of_net("l3").support[0]
        )


class TestBackwardDifferential:
    @settings(max_examples=12, deadline=None)
    @given(circuit=circuits())
    def test_to_sink_bitwise_and_counters(self, circuit):
        for backend in ALL_BACKENDS:
            for cache_spec in CACHE_SPECS:
                out = {}
                for level_batch in (True, False):
                    cfg = _cfg(backend, cache_spec, level_batch)
                    c = circuit.copy()
                    graph = TimingGraph(c)
                    model = DelayModel(c, config=cfg)
                    counter = OpCounter()
                    out[level_batch] = (
                        run_backward_ssta(
                            graph, model, config=cfg, counter=counter
                        ),
                        counter,
                    )
                _assert_bitwise(out[True][0].to_sink, out[False][0].to_sink)
                if cache_spec in AMPLE:
                    assert _tallies(out[True][1]) == _tallies(out[False][1])


class TestIncrementalDifferential:
    @settings(max_examples=12, deadline=None)
    @given(circuit=circuits(), which=st.integers(min_value=0, max_value=999))
    def test_update_wave_bitwise_and_same_work(self, circuit, which):
        for backend in ALL_BACKENDS:
            for cache_spec in AMPLE:
                out = {}
                for level_batch in (True, False):
                    cfg = _cfg(backend, cache_spec, level_batch)
                    c = circuit.copy()
                    graph = TimingGraph(c)
                    model = DelayModel(c, config=cfg)
                    base = run_ssta(graph, model, config=cfg)
                    gates = c.topo_gates()
                    gate = gates[which % len(gates)]
                    gate.width += 1.0
                    n = update_ssta_after_resize(base, model, [gate])
                    out[level_batch] = (base, n)
                _assert_bitwise(
                    out[True][0].arrivals, out[False][0].arrivals
                )
                assert out[True][1] == out[False][1]  # recomputed count


class TestPerturbationFrontDifferential:
    @settings(max_examples=12, deadline=None)
    @given(circuit=circuits(), which=st.integers(min_value=0, max_value=999))
    def test_front_sensitivity_and_trajectory(self, circuit, which):
        """A front run to the sink under level batching reproduces the
        sequential front bit for bit: same smx trajectory, same exact
        sensitivity, same sink distribution."""
        for backend in ALL_BACKENDS:
            for cache_spec in CACHE_SPECS:
                out = {}
                for level_batch in (True, False):
                    cfg = _cfg(backend, cache_spec, level_batch, delta_w=1.0)
                    c = circuit.copy()
                    graph = TimingGraph(c)
                    model = DelayModel(c, config=cfg)
                    base = run_ssta(graph, model, config=cfg)
                    gates = c.topo_gates()
                    gate = gates[which % len(gates)]
                    front = PerturbationFront(
                        graph, model, base, gate, cfg.delta_w,
                        default_objective(),
                    )
                    trajectory = [front.smx]
                    while not front.is_done:
                        front.propagate_one_level()
                        trajectory.append(front.smx)
                    out[level_batch] = (front, trajectory)
                fa, ta = out[True]
                fb, tb = out[False]
                assert ta == tb
                assert fa.sensitivity == fb.sensitivity
                assert fa.nodes_computed == fb.nodes_computed
                assert fa.reached_sink == fb.reached_sink
                if fa.sink_pdf is not None:
                    assert fb.sink_pdf is not None
                    _assert_bitwise([fa.sink_pdf], [fb.sink_pdf])


class _SpyBackend(DirectBackend):
    """Reference kernel that counts how often the engine invokes it."""

    name = "spy-direct"

    def __init__(self):
        self.singleton_calls = 0
        self.batch_calls = 0

    def convolve_masses(self, a, b):
        self.singleton_calls += 1
        return super().convolve_masses(a, b)

    def convolve_many(self, pairs):
        self.batch_calls += 1
        return super().convolve_many(pairs)

    @property
    def invocations(self):
        return self.singleton_calls + self.batch_calls


class TestAllHitsLevelSkipsBackend:
    """The empty / all-hits edge: a level with nothing left to compute
    must not touch the backend (satellite fix, pinned by invocation
    counting on a spy backend)."""

    def test_empty_level(self):
        spy = _SpyBackend()
        assert compute_level_arrivals([], trim_eps=0.0, backend=spy) == []
        assert spy.invocations == 0

    def test_fully_cached_level_never_invokes_backend(self):
        cfg = AnalysisConfig(dt=8.0)
        circuit = build_two_path()
        graph = TimingGraph(circuit)
        model = DelayModel(circuit, config=cfg)
        spy = _SpyBackend()
        cache = ConvolutionCache()
        counter = OpCounter()

        def run_levels():
            got = [None] * graph.n_nodes
            got[graph.source] = DiscretePDF.delta(cfg.dt, 0.0)
            for level in range(1, graph.max_level + 1):
                nodes = graph.nodes_at_level(level)
                parts_list = [
                    node_fanin_parts(
                        graph, n, got.__getitem__, model.delay_pdf
                    )
                    for n in nodes
                ]
                res = compute_level_arrivals(
                    parts_list, trim_eps=cfg.tail_eps, counter=counter,
                    backend=spy, cache=cache,
                )
                for n, pdf in zip(nodes, res):
                    got[n] = pdf
            return got

        cold = run_levels()
        invocations_cold = spy.invocations
        assert invocations_cold > 0
        warm = run_levels()  # every level resolves from the node memo
        assert spy.invocations == invocations_cold  # zero new touches
        _assert_bitwise(cold[1:], warm[1:])
        assert counter.cache_hits > 0


class TestConvolveManyDifferential:
    """Scheduler-level ADD batching against the per-call reference,
    over synthetic pairs including translated replays, deltas, and an
    intra-batch duplicate.  With a cache each pair is a one-arc node:
    the kernels take no cache, the node memo does."""

    def _pairs(self):
        def g(sigma, center):
            return truncated_gaussian_pdf(8.0, center, sigma)

        pairs = [
            (g(30.0 + i, 500.0 + 24 * i), g(20.0, 700.0 + 40 * (i % 3)))
            for i in range(6)
        ]
        pairs.append((g(30.0, 508.0), g(20.0, 708.0)))  # translated #0
        pairs.append((DiscretePDF.delta(8.0, 4000.0), g(25.0, 90.0)))
        pairs.append(pairs[2])                            # duplicate of #2
        return pairs

    @pytest.mark.parametrize("cache_spec", CACHE_SPECS)
    def test_bitwise_vs_sequential(self, backend, cache_spec):
        pairs = self._pairs()
        cache_b = None if cache_spec is None else ConvolutionCache(cache_spec)
        cache_s = None if cache_spec is None else ConvolutionCache(cache_spec)
        cb, cs = OpCounter(), OpCounter()
        batched = compute_level_arrivals(
            [[pair] for pair in pairs], trim_eps=1e-9, counter=cb,
            backend=backend, cache=cache_b,
        )
        looped = [
            compute_level_arrivals(
                [[(a, b)]], trim_eps=1e-9, counter=cs, backend=backend,
                cache=cache_s,
            )[0]
            for a, b in pairs
        ]
        assert len(batched) == len(pairs)
        _assert_bitwise(batched, looped)
        assert _tallies(cb) == _tallies(cs)
        if cache_spec is not None:
            assert (cache_b.stats.hits, cache_b.stats.misses) == (
                cache_s.stats.hits, cache_s.stats.misses
            )


class TestStatMaxGroupsDifferential:
    """Scheduler-level MAX batching against the per-call reference,
    over synthetic groups including disjoint supports, deltas, and
    single-operand groups."""

    def _groups(self):
        def g(sigma, center):
            return truncated_gaussian_pdf(8.0, center, sigma)

        delta = DiscretePDF.delta(8.0, 4000.0)
        return [
            [g(30.0, 800.0), g(30.0, 900.0)],          # overlapping pair
            [g(30.0, 800.0), g(30.0, 6000.0)],         # disjoint supports
            [g(30.0, 805.0), g(30.0, 905.0)],          # same shape as #1
            [g(20.0, 500.0)],                          # single operand
            [delta, g(25.0, 3990.0)],                  # delta operand
            [g(30.0, 800.0), g(30.0, 900.0)],          # duplicate of #1
            [g(15.0, 100.0), g(45.0, 140.0), g(25.0, 90.0)],  # 3-way
        ]

    # No trimming, the engines' usual level, and one coarse enough to
    # shorten every group's result (single operand and delta included).
    @pytest.mark.parametrize("trim_eps", (0.0, 1e-9, 1e-2))
    def test_bitwise_vs_sequential(self, backend, trim_eps):
        groups = self._groups()
        cb, cs = OpCounter(), OpCounter()
        batched = stat_max_groups(
            groups, trim_eps=trim_eps, counter=cb, backend=backend
        )
        looped = [
            stat_max_many(g, trim_eps=trim_eps, counter=cs, backend=backend)
            for g in groups
        ]
        _assert_bitwise(batched, looped)
        assert _tallies(cb) == _tallies(cs)

    def test_empty(self):
        assert stat_max_groups([]) == []

    def test_duplicate_groups_each_compute(self):
        # Group 5 duplicates group 0 (same contents, same alignment);
        # with no MAX memo both compute: five 2-operand groups plus
        # the 3-way merge.
        counter = OpCounter()
        stat_max_groups(self._groups(), counter=counter)
        assert counter.max_ops == 5 * 1 + 2
        assert counter.max_cache_hits == 0
