"""A perturbation front's per-node checks, taken inside the level merge,
and the gap slot on perturbed results.

A front level hands each node's unperturbed arrival to the merge
(``bases=``).  For every result it builds against a base on its grid,
the merge says whether the result is bitwise that base (what
``_identical`` decides) and, when not, stores the Theorem-4 gap
(what ``max_percentile_gap`` computes) in the result's ``_gap`` slot.
These tests pin both, bitwise, against the Python checks, and pin the
slot's reuse rules: same base object only, dropped by pickling, safe
under racing threads.
"""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AnalysisConfig
from repro.core import perturbation
from repro.core.objectives import PercentileObjective
from repro.core.perturbation import PerturbationFront, _identical
from repro.core.pruned_sizer import PrunedStatisticalSizer
from repro.dist import _compiled
from repro.dist.cache import DEFAULT_CACHE_CAPACITY, ConvolutionCache
from repro.dist.metrics import max_percentile_gap
from repro.dist.ops import convolve_many, stat_max_groups
from repro.dist.pdf import DiscretePDF
from repro.netlist.benchmarks import load
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.ssta import run_ssta

PROVIDER = _compiled.get_provider()

needs_checks = pytest.mark.skipif(
    PROVIDER is None or not (PROVIDER.merge_ok and PROVIDER.gap_ok),
    reason="compiled level merge or gap kernel unavailable",
)


def _pdf(draw, n_max=60):
    n = draw(st.integers(1, n_max))
    masses = draw(st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n,
    ))
    masses[draw(st.integers(0, n - 1))] += 0.5
    return DiscretePDF(2.0, draw(st.integers(-30, 30)), np.array(masses))


@st.composite
def levels(draw):
    """A level: per group 1-3 operands, each an ADD pair or a finished
    arrival (a one-operand group is always an ADD), and per group a
    base: none, a distribution equal to the group's result, one on
    another grid, or an unrelated one."""
    arrivals = [_pdf(draw) for _ in range(draw(st.integers(1, 4)))]
    delays = [_pdf(draw, 20) for _ in range(draw(st.integers(1, 3)))]
    pairs = []
    groups = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, 3))
        group = []
        for r in range(k):
            if k == 1 or draw(st.booleans()):
                a = draw(st.sampled_from(arrivals))
                d = draw(st.sampled_from(delays))
                group.append(len(pairs))
                pairs.append((a, d))
            else:
                group.append(draw(st.sampled_from(arrivals)))
        groups.append(group)
    kinds = [
        draw(st.sampled_from(["none", "equal", "grid", "other"]))
        for _ in groups
    ]
    return pairs, groups, kinds, arrivals


def _reference(pairs, groups, trim_eps, backend):
    """The level through the object path: built ADDs, per-group MAX."""
    built = convolve_many(pairs, trim_eps=trim_eps, backend=backend)
    return stat_max_groups(
        [[built[op] if type(op) is int else op for op in g] for g in groups],
        trim_eps=trim_eps,
    )


@needs_checks
class TestMergeChecksDifferential:
    @settings(max_examples=80, deadline=None)
    @given(level=levels(), trim_eps=st.sampled_from([0.0, 1e-9, 1e-3]),
           backend=st.sampled_from(["direct", "fft"]))
    def test_flags_and_gaps_are_the_python_checks(
        self, level, trim_eps, backend
    ):
        """``direct`` hands the merge pending ADD rows (the ADD runs in
        the merge call), ``fft`` raw rows.  Each flag is ``_identical``
        of the result and its base, and each gap in a slot is
        ``max_percentile_gap(base, result)``, bitwise."""
        pairs, groups, kinds, arrivals = level
        refs = _reference(pairs, groups, trim_eps, backend)
        bases = []
        for ref, kind in zip(refs, kinds):
            if kind == "equal":
                # A distinct object with the result's bits.
                bases.append(ref.shifted_bins(1).shifted_bins(-1))
            elif kind == "grid":
                bases.append(DiscretePDF(4.0, ref.offset, ref.masses))
            elif kind == "other":
                bases.append(arrivals[0])
            else:
                bases.append(None)
        adds = None
        if pairs:
            adds = convolve_many(pairs, trim_eps=trim_eps, backend=backend,
                                 defer=True)
            if backend == "direct" and _compiled.get_provider().add_ok:
                assert adds.raws._buffer is None  # noqa: SLF001 - pending
        results, same = stat_max_groups(
            groups, trim_eps=trim_eps, adds=adds, bases=bases
        )
        for group, res, ref, base, flag in zip(
            groups, results, refs, bases, same, strict=True
        ):
            assert res.offset == ref.offset
            assert res.masses.tobytes() == ref.masses.tobytes()
            slot = getattr(res, "_gap", None)
            if len(group) == 1 and type(group[0]) is not int:
                continue
            if base is None or base.dt != res.dt:
                assert flag is None and slot is None
                continue
            assert flag is _identical(res, base)
            if flag:
                assert slot is None
            else:
                assert slot[0] is base
                assert slot[1] == max_percentile_gap(base, ref)

    def test_without_bases_nothing_is_compared(self):
        rng = np.random.default_rng(5)
        a = DiscretePDF(2.0, 3, rng.random(40) + 1e-3)
        d = DiscretePDF(2.0, 1, rng.random(9) + 1e-3)
        adds = convolve_many([(a, d)], trim_eps=1e-9, defer=True)
        (res,) = stat_max_groups([[0, a]], trim_eps=1e-9, adds=adds)
        assert not hasattr(res, "_gap")

    def test_gap_kernel_cleared_leaves_the_checks_to_the_front(
        self, monkeypatch
    ):
        rng = np.random.default_rng(6)
        a = DiscretePDF(2.0, 3, rng.random(40) + 1e-3)
        d = DiscretePDF(2.0, 1, rng.random(9) + 1e-3)
        monkeypatch.setattr(_compiled.get_provider(), "gap_ok", False)
        adds = convolve_many([(a, d)], trim_eps=1e-9, defer=True)
        (res,), same = stat_max_groups(
            [[0, a]], trim_eps=1e-9, adds=adds, bases=[a]
        )
        assert same == [None] and not hasattr(res, "_gap")


def _front_setup(cache):
    circuit = load("c17")
    config = AnalysisConfig(dt=2.0, cache=cache)
    graph = TimingGraph(circuit)
    model = DelayModel(circuit, config=config)
    return circuit, graph, model, run_ssta(graph, model)


def _count_gaps(monkeypatch):
    calls = []
    real = perturbation.max_percentile_gap

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(perturbation, "max_percentile_gap", counting)
    return calls


class TestGapSlot:
    @needs_checks
    def test_cold_fronts_take_every_gap_from_the_merge(self, monkeypatch):
        """Every c17 node merges two or more arcs, so with the cache off
        each node a front computes comes out of a level merge that also
        returned its identity check and gap: the gap function is never
        called."""
        circuit, graph, model, base = _front_setup(None)
        objective = PercentileObjective(0.99)
        calls = _count_gaps(monkeypatch)
        computed = 0
        for gate in circuit.gates():
            front = PerturbationFront(graph, model, base, gate, 1.0, objective)
            front.run_to_sink()
            computed += front.nodes_computed
        assert computed > 0
        assert calls == []

    def test_warm_node_memo_hit_computes_no_gap(self, monkeypatch):
        """A second front for the same gate against the same base is
        served from the node memo; every gap comes from the results'
        slots, so the gap function is never called, and the front ends
        in the same state."""
        cache = ConvolutionCache(DEFAULT_CACHE_CAPACITY)
        circuit, graph, model, base = _front_setup(cache)
        objective = PercentileObjective(0.99)
        calls = _count_gaps(monkeypatch)
        for gate in circuit.gates():
            cold = PerturbationFront(graph, model, base, gate, 1.0, objective)
            cold.run_to_sink()
            hits = cache.stats.hits
            del calls[:]
            warm = PerturbationFront(graph, model, base, gate, 1.0, objective)
            warm.run_to_sink()
            assert calls == []
            assert cache.stats.hits > hits
            assert warm.sensitivity == cold.sensitivity
            assert warm.initial_smx == cold.initial_smx

    def test_other_base_object_recomputes(self, monkeypatch):
        rng = np.random.default_rng(7)
        base = DiscretePDF(2.0, 0, rng.random(30) + 1e-3)
        twin = DiscretePDF(2.0, 0, base.masses.copy())
        pert = DiscretePDF(2.0, 1, rng.random(30) + 1e-3)
        front = PerturbationFront.__new__(PerturbationFront)
        calls = _count_gaps(monkeypatch)
        gap = front._percentile_gap(base, pert)
        assert len(calls) == 1 and pert._gap == (base, gap)
        assert front._percentile_gap(base, pert) == gap
        assert len(calls) == 1
        # Equal bits, another object: recomputed, and the slot follows.
        assert front._percentile_gap(twin, pert) == gap
        assert len(calls) == 2 and pert._gap[0] is twin

    def test_pickling_drops_the_slot(self):
        rng = np.random.default_rng(8)
        base = DiscretePDF(2.0, 0, rng.random(30) + 1e-3)
        pert = DiscretePDF(2.0, 1, rng.random(30) + 1e-3)
        PerturbationFront.__new__(PerturbationFront)._percentile_gap(
            base, pert
        )
        assert hasattr(pert, "_gap")
        copy = pickle.loads(pickle.dumps(pert))
        assert not hasattr(copy, "_gap")
        assert copy.offset == pert.offset
        assert copy.masses.tobytes() == pert.masses.tobytes()

    def test_racing_threads_read_only_their_own_gap(self):
        """Threads alternating two bases on one result each always get
        the gap of the base they asked with."""
        rng = np.random.default_rng(9)
        pert = DiscretePDF(2.0, 1, rng.random(40) + 1e-3)
        bases = [DiscretePDF(2.0, off, rng.random(40) + 1e-3)
                 for off in (0, 3)]
        want = [max_percentile_gap(b, pert) for b in bases]
        assert want[0] != want[1]
        front = PerturbationFront.__new__(PerturbationFront)
        barrier = threading.Barrier(4)
        wrong = []

        def run(k):
            barrier.wait()
            for i in range(2000):
                j = (i + k) % 2
                if front._percentile_gap(bases[j], pert) != want[j]:
                    wrong.append((k, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


def test_cold_c432_run_keeps_every_entry():
    """The default capacity holds a cold 10-iteration c432 sizing run's
    node entries: nothing is evicted (the gap memo's entries were what
    overflowed it)."""
    cache = ConvolutionCache(DEFAULT_CACHE_CAPACITY)
    sizer = PrunedStatisticalSizer(
        load("c432"), config=AnalysisConfig(cache=cache), max_iterations=10
    )
    sizer.run()
    assert cache.stats.evictions == 0
    assert 0 < len(cache) <= DEFAULT_CACHE_CAPACITY
    assert {key[0] for key in cache._entries} == {"node"}  # noqa: SLF001
