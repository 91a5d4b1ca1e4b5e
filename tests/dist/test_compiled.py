"""Compiled-tier harness: provider differentials, cache interplay,
the bitwise level-merge MAX, the fallback matrix, and registry
compatibility.

Layered on the cross-backend harness (the ``compiled`` and
``compiled-auto`` names join every ``ALL_BACKENDS`` loop automatically
via the registry), this module adds what the generic loops cannot
check:

* the compiled convolution's *own* equivalence class — raw
  convolutions within 1e-12 TV of ``direct``, scalar == batched
  bitwise, cache replays bitwise with fresh computes;
* the bitwise level merge every backend builds its results with:
  compiled MAX == per-group NumPy ``_max_masses``, with and without
  raw ADDs in the call;
* the degradation matrix — ``REPRO_DISABLE_COMPILED`` and a host
  without a C compiler — under which the compiled backends must *be*
  the pure-NumPy direct kernels, bit for bit, with exactly one
  warning;
* the miss path: each level's cache misses are convolved in one
  backend call and built in one level-merge call.

Every test here passes whether or not a provider resolves on this
host: provider-specific classes skip when the tier is degraded, and
the degradation tests force it.  The bitwise kernels' own
differentials live in ``test_compiled_kernels.py``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import AnalysisConfig
from repro.core.objectives import PercentileObjective
from repro.core.perturbation import PerturbationFront
from repro.dist import _compiled
from repro.dist.backends import (
    CompiledAutoBackend,
    get_backend,
    is_registry_backend,
)
from repro.dist.cache import ConvolutionCache
from repro.dist.ops import (
    OpCounter,
    _build_results,
    _max_masses,
    convolve,
    convolve_many,
    stat_max_groups,
    stat_max_many,
)
from repro.dist.pdf import DiscretePDF
from repro.errors import DistributionError
from repro.netlist.benchmarks import load
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.ssta import compute_level_arrivals, run_ssta

from tests.dist.test_backends import TV_TOL, pdfs

#: Resolved once at collection: the host's C provider, or None when
#: degraded.
PROVIDER = _compiled.get_provider()

needs_provider = pytest.mark.skipif(
    PROVIDER is None,
    reason=f"compiled tier degraded ({_compiled.fail_reason()})",
)
needs_merge = pytest.mark.skipif(
    PROVIDER is None or not PROVIDER.merge_ok,
    reason="compiled level merge unavailable",
)


def _tv(p: DiscretePDF, q: DiscretePDF) -> float:
    """Total variation on the union grid (absolute-bin alignment)."""
    lo = min(p.offset, q.offset)
    hi = max(p.offset + p.masses.size, q.offset + q.masses.size)
    a = np.zeros(hi - lo)
    b = np.zeros(hi - lo)
    a[p.offset - lo : p.offset - lo + p.masses.size] = p.masses
    b[q.offset - lo : q.offset - lo + q.masses.size] = q.masses
    return 0.5 * float(np.abs(a - b).sum())


def _rand_pdf(rng, n, offset=0, dt=2.0) -> DiscretePDF:
    m = rng.random(n) + 1e-4
    return DiscretePDF(dt, offset, m)


@pytest.fixture
def fresh_provider_state():
    """Clear the provider memo after a test that patched the
    environment, so later callers re-resolve the real one.  The reset
    is deliberately lazy: this fixture tears down *before* monkeypatch
    restores the environment, so resolving eagerly here would memoize
    the patched world again."""
    yield
    _compiled.reset_provider_cache()


class TestCompiledDifferentials:
    """The tier's tolerance class vs the bitwise reference."""

    @settings(deadline=None, max_examples=60)
    @given(a=pdfs(), b=pdfs())
    def test_convolve_matches_direct_within_tv(self, a, b):
        d = convolve(a, b, backend="direct")
        c = convolve(a, b, backend="compiled")
        assert c.offset == d.offset
        assert _tv(c, d) < TV_TOL

    @settings(deadline=None, max_examples=60)
    @given(a=pdfs(), b=pdfs())
    def test_convolve_trimmed_within_semantic_budget(self, a, b):
        """With a trim the two arithmetic classes may cut the boundary
        bin differently when cumulative mass sits within an ulp of the
        threshold — a legal difference bounded by the trim budget
        itself, on top of the raw tolerance."""
        trim = 1e-9
        d = convolve(a, b, trim_eps=trim, backend="direct")
        c = convolve(a, b, trim_eps=trim, backend="compiled")
        assert _tv(c, d) < trim + TV_TOL
        for q in (0.5, 0.99):
            assert c.percentile(q) == pytest.approx(
                d.percentile(q), abs=a.dt
            )

    @settings(deadline=None, max_examples=30)
    @given(a=pdfs(), b=pdfs())
    def test_compiled_auto_matches_direct_within_tv(self, a, b):
        d = convolve(a, b, backend="direct")
        c = convolve(a, b, backend="compiled-auto")
        assert c.offset == d.offset
        assert _tv(c, d) < TV_TOL

    def test_scalar_equals_batched_bitwise(self):
        rng = np.random.default_rng(7)
        pairs = [
            (_rand_pdf(rng, rng.integers(1, 40)),
             _rand_pdf(rng, rng.integers(1, 40), offset=3))
            for _ in range(17)
        ]
        batched = convolve_many(
            pairs, trim_eps=1e-9, backend="compiled"
        )
        for (a, b), res in zip(pairs, batched):
            single = convolve(a, b, trim_eps=1e-9, backend="compiled")
            assert single.offset == res.offset
            assert np.array_equal(single.masses, res.masses)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(11)
        a = _rand_pdf(rng, 33)
        b = _rand_pdf(rng, 17, offset=-4)
        r1 = convolve(a, b, trim_eps=1e-9, backend="compiled")
        r2 = convolve(a, b, trim_eps=1e-9, backend="compiled")
        assert r1.offset == r2.offset
        assert np.array_equal(r1.masses, r2.masses)

    def test_result_honors_pdf_contract(self):
        rng = np.random.default_rng(13)
        a = _rand_pdf(rng, 29)
        b = _rand_pdf(rng, 31, offset=5)
        c = convolve(a, b, trim_eps=1e-9, backend="compiled")
        assert np.all(c.masses >= 0.0)
        assert c.masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert not c.masses.flags.writeable
        # The compiled construction must produce a fully usable PDF.
        assert c.percentile(0.5) <= c.percentile(0.99)
        assert c.trimmed(1e-9) is c  # trim-idempotence memo stamped


def _arc_nodes(pairs, **kwargs):
    """One-arc nodes ``(arrival, delay)`` through the level scheduler
    (the engines' node-memo path)."""
    return compute_level_arrivals(
        [[pair] for pair in pairs], trim_eps=1e-9, backend="compiled",
        **kwargs,
    )


@needs_provider
class TestCacheInterplay:
    """Cache interplay of the compiled convolution."""

    def test_cache_hit_is_stored_object(self):
        cache = ConvolutionCache(64)
        rng = np.random.default_rng(17)
        a = _rand_pdf(rng, 21)
        b = _rand_pdf(rng, 13, offset=2)
        first = _arc_nodes([(a, b)], cache=cache)[0]
        again = _arc_nodes([(a, b)], cache=cache)[0]
        assert again is first

    def test_translated_recurrence_misses_and_matches_fresh_compute(self):
        """A translated recurrence (same masses, another offset sum)
        misses and recomputes, bitwise a fresh compute at that offset;
        computed + hits equal the cache-off tally."""
        cache = ConvolutionCache(64)
        rng = np.random.default_rng(19)
        a = _rand_pdf(rng, 27)
        b = _rand_pdf(rng, 18, offset=-1)
        a2 = a.shifted_bins(7)  # masses shared bitwise, new offset
        counter = OpCounter()
        for x in (a, a2, a2):
            res = _arc_nodes([(x, b)], counter=counter, cache=cache)[0]
            fresh = _arc_nodes([(x, b)])[0]
            assert res.offset == fresh.offset
            assert np.array_equal(res.masses, fresh.masses)
        assert (cache.stats.misses, cache.stats.hits) == (2, 1)
        assert (counter.convolutions, counter.convolve_cache_hits) == (2, 1)

    def test_build_of_separate_raws_bitwise_with_batch(self):
        """Building separately computed raws == the batched miss path,
        since construction is a pure function of the raw bits."""
        kernel = get_backend("compiled")
        rng = np.random.default_rng(23)
        pairs = [
            (_rand_pdf(rng, rng.integers(2, 50)),
             _rand_pdf(rng, rng.integers(2, 50), offset=1))
            for _ in range(9)
        ]
        batched = convolve_many(pairs, trim_eps=1e-9, backend="compiled")
        raws = kernel.convolve_many([(a.masses, b.masses) for a, b in pairs])
        built = _build_results(
            raws, [a.dt for a, _ in pairs],
            [a.offset + b.offset for a, b in pairs], 1e-9,
        )
        for r_f, r_b in zip(batched, built):
            assert r_f.offset == r_b.offset
            assert np.array_equal(r_f.masses, r_b.masses)

    def test_counter_tallies_match_direct(self):
        rng = np.random.default_rng(29)
        pairs = [
            (_rand_pdf(rng, 12), _rand_pdf(rng, 9, offset=2))
            for _ in range(6)
        ]
        cd, cc = OpCounter(), OpCounter()
        convolve_many(pairs, trim_eps=1e-9, backend="direct", counter=cd)
        convolve_many(pairs, trim_eps=1e-9, backend="compiled", counter=cc)
        assert cc.convolutions == cd.convolutions == len(pairs)


@pytest.fixture
def flag_off(monkeypatch):
    """Clear one bitwise-kernel flag on the live provider for the
    test's duration, so its callers take the NumPy code."""

    def clear(name):
        monkeypatch.setattr(_compiled.get_provider(), name, False)

    return clear


@needs_merge
class TestCompiledMaxSweep:
    """The level merge's MAX must be bitwise the per-group NumPy
    ``_max_masses`` sweep and build."""

    def _groups(self, seed, n_groups=7):
        rng = np.random.default_rng(seed)
        return [
            tuple(
                _rand_pdf(
                    rng, int(rng.integers(2, 40)),
                    offset=int(rng.integers(-6, 7)),
                )
                for _ in range(int(rng.integers(2, 5)))
            )
            for _ in range(n_groups)
        ]

    @staticmethod
    def _numpy_max(pdfs, trim_eps) -> DiscretePDF:
        lo, masses = _max_masses(pdfs)
        return DiscretePDF._trusted(  # noqa: SLF001
            pdfs[0].dt, lo, masses
        ).trimmed(trim_eps)

    @pytest.mark.parametrize("trim_eps", [0.0, 1e-9, 1e-3])
    def test_sweep_bitwise_with_numpy_sweep(self, trim_eps):
        groups = self._groups(31)
        for pdfs_, got in zip(
            groups, stat_max_groups(groups, trim_eps=trim_eps)
        ):
            ref = self._numpy_max(pdfs_, trim_eps)
            assert got.offset == ref.offset
            assert got.masses.tobytes() == ref.masses.tobytes()

    def test_stat_max_many_bitwise_across_backends(self):
        groups = self._groups(37, n_groups=3)
        for pdfs_ in groups:
            d = stat_max_many(pdfs_, trim_eps=1e-9, backend="direct")
            c = stat_max_many(pdfs_, trim_eps=1e-9, backend="compiled")
            assert c.offset == d.offset
            assert np.array_equal(c.masses, d.masses)

    def test_stat_max_groups_bitwise_without_the_tier(self, flag_off):
        groups = self._groups(41)
        swept = stat_max_groups(groups, trim_eps=1e-9, backend="direct")
        flag_off("merge_ok")
        got = stat_max_groups(groups, trim_eps=1e-9, backend="compiled")
        for r, g in zip(swept, got):
            assert r.offset == g.offset
            assert np.array_equal(r.masses, g.masses)

    def test_single_group_sweep_matches_max_masses(self):
        for pdfs_ in self._groups(43, n_groups=4):
            got = stat_max_groups([pdfs_], trim_eps=1e-9)[0]
            ref = self._numpy_max(pdfs_, 1e-9)
            assert got.offset == ref.offset
            assert np.array_equal(got.masses, ref.masses)

    def test_finished_only_merge_level(self):
        """A merge call with no raw ADDs (a MAX batch of finished
        operands) builds every group's MAX, each on its own grid."""
        groups = self._groups(47, n_groups=5)
        groups[2] = tuple(
            DiscretePDF(4.0, p.offset, p.masses) for p in groups[2]
        )
        fins = [p for pdfs_ in groups for p in pdfs_]
        merged = PROVIDER.merge_level(
            [], [], [p.masses for p in fins], [p.offset for p in fins],
            [~j for j in range(len(fins))], [len(g) for g in groups],
            [g[0].dt for g in groups], 1e-9,
        )
        assert len(merged) == len(groups)
        for pdfs_, got in zip(groups, merged):
            ref = self._numpy_max(pdfs_, 1e-9)
            assert got.dt == ref.dt == pdfs_[0].dt
            assert got.offset == ref.offset
            assert got.masses.tobytes() == ref.masses.tobytes()


    def test_gapped_supports_retry_with_the_reported_room(
        self, foreign_calls
    ):
        """Operands whose supports lie far apart need more room than
        their own lengths: the first merge call writes nothing and
        reports the room, the second builds the results, bitwise the
        NumPy MAX."""
        rng = np.random.default_rng(53)
        near = DiscretePDF(2.0, 0, rng.random(12) + 1e-3)
        far = DiscretePDF(2.0, 3000, rng.random(12) + 1e-3)
        raw = rng.random(9) + 1e-3
        merged = PROVIDER.merge_level(
            [raw], [1500], [near.masses, far.masses],
            [near.offset, far.offset], [~0, 0, ~1, 0], [3, 1], [2.0, 2.0],
            1e-9,
        )
        assert foreign_calls == ["repro_merge_level"] * 2
        add = DiscretePDF._trusted(2.0, 1500, raw.copy()).trimmed(1e-9)
        for got, ref in zip(merged, (
            self._numpy_max((near, add, far), 1e-9), add,
        ), strict=True):
            assert got.offset == ref.offset
            assert got.masses.tobytes() == ref.masses.tobytes()


    def test_bad_operand_index_raises(self):
        """The merge range-checks every operand index it is given,
        the pending ADD rows' operand indices and row lengths
        included."""
        raw = np.ones(3)
        for src in ([1], [~0], [-5]):
            with pytest.raises(IndexError):
                PROVIDER.merge_level(
                    [raw], [0], [], [], src, [1], [2.0], 0.0
                )
        # An operand index out of range, then a row length that is not
        # its pair's (the call would run the row past its room).
        for idx in (([0], [1], [5]), ([0], [0], [9])):
            idx = np.array(idx, dtype=np.int64)
            pending = _compiled._Rows(  # noqa: SLF001
                None, idx[2], (PROVIDER, [raw], idx)
            )
            with pytest.raises(IndexError):
                PROVIDER.merge_level(
                    pending, [0], [], [], [0], [1], [2.0], 0.0
                )


class TestFallbackMatrix:
    """Degraded compiled == pure-NumPy direct, bit for bit, warned
    once — under the kill switch and under a host without a C
    compiler."""

    def _assert_degraded_is_direct(self):
        kernel = get_backend("compiled")
        rng = np.random.default_rng(47)
        a = _rand_pdf(rng, 33)
        b = _rand_pdf(rng, 17, offset=-2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert _compiled.get_provider() is None
            c = convolve(a, b, trim_eps=1e-9, backend="compiled")
            ca = convolve(a, b, trim_eps=1e-9, backend="compiled-auto")
        d = convolve(a, b, trim_eps=1e-9, backend="direct")
        assert c.offset == d.offset
        assert np.array_equal(c.masses, d.masses)
        assert ca.offset == d.offset
        assert np.array_equal(ca.masses, d.masses)
        # MAX falls back to the stock sweep — also bitwise.
        g = (a, b)
        md = stat_max_many(g, trim_eps=1e-9, backend="direct")
        mc = stat_max_many(g, trim_eps=1e-9, backend="compiled")
        assert md.offset == mc.offset
        assert np.array_equal(md.masses, mc.masses)

    def test_kill_switch_degrades_to_direct(
        self, monkeypatch, fresh_provider_state
    ):
        monkeypatch.setenv(_compiled.DISABLE_ENV, "1")
        _compiled.reset_provider_cache()
        assert _compiled.get_provider() is None
        assert _compiled.DISABLE_ENV in _compiled.fail_reason()
        self._assert_degraded_is_direct()

    def test_compiler_absent_degrades_to_direct(
        self, monkeypatch, fresh_provider_state
    ):
        """Module patching simulates the barest host: the C provider
        cannot build."""
        # The ambient kill switch (e.g. CI's degraded leg) would mask
        # the provider-resolution path this test is about.
        monkeypatch.delenv(_compiled.DISABLE_ENV, raising=False)

        def no_compiler(rebuild=False):
            raise RuntimeError("no C compiler found")

        monkeypatch.setattr(_compiled, "_compile_library", no_compiler)
        _compiled.reset_provider_cache()
        assert _compiled.get_provider() is None
        assert "no C compiler found" in _compiled.fail_reason()
        self._assert_degraded_is_direct()

    def test_degraded_warns_exactly_once(
        self, monkeypatch, fresh_provider_state
    ):
        monkeypatch.setenv(_compiled.DISABLE_ENV, "1")
        _compiled.reset_provider_cache()
        monkeypatch.setattr(_compiled, "_warned", False)
        rng = np.random.default_rng(53)
        a = _rand_pdf(rng, 9)
        b = _rand_pdf(rng, 7)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            convolve(a, b, backend="compiled")
            convolve(a, b, backend="compiled")
        degraded = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "compiled kernel tier unavailable" in str(w.message)
        ]
        assert len(degraded) == 1
        assert _compiled.DISABLE_ENV in str(degraded[0].message)

    def test_self_check_failure_rejects_provider(
        self, monkeypatch, fresh_provider_state
    ):
        """A provider whose convolution cannot prove its contract never
        serves — after one rebuild of its library."""
        monkeypatch.delenv(_compiled.DISABLE_ENV, raising=False)
        built = []

        class _LyingProvider:
            kind = "cext"

            def __init__(self, rebuild=False):
                built.append(rebuild)

            def conv_many(self, pairs):
                raise AssertionError("wrong bits")

        monkeypatch.setattr(_compiled, "_CProvider", _LyingProvider)
        _compiled.reset_provider_cache()
        assert _compiled.get_provider() is None
        assert "self-check failed" in _compiled.fail_reason()
        assert built == [False, True]


class TestRegistryCompat:
    """The compiled tier must stay a registry backend so name-keyed
    machinery (cache snapshots, worker shipping) keeps working."""

    def test_compiled_backends_are_registry_singletons(self):
        for name in ("compiled", "compiled-auto"):
            kernel = get_backend(name)
            assert is_registry_backend(kernel)
            assert get_backend(name) is kernel

    def test_compiled_auto_shares_the_compiled_singleton(self):
        ca = get_backend("compiled-auto")
        assert ca._direct is get_backend("compiled")  # noqa: SLF001

    def test_cache_snapshot_roundtrip_under_compiled(self, tmp_path):
        cache = ConvolutionCache(64)
        rng = np.random.default_rng(61)
        pairs = [
            (_rand_pdf(rng, 15), _rand_pdf(rng, 12, offset=1))
            for _ in range(5)
        ]
        ref = _arc_nodes(pairs, cache=cache)
        path = tmp_path / "snap.pkl"
        assert cache.save(path) == len(pairs)
        loaded = ConvolutionCache.load(path)
        hits = _arc_nodes(pairs, cache=loaded)
        assert loaded.stats.hits == len(pairs)
        for r, h in zip(ref, hits):
            assert r.offset == h.offset
            assert np.array_equal(r.masses, h.masses)

    def test_unknown_backend_raises_distribution_error(self):
        with pytest.raises(DistributionError, match="available"):
            AnalysisConfig(backend="compiled-fast")
        with pytest.raises(DistributionError, match="available"):
            get_backend("compiled-fast")

    def test_invalid_cost_ratio_rejected(self):
        with pytest.raises(DistributionError):
            CompiledAutoBackend(cost_ratio=-1.0)

    def test_compiled_auto_dispatch_boundaries(self):
        ca = get_backend("compiled-auto")
        assert ca.chooses(17, 17) == "compiled"
        assert ca.chooses(33, 129) == "compiled"
        assert ca.chooses(4097, 4097) == "fft"
        # Asymmetric pairs stay compiled (direct degenerates to O(N)).
        assert ca.chooses(1, 8192) == "compiled"

    def test_compiled_auto_fft_side_matches_fft_backend(self):
        rng = np.random.default_rng(67)
        n = 4097
        a = DiscretePDF(2.0, 0, rng.random(n) + 1e-4)
        b = DiscretePDF(2.0, 3, rng.random(n) + 1e-4)
        ca = get_backend("compiled-auto")
        assert ca.chooses(n, n) == "fft"
        via_ca = convolve(a, b, backend="compiled-auto")
        via_fft = convolve(a, b, backend="fft")
        assert _tv(via_ca, via_fft) < TV_TOL


@pytest.fixture
def miss_spy(monkeypatch):
    """Record, in call order, every batched convolution of the
    backends under test (``auto`` runs its direct-side pairs through
    the provider's ADD kernel inside that call), and every level-merge
    call of the provider (recording the raw ADDs it builds)."""
    events = []
    for name in ("auto", "compiled"):
        kernel = get_backend(name)
        conv = kernel.convolve_many

        def spy_conv(pairs, conv=conv):
            events.append(("conv", len(pairs)))
            return conv(pairs)

        monkeypatch.setattr(kernel, "convolve_many", spy_conv)
    provider = _compiled.get_provider()
    merge = provider.merge_level

    def spy_merge(raws, *args):
        events.append(("merge", len(raws)))
        return merge(raws, *args)

    monkeypatch.setattr(provider, "merge_level", spy_merge)
    return events


@pytest.fixture
def foreign_calls(monkeypatch):
    """Record, in call order, the name of every C entry point the
    provider calls."""
    calls = []
    provider = _compiled.get_provider()
    lib = provider._lib  # noqa: SLF001

    class Recording:
        def __getattr__(self, name):
            fn = getattr(lib, name)

            def call(*args):
                calls.append(name)
                return fn(*args)

            return call

    monkeypatch.setattr(provider, "_lib", Recording())
    return calls


def _conv_builds(events) -> list:
    """Batch sizes of the convolutions, each checked to be built by the
    level-merge call right after it."""
    sizes = []
    for i, (kind, n) in enumerate(events):
        if kind == "conv":
            assert events[i + 1] == ("merge", n)
            sizes.append(n)
    return sizes


def _distinct_arcs_per_level(graph, result) -> list:
    """Per level with gate arcs: the distinct (arrival, delay) object
    pairs among them — what one batched convolution computes."""
    sizes = []
    for level in range(1, graph.max_level + 1):
        pairs = {
            (id(result.arrivals[edge.src]),
             id(result.delays[edge.gate.output]))
            for node in graph.nodes_at_level(level)
            for edge in graph.fanin_edges(node)
            if edge.gate is not None
        }
        if pairs:
            sizes.append(len(pairs))
    return sizes


@needs_provider
class TestMissPath:
    """With the cache off every ADD is a miss, so each level that
    convolves anything makes exactly one backend call covering all of
    its distinct gate arcs, and one level-merge call for the raws it
    returns; the counter tallies every arc."""

    def _setup(self, name, backend):
        circuit = load(name)
        graph = TimingGraph(circuit)
        config = AnalysisConfig(dt=4.0, backend=backend)
        return circuit, graph, DelayModel(circuit, config=config)

    @pytest.mark.parametrize("backend", ["auto", "compiled"])
    @pytest.mark.parametrize("name", ["c17", "c432"])
    def test_run_ssta_one_call_per_level(
        self, name, backend, miss_spy, foreign_calls
    ):
        _circuit, graph, model = self._setup(name, backend)
        result = run_ssta(graph, model)
        arcs = sum(
            1 for edge in graph.edges if edge.gate is not None
        )
        sizes = _conv_builds(miss_spy)
        assert sizes == _distinct_arcs_per_level(graph, result)
        assert result.counter.convolutions == arcs >= sum(sizes)
        # Under auto the ADD runs inside each level's merge call.
        merges = sum(1 for kind, _n in miss_spy if kind == "merge")
        conv = ["repro_conv_batch"] if backend == "compiled" else []
        expected = []
        for i, (kind, _n) in enumerate(miss_spy):
            if kind == "merge":
                after_conv = i > 0 and miss_spy[i - 1][0] == "conv"
                expected += (conv if after_conv else []) + [
                    "repro_merge_level"
                ]
        assert merges > 0
        assert foreign_calls == expected

    @pytest.mark.parametrize("backend", ["auto", "compiled"])
    def test_front_advances_one_call_per_level(
        self, backend, miss_spy, foreign_calls, monkeypatch
    ):
        """Per front level: one scheduler ADD request, one backend
        batch of its distinct pairs, one level merge, and the C calls
        that implies.  Under ``auto`` the ADD kernel runs inside the
        merge call and the merge returns every identity check and gap,
        so a level is one foreign call plus the gaps the front still
        computes itself (one ``repro_gap`` per ``max_percentile_gap``
        call); ``compiled`` convolves in a call of its own first."""
        from repro.core import perturbation
        from repro.timing import ssta

        requests = []
        real_convolve_many = ssta.convolve_many

        def recording(pairs, **kwargs):
            requests.append(list(pairs))
            return real_convolve_many(pairs, **kwargs)

        monkeypatch.setattr(ssta, "convolve_many", recording)
        gaps = []
        real_gap = perturbation.max_percentile_gap

        def counting_gap(a, b):
            gaps.append((a, b))
            return real_gap(a, b)

        monkeypatch.setattr(perturbation, "max_percentile_gap", counting_gap)

        def distinct(batches) -> list:
            return [len({(id(a), id(b)) for a, b in pairs})
                    for pairs in batches]

        def level_calls(made, merges) -> list:
            conv = ["repro_conv_batch"] if made and backend == "compiled" else []
            return conv + ["repro_merge_level"] * merges

        circuit, graph, model = self._setup("c17", backend)
        base = run_ssta(graph, model)
        objective = PercentileObjective(0.99)
        shared = 0
        for gate in circuit.gates():
            counter = OpCounter()
            start = len(miss_spy)
            del requests[:]
            del foreign_calls[:]
            del gaps[:]
            front = PerturbationFront(
                graph, model, base, gate, 1.0, objective, counter=counter
            )
            # The backend convolves each distinct pair of a batch once;
            # the counter tallies every requested pair.
            init_calls = _conv_builds(miss_spy[start:])
            assert len(init_calls) <= front.levels_propagated
            assert init_calls == distinct(requests)
            assert counter.convolutions == sum(map(len, requests))
            assert foreign_calls.count("repro_gap") == len(gaps)
            assert "repro_add_batch" not in foreign_calls
            shared += counter.convolutions - sum(init_calls)
            while not front.is_done:
                before = len(miss_spy)
                del requests[:]
                del foreign_calls[:]
                del gaps[:]
                made = counter.convolutions
                front.propagate_one_level()
                made = counter.convolutions - made
                new = _conv_builds(miss_spy[before:])
                assert len(requests) == (1 if made else 0)
                assert new == distinct(requests)
                assert made == sum(map(len, requests))
                merges = sum(1 for kind, _n in miss_spy[before:]
                             if kind == "merge")
                assert merges <= 1
                assert [c for c in foreign_calls if c != "repro_gap"] == (
                    level_calls(made, merges)
                )
                assert foreign_calls.count("repro_gap") == len(gaps)
                shared += made - sum(new)
        # c17's fronts do repeat pairs within a batch.
        assert shared > 0
