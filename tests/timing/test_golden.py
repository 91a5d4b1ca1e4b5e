"""Golden-regression and cross-backend harness for the timing engines.

Two protections layered together:

* **Golden files** (``tests/timing/golden/*.json``) lock the c17,
  c432, c880, and c1908 sink statistics at their recorded values.  Any
  change to the kernels, the variation model, or the mass accounting
  that moves a sink percentile shows up here first — including an
  accidental change of the default backend's numerics, since ``auto``
  must reproduce the direct goldens *bitwise* at default-grid sizes,
  any divergence of the level-batched scheduler, since batched and
  sequential propagation must reproduce the goldens (and each other)
  bitwise under every backend, cache on and off, and any divergence of
  a cache path, since cold, warm, snapshot-reloaded, merged, capped and
  evicting caches must reproduce the uncached arrivals bitwise with
  golden-locked work tallies (``TestCachePathGolden``).
* **Golden-scale engine differentials** run backward SSTA (batched vs
  sequential) and incremental updates (vs a full rerun) on the same
  circuits under every backend.
* **Cross-backend reruns** drive the existing engine contracts (SSTA
  vs Monte Carlo, incremental-vs-full bitwise equality, pruned-vs-
  brute-force exactness) under every convolution backend via the
  ``backend_config`` fixture, so a backend cannot pass the kernel
  tests yet corrupt an engine that threads it differently.

The Figure-10 gate here is the acceptance bar: the c432 SSTA p99 must
stay within the paper's <1% of a 10k-sample Monte Carlo under *every*
backend.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.core.brute_force_sizer import BruteForceStatisticalSizer
from repro.core.heuristic_sizer import HeuristicStatisticalSizer
from repro.core.pruned_sizer import PrunedStatisticalSizer
from repro.dist.cache import ConvolutionCache
from repro.dist.ops import OpCounter
from repro.netlist.benchmarks import load
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.incremental import update_ssta_after_resize
from repro.timing.monte_carlo import run_monte_carlo
from repro.timing.ssta import run_ssta

GOLDEN_DIR = Path(__file__).parent / "golden"
#: Circuits with full-SSTA sink goldens (default grid).
GOLDEN_CIRCUITS = ("c17", "c432", "c880", "c1908")
#: Circuits with sizer-trajectory goldens (coarse grid; the larger two
#: would cost minutes per variant for no additional coverage of the
#: optimizer logic).
SIZER_GOLDEN_CIRCUITS = ("c17", "c432")

#: direct and auto must reproduce the goldens to round-off of the
#: recorded decimal literals; fft carries ~1e-15 relative kernel error
#: per convolution, far below a picosecond after hundreds of ops.
PERCENTILE_TOL = {
    "direct": 1e-9,
    "auto": 1e-9,
    "fft": 1e-6,
    # The compiled tier is a 1e-12-TV class like fft (sequential
    # instead of pairwise reductions); degraded it *is* direct, which
    # the same tolerance also covers.
    "compiled": 1e-6,
    "compiled-auto": 1e-6,
}


def golden(circuit: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{circuit}.json").read_text())


def ssta_for(circuit_name: str, config: AnalysisConfig):
    circuit = load(circuit_name)
    graph = TimingGraph(circuit)
    model = DelayModel(circuit, config=config)
    return run_ssta(graph, model, config=config), graph, model


class TestGoldenSinkStatistics:
    @pytest.mark.parametrize("circuit", GOLDEN_CIRCUITS)
    def test_sink_percentiles_locked(self, circuit, backend_config, backend):
        gold = golden(circuit)
        assert gold["dt"] == backend_config.dt
        result, _, _ = ssta_for(circuit, backend_config)
        sink = result.sink_pdf
        tol = PERCENTILE_TOL[backend]
        assert sink.mean() == pytest.approx(gold["mean"], abs=tol)
        assert sink.std() == pytest.approx(gold["std"], abs=tol)
        assert sink.percentile(0.50) == pytest.approx(gold["p50"], abs=tol)
        assert sink.percentile(0.90) == pytest.approx(gold["p90"], abs=tol)
        assert sink.percentile(0.99) == pytest.approx(gold["p99"], abs=tol)

    @pytest.mark.parametrize("circuit", GOLDEN_CIRCUITS)
    def test_auto_reproduces_direct_bitwise(self, circuit):
        """At default-grid sizes auto *is* direct — not merely close."""
        direct, _, _ = ssta_for(circuit, AnalysisConfig(backend="direct"))
        auto, _, _ = ssta_for(circuit, AnalysisConfig(backend="auto"))
        for pd, pa in zip(direct.arrivals, auto.arrivals):
            assert pd.offset == pa.offset
            assert np.array_equal(pd.masses, pa.masses)

    @pytest.mark.parametrize("circuit", GOLDEN_CIRCUITS)
    def test_op_counts_locked_and_backend_invariant(
        self, circuit, backend_config
    ):
        gold = golden(circuit)
        result, _, _ = ssta_for(circuit, backend_config)
        assert result.counter.convolutions == gold["convolutions"]
        assert result.counter.max_ops == gold["max_ops"]

    @pytest.mark.parametrize("circuit", GOLDEN_CIRCUITS)
    def test_sink_bin_count_locked(self, circuit, backend_config, backend):
        gold = golden(circuit)
        result, _, _ = ssta_for(circuit, backend_config)
        if backend == "fft":
            # FFT may strip sub-resolution boundary bins; the support
            # stays within one grid step of the golden one.
            assert abs(result.sink_pdf.n_bins - gold["n_bins"]) <= 2
        else:
            assert result.sink_pdf.n_bins == gold["n_bins"]

    @pytest.mark.parametrize("cache", [None, 4096])
    @pytest.mark.parametrize("circuit", GOLDEN_CIRCUITS)
    def test_batched_equals_sequential_equals_golden(
        self, circuit, backend_config, backend, cache
    ):
        """The PR-4 acceptance gate: level-batched == sequential,
        bitwise, on every golden circuit under every backend with the
        cache on and off — and both reproduce the golden percentiles.
        Fresh cache instances per mode so neither run warms the other.
        """
        gold = golden(circuit)
        results = {}
        for level_batch in (True, False):
            cfg = backend_config.with_updates(
                level_batch=level_batch,
                cache=None if cache is None else ConvolutionCache(cache),
            )
            results[level_batch], _, _ = ssta_for(circuit, cfg)
        for pb, ps in zip(results[True].arrivals, results[False].arrivals):
            assert pb.offset == ps.offset
            assert np.array_equal(pb.masses, ps.masses)
        sink = results[True].sink_pdf
        tol = PERCENTILE_TOL[backend]
        assert sink.percentile(0.50) == pytest.approx(gold["p50"], abs=tol)
        assert sink.percentile(0.99) == pytest.approx(gold["p99"], abs=tol)


#: Uncached reference runs for the cache-path gate, built once per
#: (circuit, backend) — every cache path only needs something bitwise
#: to diff against.
_UNCACHED_REFS: dict = {}

#: Holds every entry of one golden run (c1908 needs ~1.3k).
AMPLE_CAPACITY = 1 << 14


def _uncached_reference(circuit, backend):
    key = (circuit, backend)
    ref = _UNCACHED_REFS.get(key)
    if ref is None:
        ref = _UNCACHED_REFS[key] = ssta_for(
            circuit, AnalysisConfig(backend=backend)
        )[0]
    return ref


def _filled_cache(circuit, cfg, *, level_batch=True):
    """A fresh cache holding one cold run of ``circuit`` under ``cfg``."""
    cache = ConvolutionCache(AMPLE_CAPACITY)
    ssta_for(circuit, cfg.with_updates(cache=cache, level_batch=level_batch))
    return cache


def _snapshot(cache, path):
    cache.save(path)
    return path


def _cold(circuit, cfg, tmp_path):
    return ConvolutionCache(AMPLE_CAPACITY), True, False


def _warm(circuit, cfg, tmp_path):
    return _filled_cache(circuit, cfg), True, True


def _warm_sequential(circuit, cfg, tmp_path):
    return _filled_cache(circuit, cfg), False, True


def _warm_from_sequential(circuit, cfg, tmp_path):
    return _filled_cache(circuit, cfg, level_batch=False), True, True


def _snapshot_reload(circuit, cfg, tmp_path):
    path = _snapshot(_filled_cache(circuit, cfg), tmp_path / "warm.pkl")
    return ConvolutionCache.load(path), True, True


def _merged_snapshots(circuit, cfg, tmp_path):
    own = _snapshot(_filled_cache(circuit, cfg), tmp_path / "own.pkl")
    other = _snapshot(_filled_cache("c17", cfg), tmp_path / "c17.pkl")
    merged = tmp_path / "merged.pkl"
    ConvolutionCache.merge_snapshots([own, other], merged)
    return ConvolutionCache.load(merged), True, True


def _snapshot_capped(circuit, cfg, tmp_path):
    path = _snapshot(_filled_cache(circuit, cfg), tmp_path / "warm.pkl")
    return ConvolutionCache.load(path, capacity=64), True, False


def _tiny(circuit, cfg, tmp_path):
    return ConvolutionCache(32), True, False


def _byte_evicted(circuit, cfg, tmp_path):
    cache = _filled_cache(circuit, cfg)
    cache.evict_to_bytes(cache.approx_bytes // 2)
    return cache, True, False


#: Every way a run can meet the convolution-result cache.  Each builds
#: ``(cache, level_batch, all_hits)``: the cache the measured run uses,
#: its scheduling mode, and whether every request must be served from
#: entries written before the run.
CACHE_PATHS = {
    "cold": _cold,
    "warm": _warm,
    "warm-sequential": _warm_sequential,
    "warm-from-sequential": _warm_from_sequential,
    "snapshot-reload": _snapshot_reload,
    "merged-snapshots": _merged_snapshots,
    "snapshot-capped": _snapshot_capped,
    "tiny": _tiny,
    "byte-evicted": _byte_evicted,
}


class TestCachePathGolden:
    """Every cache path reproduces the uncached arrivals bitwise on
    every golden circuit under every backend: cold and warm caches,
    batched runs served from sequential entries and back, snapshots
    reloaded whole, merged with another circuit's, or capped on load,
    and caches churning at a tiny capacity or trimmed by byte budget.
    Each kernel request is either computed or served as a hit, so
    computed plus hit tallies equal the golden-locked computed counts,
    and a fully warm cache computes nothing."""

    @pytest.mark.parametrize("path", sorted(CACHE_PATHS))
    @pytest.mark.parametrize("circuit", GOLDEN_CIRCUITS)
    def test_cache_path_reproduces_uncached_bitwise(
        self, circuit, backend_config, backend, path, tmp_path
    ):
        gold = golden(circuit)
        cache, level_batch, all_hits = CACHE_PATHS[path](
            circuit, backend_config, tmp_path
        )
        cfg = backend_config.with_updates(cache=cache, level_batch=level_batch)
        result, _, _ = ssta_for(circuit, cfg)
        ref = _uncached_reference(circuit, backend)
        for pc, pu in zip(result.arrivals, ref.arrivals):
            assert pc.offset == pu.offset
            assert np.array_equal(pc.masses, pu.masses)
        counter = result.counter
        assert counter.convolutions + counter.convolve_cache_hits == gold[
            "convolutions"
        ]
        assert counter.max_ops + counter.max_cache_hits == gold["max_ops"]
        if all_hits:
            assert (counter.convolutions, counter.max_ops) == (0, 0)
        sink = result.sink_pdf
        tol = PERCENTILE_TOL[backend]
        assert sink.percentile(0.50) == pytest.approx(gold["p50"], abs=tol)
        assert sink.percentile(0.99) == pytest.approx(gold["p99"], abs=tol)


def _tallies(counter):
    return (
        counter.convolutions,
        counter.max_ops,
        counter.convolve_cache_hits,
        counter.max_cache_hits,
    )


#: Cache variants of the backward differential: off, ample (no
#: eviction, so both modes make the same requests), and tiny (churn
#: mid-level; only the values are promised to match there).
ENGINE_CACHES = {"off": None, "ample": AMPLE_CAPACITY, "tiny": 32}


class TestBackwardGolden:
    """Backward SSTA on the golden circuits: level-batched ==
    sequential at every node, bitwise, under every backend with the
    cache off, ample and tiny — and without eviction both modes make
    the same kernel requests."""

    @pytest.mark.parametrize("cache", sorted(ENGINE_CACHES))
    @pytest.mark.parametrize("circuit", GOLDEN_CIRCUITS)
    def test_batched_equals_sequential_bitwise(
        self, circuit, backend_config, cache
    ):
        from repro.timing.criticality import run_backward_ssta

        spec = ENGINE_CACHES[cache]
        out = {}
        for level_batch in (True, False):
            cfg = backend_config.with_updates(
                level_batch=level_batch,
                cache=None if spec is None else ConvolutionCache(spec),
            )
            netlist = load(circuit)
            graph = TimingGraph(netlist)
            model = DelayModel(netlist, config=cfg)
            counter = OpCounter()
            out[level_batch] = (
                run_backward_ssta(graph, model, config=cfg, counter=counter),
                counter,
            )
        (batched, cb), (sequential, cs) = out[True], out[False]
        assert len(batched.to_sink) == len(sequential.to_sink)
        for pb, ps in zip(batched.to_sink, sequential.to_sink):
            assert pb.offset == ps.offset
            assert np.array_equal(pb.masses, ps.masses)
        if cache != "tiny":
            assert _tallies(cb) == _tallies(cs)


#: Which gate the incremental differential resizes, by topological
#: position: next to the inputs (the widest wave), mid-circuit, and
#: next to the outputs.
RESIZE_SITES = {"first": 0.0, "middle": 0.5, "last": 1.0}


class TestIncrementalGolden:
    """Incremental updates on the golden circuits: a resize near the
    inputs, mid-circuit or near the outputs, updated in place, equals a
    from-scratch rerun bitwise under every backend, and the batched and
    sequential update waves recompute the same number of nodes."""

    @pytest.mark.parametrize("site", sorted(RESIZE_SITES))
    @pytest.mark.parametrize("circuit", GOLDEN_CIRCUITS)
    def test_update_matches_full_rerun_bitwise(
        self, circuit, backend_config, site
    ):
        recomputed = {}
        for level_batch in (True, False):
            cfg = backend_config.with_updates(level_batch=level_batch)
            base, graph, model = ssta_for(circuit, cfg)
            gates = graph.circuit.topo_gates()
            gate = gates[round(RESIZE_SITES[site] * (len(gates) - 1))]
            gate.width += 1.0
            recomputed[level_batch] = update_ssta_after_resize(
                base, model, [gate]
            )
            fresh = run_ssta(graph, model, config=cfg)
            for upd, ref in zip(base.arrivals, fresh.arrivals):
                assert upd.offset == ref.offset
                assert np.array_equal(upd.masses, ref.masses)
        assert recomputed[True] == recomputed[False]
        assert recomputed[True] > 0


SIZER_CLASSES = {
    "pruned-statistical": PrunedStatisticalSizer,
    "heuristic-statistical": HeuristicStatisticalSizer,
}

#: Cache variants every sizer-golden case runs under; a tiny third
#: capacity forces eviction churn mid-run.
CACHE_VARIANTS = {
    "cache-off": lambda: None,
    "cache-on": lambda: ConvolutionCache(),
    "cache-tiny": lambda: ConvolutionCache(capacity=64),
}


def run_sizer(circuit_name: str, optimizer: str, cache):
    gold = golden(f"sizer_{circuit_name}")
    cfg = AnalysisConfig(
        dt=gold["dt"], delta_w=gold["delta_w"], cache=cache
    )
    kwargs = {}
    if optimizer == "heuristic-statistical":
        kwargs["beam_width"] = gold["beam_width"]
    circuit = load(circuit_name)
    result = SIZER_CLASSES[optimizer](
        circuit, config=cfg, max_iterations=gold["max_iterations"], **kwargs
    ).run()
    return result, circuit, gold["optimizers"][optimizer]


class TestSizerGoldenOutcomes:
    """The optimizer's *answers* locked at their recorded values.

    Selections, sensitivities, final widths, and the final p99 must be
    exactly the golden ones whether the convolution-result cache is
    off, on, or thrashing at a tiny capacity — a broken cache key that
    changed any decision (or any numeric outcome) fails here with the
    full trajectory diff.  Float comparisons are exact on purpose: JSON
    round-trips Python floats losslessly, and cache hits promise
    bit-identical results, not close ones.
    """

    @pytest.mark.parametrize("circuit", SIZER_GOLDEN_CIRCUITS)
    @pytest.mark.parametrize("optimizer", sorted(SIZER_CLASSES))
    @pytest.mark.parametrize("variant", sorted(CACHE_VARIANTS))
    def test_outcomes_match_golden(self, circuit, optimizer, variant):
        result, sized, gold = run_sizer(
            circuit, optimizer, CACHE_VARIANTS[variant]()
        )
        assert [list(s.all_gates) for s in result.steps] == gold[
            "selected_gates"
        ]
        assert [s.sensitivity for s in result.steps] == gold["sensitivities"]
        assert sized.widths() == gold["final_widths"]
        assert result.final_objective == gold["final_p99"]
        assert result.initial_objective == gold["initial_p99"]
        assert result.stop_reason == gold["stop_reason"]

    @pytest.mark.parametrize("optimizer", sorted(SIZER_CLASSES))
    def test_cache_on_equals_cache_off_trajectories(self, optimizer):
        """Beyond matching the golden snapshot: the full step records
        of cached and uncached runs agree field by field."""
        off, _, _ = run_sizer("c17", optimizer, None)
        on, _, _ = run_sizer("c17", optimizer, ConvolutionCache())
        assert len(off.steps) == len(on.steps)
        for a, b in zip(off.steps, on.steps):
            assert a.all_gates == b.all_gates
            assert a.sensitivity == b.sensitivity
            assert a.objective_before == b.objective_before
            assert a.objective_after == b.objective_after
            assert a.total_size == b.total_size
        assert off.final_objective == on.final_objective

    def test_cached_run_actually_hits(self):
        """Guard against a silently dead cache: the pruned run must
        serve a meaningful share of kernel requests from the memo."""
        cache = ConvolutionCache()
        result, _, _ = run_sizer("c17", "pruned-statistical", cache)
        assert result.cache_hits > 0
        assert result.cache_hit_rate > 0.2
        # One whole-node memo hit stands in for several kernel requests
        # on the counter, so the cache's own lookup tally is smaller —
        # but it must show life too.
        assert cache.stats.hits > 0


class TestFigure10ValidationPerBackend:
    def test_c432_p99_within_paper_gap_of_monte_carlo(self, backend_config):
        """Acceptance gate: bound-vs-MC < 1% at p99 under every backend
        (paper Section 4 / Figure 10)."""
        result, graph, model = ssta_for("c432", backend_config)
        mc = run_monte_carlo(
            graph, model, n_samples=10_000, seed=0, config=backend_config
        )
        ssta_p99 = result.percentile(0.99)
        mc_p99 = mc.percentile(0.99)
        gap_pct = 100.0 * abs(ssta_p99 - mc_p99) / mc_p99
        assert ssta_p99 >= mc_p99  # the SSTA max is an upper bound
        assert gap_pct < 1.0


class TestCrossBackendEngineContracts:
    def test_incremental_update_matches_full_rerun_bitwise(
        self, backend_config
    ):
        """The incremental engine's wave cutoff relies on bitwise
        equality — it must hold under each backend."""
        circuit = load("c17")
        graph = TimingGraph(circuit)
        model = DelayModel(circuit, config=backend_config)
        base = run_ssta(graph, model, config=backend_config)
        gate = circuit.topo_gates()[1]
        gate.width += 1.0
        update_ssta_after_resize(base, model, [gate])
        fresh = run_ssta(graph, model, config=backend_config)
        for upd, ref in zip(base.arrivals, fresh.arrivals):
            assert upd.offset == ref.offset
            assert np.array_equal(upd.masses, ref.masses)

    def test_pruned_equals_brute_force_per_backend(self, fast_backend_config):
        """Section 4's headline exactness claim, re-proven per backend:
        identical selections, sensitivities, and objectives."""
        bf = BruteForceStatisticalSizer(
            load("c17"), config=fast_backend_config, max_iterations=4
        ).run()
        pr = PrunedStatisticalSizer(
            load("c17"), config=fast_backend_config, max_iterations=4
        ).run()
        assert [s.gate for s in bf.steps] == [s.gate for s in pr.steps]
        assert [s.sensitivity for s in bf.steps] == [
            s.sensitivity for s in pr.steps
        ]
        assert bf.final_objective == pr.final_objective

    def test_high_resolution_grid_cross_backend(self):
        """The regime the FFT backend exists for: a fine grid pushing
        arrival supports past the crossover.  Direct and FFT must agree
        on the sink CDF; auto must be usable end to end."""
        fine = {
            name: ssta_for("c17", AnalysisConfig(dt=0.05, backend=name))[0]
            for name in ("direct", "fft", "auto", "compiled",
                         "compiled-auto")
        }
        sink_d = fine["direct"].sink_pdf
        assert sink_d.n_bins > 512  # actually beyond the crossover
        for name in ("fft", "auto", "compiled", "compiled-auto"):
            sink = fine[name].sink_pdf
            assert sink_d.tv_distance(sink) < 1e-9
            for p in (0.5, 0.9, 0.99):
                assert sink.percentile(p) == pytest.approx(
                    sink_d.percentile(p), abs=1e-6
                )

    def test_criticality_inherits_backward_pass_backend(
        self, backend_config, backend
    ):
        """Criticality queries default to the kernel the backward pass
        ran under — no silent backend mixing within one analysis."""
        from repro.timing.criticality import (
            criticality_report,
            run_backward_ssta,
        )

        forward, graph, model = ssta_for("c17", backend_config)
        backward = run_backward_ssta(graph, model, config=backend_config)
        assert backward.backend.name == backend
        rows = criticality_report(forward, backward, top_k=6)
        assert rows and all(0.0 <= r.criticality <= 1.0 for r in rows)

    def test_monte_carlo_is_backend_invariant(self, backend_config):
        mc = run_monte_carlo(
            *ssta_for("c17", backend_config)[1:],
            n_samples=500,
            seed=7,
            config=backend_config,
        )
        ref = run_monte_carlo(
            *ssta_for("c17", AnalysisConfig(backend="direct"))[1:],
            n_samples=500,
            seed=7,
        )
        assert np.array_equal(mc.samples, ref.samples)
