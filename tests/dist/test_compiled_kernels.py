"""The compiled tier's bitwise kernels against the NumPy code they
replace.

The level merge builds every result
(``DiscretePDF._trusted(dt, off, raw).trimmed(eps)`` for ADD results,
through :func:`~repro.dist.ops._build_results`) and the gap kernel
(``max_percentile_gap``) runs under every backend, so their answers
must equal the NumPy expressions bit for bit — not within a tolerance.
This module pins that with hypothesis differentials over the
branch-relevant shapes, a threaded run, two subprocess runs (provider
on and ``REPRO_DISABLE_COMPILED=1``) over the golden circuits and a
c432 sizing trajectory, per-kernel self-check failure injection, the
agreement of the C source's exports with both loaders' declarations,
and the C library build cache under concurrent resolution.
"""

from __future__ import annotations

import collections
import json
import os
import re
import subprocess
import sys
import threading
import types
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import AnalysisConfig
from repro.dist import _compiled
from repro.dist.metrics import (
    _VERTICAL_NOISE_FLOOR,
    _numpy_gap,
    max_percentile_gap,
)
from repro.dist.ops import _build_results
from repro.dist.pdf import DiscretePDF
from repro.netlist.benchmarks import load
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.ssta import run_ssta

PROVIDER = _compiled.get_provider()

needs_provider = pytest.mark.skipif(
    PROVIDER is None,
    reason=f"compiled tier degraded ({_compiled.fail_reason()})",
)
needs_merge = pytest.mark.skipif(
    PROVIDER is None or not PROVIDER.merge_ok,
    reason="compiled level merge unavailable",
)

ROOT = Path(__file__).resolve().parents[2]

#: Sizes straddling every branch of the level merge's build: np.sum's
#: sequential (< 8), eight-accumulator (<= 128) and split (> 128)
#: regimes, and trimmed()'s 64-bin probe (n >= 128).
BUILD_SIZES = (1, 7, 8, 127, 128, 129, 300, 9000)


def _numpy_build(raw, dt, offset, trim_eps) -> DiscretePDF:
    return DiscretePDF._trusted(  # noqa: SLF001
        dt, offset, raw.copy()
    ).trimmed(trim_eps)


def _same(p: DiscretePDF, q: DiscretePDF) -> bool:
    return (
        p.dt == q.dt
        and p.offset == q.offset
        and np.array_equal(p.masses, q.masses)
        and p.masses.tobytes() == q.masses.tobytes()
    )


@st.composite
def raws(draw):
    """Raw kernel outputs in every shape the build branches on."""
    n = draw(st.sampled_from(BUILD_SIZES))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = draw(st.sampled_from(
        ["uniform", "bell", "heavy_tails", "zeros", "subnormal", "unit",
         "spike"]
    ))
    if shape == "uniform":
        raw = rng.random(n) + 1e-4
    elif shape == "bell":
        x = np.arange(n) - n / 2.0
        raw = np.exp(-(x / (n / 8.0 + 0.5)) ** 2)
    elif shape == "heavy_tails":
        # Tails too heavy for the 64-bin probe to settle the cut.
        raw = np.full(n, 1.0)
        raw[n // 2] = 2.0
    elif shape == "zeros":
        raw = rng.random(n)
        raw[rng.random(n) < 0.5] = 0.0
        raw[n // 2] += 0.5
    elif shape == "subnormal":
        raw = rng.random(n) * 1e-310
        raw[rng.integers(0, n)] = 1e-300
    elif shape == "unit":
        raw = np.zeros(n)
        raw[rng.integers(0, n)] = 1.0  # total exactly 1.0
    else:
        raw = rng.random(n) * 1e-12
        raw[rng.integers(0, n)] = 3.0
    return raw


@needs_merge
class TestBuildDifferential:
    """ADD results built by the level merge (one one-operand group per
    raw) against the NumPy expression."""

    @settings(deadline=None, max_examples=300)
    @given(
        raw=raws(),
        trim_eps=st.sampled_from([0.0, 1e-9, 1e-3, 0.25, 0.9, 3.0]),
        offset=st.integers(-50, 50),
    )
    def test_bitwise_numpy(self, raw, trim_eps, offset):
        got = _build_results([raw], [2.0], [offset], trim_eps)[0]
        assert _same(got, _numpy_build(raw, 2.0, offset, trim_eps))
        assert got.__dict__["_trim_level"] == trim_eps
        assert not got.masses.flags.writeable
        # A view of the call's exact-length bytes copy of its results
        # (here one), never of a kernel buffer.
        base = got.masses.base
        assert base is None or len(base) == got.masses.nbytes

    @settings(deadline=None, max_examples=40)
    @given(batch=st.lists(raws(), min_size=1, max_size=12))
    def test_batch_bitwise_per_item(self, batch):
        offsets = list(range(len(batch)))
        got = _build_results(batch, [2.0] * len(batch), offsets, 1e-9)
        for raw, off, res in zip(batch, offsets, got):
            assert _same(res, _numpy_build(raw, 2.0, off, 1e-9))

    def test_probe_taken_and_not(self):
        bell = np.exp(-((np.arange(300) - 150.0) / 30.0) ** 2)
        flat = np.ones(300)
        for raw in (bell, flat):
            for eps in (1e-9, 0.5):
                got = _build_results([raw], [1.0], [0], eps)[0]
                assert _same(got, _numpy_build(raw, 1.0, 0, eps))

    def test_non_positive_total_raises(self):
        from repro.errors import DistributionError

        with pytest.raises(DistributionError):
            _build_results([np.zeros(5)], [1.0], [0], 1e-9)


def _pdf(masses, offset=0, dt=2.0) -> DiscretePDF:
    return DiscretePDF(dt, offset, np.asarray(masses, dtype=float))


@st.composite
def gap_pairs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(
        ["identical", "shifted", "disjoint", "plateau", "point", "random"]
    ))
    base = rng.random(n) + 1e-6
    a = _pdf(base, draw(st.integers(-40, 40)))
    if kind == "identical":
        b = _pdf(base, a.offset)
    elif kind == "shifted":
        b = a.shifted_bins(draw(st.integers(-3, 3)))
    elif kind == "disjoint":
        b = _pdf(rng.random(n) + 1e-6, a.offset + n + draw(st.integers(0, 9)))
    elif kind == "plateau":
        m = rng.random(n + 6)
        m[2:5] = 0.0
        m[-3:-1] = 0.0
        b = _pdf(m, a.offset - 1)
    elif kind == "point":
        b = DiscretePDF.delta(2.0, 2.0 * draw(st.integers(-40, 40)))
    else:
        b = _pdf(rng.random(draw(st.integers(1, 300))) ** 4,
                 draw(st.integers(-40, 40)))
    trim = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    return a.trimmed(trim), b.trimmed(trim)


@needs_provider
class TestGapDifferential:
    @settings(deadline=None, max_examples=300)
    @given(pair=gap_pairs(), swap=st.booleans())
    def test_bitwise_numpy(self, pair, swap):
        a, b = pair[::-1] if swap else pair
        got = PROVIDER.gap(a, b, _VERTICAL_NOISE_FLOOR)
        ref = _numpy_gap(a, b)
        assert got == ref
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()
        assert max_percentile_gap(a, b) == ref

    def test_point_masses(self):
        for ta, tb in ((0.0, 0.0), (2.0, 6.0), (6.0, 2.0)):
            a = DiscretePDF.delta(2.0, ta)
            b = DiscretePDF.delta(2.0, tb)
            got = PROVIDER.gap(a, b, _VERTICAL_NOISE_FLOOR)
            assert got == _numpy_gap(a, b)


def _merge(provider, raws, pdfs, trim_eps=1e-9) -> list:
    """One level-merge call over ``raws`` (at offsets 0, 1, ...) and the
    finished ``pdfs``: every raw as a one-operand group, then the MAX of
    each raw with the next raw and a finished operand."""
    n = len(raws)
    groups = [(j,) for j in range(n)]
    groups += [(j, (j + 1) % n, ~(j % len(pdfs))) for j in range(n)]
    return provider.merge_level(
        raws, range(n), [p.masses for p in pdfs], [p.offset for p in pdfs],
        [j for group in groups for j in group], list(map(len, groups)),
        [2.0] * len(groups), trim_eps,
    )


@needs_merge
def test_threads_match_serial():
    """Eight threads hammering the level merge and the gap at once (the
    service's handler threads) get exactly the serial answers: the
    kernels keep no shared scratch."""
    rng = np.random.default_rng(97)
    batches = [
        [rng.random(int(rng.integers(1, 400))) + 1e-5 for _ in range(16)]
        for _ in range(8)
    ]
    pdfs = [
        [_pdf(r, int(rng.integers(-9, 9))).trimmed(1e-9) for r in batch]
        for batch in batches
    ]

    def work(i):
        built = _merge(PROVIDER, batches[i], pdfs[(i + 1) % 8])
        gaps = [
            PROVIDER.gap(p, q, _VERTICAL_NOISE_FLOOR)
            for p, q in zip(pdfs[i], pdfs[(i + 1) % 8])
        ]
        return built, gaps

    serial = [work(i) for i in range(8)]
    results = [None] * 8
    barrier = threading.Barrier(8)

    def run(i):
        barrier.wait()
        for _ in range(20):
            results[i] = work(i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for (s_built, s_gaps), (t_built, t_gaps) in zip(serial, results):
        assert s_gaps == t_gaps
        assert all(_same(s, t) for s, t in zip(s_built, t_built))


#: Every bitwise kernel's self-check flag.
FLAGS = ("merge_ok", "gap_ok", "add_ok")


class TestSelfCheckInjection:
    """A self-check mismatch clears only that kernel's flag, and the
    answers do not move: the NumPy code gives the same bits."""

    @needs_provider
    @pytest.mark.parametrize(
        "flag, method", [
            ("merge_ok", "merge_level"),
            ("gap_ok", "gap"),
            ("add_ok", "add_many"),
        ],
    )
    def test_only_that_kernel_disabled(self, flag, method, monkeypatch):
        provider = _compiled._CProvider()  # noqa: SLF001
        real = getattr(provider, method)

        def lying(*args):
            out = real(*args)
            if method == "gap":
                return out + 1.0
            if method == "merge_level":
                return [r.shifted_bins(1) for r in out]
            out.buffer[0] += 1.0
            return out

        monkeypatch.setattr(provider, method, lying)
        _compiled._self_check(provider)  # noqa: SLF001
        flags = {f: getattr(provider, f) for f in FLAGS}
        assert flags == {f: f != flag and getattr(PROVIDER, f)
                         for f in FLAGS}

        ref = run_ssta(*_c17())
        monkeypatch.setattr(_compiled, "_provider", provider)
        monkeypatch.setattr(_compiled, "_resolved", True)
        got = run_ssta(*_c17())
        assert _same(got.sink_pdf, ref.sink_pdf)


def _c17():
    circuit = load("c17")
    cfg = AnalysisConfig()
    return TimingGraph(circuit), DelayModel(circuit, config=cfg)


#: Prints one JSON line: the golden sinks and a c432 pruned-sizer
#: trajectory, every float as its exact hex.
_SINKS_SCRIPT = r"""
import json, sys
from repro.config import AnalysisConfig
from repro.core.pruned_sizer import PrunedStatisticalSizer
from repro.dist import _compiled
from repro.netlist.benchmarks import load
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.ssta import run_ssta

out = {"provider": _compiled.provider_kind(), "sinks": {}}
for name in sys.argv[1].split(","):
    circuit = load(name)
    cfg = AnalysisConfig()
    sink = run_ssta(TimingGraph(circuit), DelayModel(circuit, config=cfg),
                    config=cfg).sink_pdf
    out["sinks"][name] = [sink.offset, sink.masses.tobytes().hex()]
if len(sys.argv) > 2:
    result = PrunedStatisticalSizer(
        load("c432"), config=AnalysisConfig(cache=4096),
        max_iterations=int(sys.argv[2]),
    ).run()
    out["trajectory"] = [
        [step.gate, step.sensitivity.hex(), step.objective_after.hex()]
        for step in result.steps
    ]
print(json.dumps(out))
"""


def _run_sinks(env_extra, circuits, iterations=None, cwd=None):
    env = dict(os.environ)
    env.update(env_extra)
    env["PYTHONPATH"] = str(ROOT / "src")
    args = [sys.executable, "-c", _SINKS_SCRIPT, ",".join(circuits)]
    if iterations is not None:
        args.append(str(iterations))
    proc = subprocess.run(
        args, env=env, capture_output=True, text=True, timeout=600, cwd=cwd
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@needs_provider
def test_disabled_and_enabled_provider_bitwise_equal():
    """Kill switch on vs provider on: the c17–c1908 sinks and a c432
    pruned-sizer trajectory are the same bits."""
    circuits = ("c17", "c432", "c880", "c1908")
    on = _run_sinks({_compiled.DISABLE_ENV: "0"}, circuits, iterations=4)
    off = _run_sinks({_compiled.DISABLE_ENV: "1"}, circuits, iterations=4)
    assert on["provider"] == "cext"
    assert off["provider"] is None
    assert on["sinks"] == off["sinks"]
    assert on["trajectory"] == off["trajectory"]
    assert len(on["trajectory"]) == 4


@needs_provider
def test_concurrent_first_builds_agree(tmp_path):
    """Processes resolving the provider at once against an empty build
    cache each get a working library and the same c17 sink."""
    env = {_compiled.CACHE_DIR_ENV: str(tmp_path / "cc"),
           _compiled.DISABLE_ENV: "0"}
    full = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _SINKS_SCRIPT, "c17"], env=full,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(4)
    ]
    outs = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=600)
        assert proc.returncode == 0, stderr
        outs.append(json.loads(stdout.strip().splitlines()[-1]))
    assert {o["provider"] for o in outs} == {"cext"}
    assert all(o["sinks"] == outs[0]["sinks"] for o in outs)
    # Only published libraries remain: no temp sources or objects.
    leftovers = sorted(p.name for p in (tmp_path / "cc").iterdir())
    assert leftovers and all(n.endswith(".so") for n in leftovers)


@needs_provider
def test_unloadable_cached_library_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv(_compiled.CACHE_DIR_ENV, str(tmp_path))
    so_path = _compiled._compile_library()  # noqa: SLF001
    so_path.write_bytes(b"not a shared library")
    provider = _compiled._CProvider()  # noqa: SLF001
    _compiled._self_check(provider)  # noqa: SLF001
    assert provider.merge_ok and provider.gap_ok
    assert so_path.read_bytes() != b"not a shared library"


@needs_provider
def test_ctypes_loader_gives_the_same_bits(monkeypatch):
    """Without cffi the library loads through ctypes; every kernel
    still passes its self-check and merges to the same results."""
    monkeypatch.setattr(
        _compiled._CProvider, "_load_cffi", staticmethod(lambda path: None)
    )
    provider = _compiled._CProvider()  # noqa: SLF001
    _compiled._self_check(provider)  # noqa: SLF001
    assert {f: getattr(provider, f) for f in FLAGS} == {
        f: getattr(PROVIDER, f) for f in FLAGS
    }
    assert provider.merge_ok and provider.gap_ok
    rng = np.random.default_rng(5)
    raws = [rng.random(n) + 1e-6 for n in (1, 40, 300)]
    pdfs = [_pdf(rng.random(n) + 1e-6, n - 9) for n in (3, 20)]
    got = _merge(provider, raws, pdfs)
    ref = _merge(PROVIDER, raws, pdfs)
    assert len(got) == 6
    assert all(_same(g, r) for g, r in zip(got, ref))


def test_kernel_lists_agree(monkeypatch):
    """Every exported C function is declared in the cffi ``_CDEF`` and
    bound by the ctypes loader with the same parameter count, and
    neither names a function the C source does not export: a leftover
    kernel, or ctypes argtypes that drift from the C signature, fail
    here rather than silently under the ctypes loader."""
    import ctypes

    def signatures(pattern, source) -> dict:
        return {name: len(params.split(","))
                for name, params in re.findall(pattern, source)}

    exports = signatures(
        r"EXPORT\s+[\w\s]+?\b(repro_\w+)\s*\(([^)]*)\)",
        _compiled._C_SOURCE,  # noqa: SLF001
    )
    declared = signatures(
        r"\b(repro_\w+)\s*\(([^)]*)\)", _compiled._CDEF  # noqa: SLF001
    )
    bound: dict = collections.defaultdict(types.SimpleNamespace)

    class Library:
        """Records every function the loader binds."""

        def __getattr__(self, name):
            return bound[name]

    monkeypatch.setattr(ctypes, "CDLL", lambda path: Library())
    _compiled._CProvider._load_ctypes(Path("unused.so"))  # noqa: SLF001
    assert len(exports) >= 5
    assert declared == exports
    assert {name: len(fn.argtypes) for name, fn in bound.items()} == exports
