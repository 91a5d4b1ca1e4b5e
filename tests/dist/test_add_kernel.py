"""The compiled ADD kernel is bitwise ``np.convolve``.

``np.convolve`` on float64 reaches BLAS ``ddot``, whose summation order
the CPU's kernel choice fixes.  The compiled tier's ADD kernel calls
the same ``ddot`` numpy loaded, in numpy's own loop order, so it gives
``np.convolve``'s bits on every core type.  These tests pin that per
pair (random lengths, an exhaustive small grid, both operand orders,
zero and subnormal masses), in subprocesses under other
``OPENBLAS_CORETYPE`` kernels, and end to end: a provider without the
kernel, or no provider at all, gives the same sinks.

They are the equality suite CI also runs under each core type; they
compare against ``np.convolve`` in the running process, never against
recorded bits.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import AnalysisConfig
from repro.dist import _compiled
from repro.dist.backends import get_backend
from repro.dist.ops import OpCounter, convolve_many
from repro.dist.pdf import DiscretePDF
from repro.netlist.benchmarks import load
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.ssta import run_ssta

PROVIDER = _compiled.get_provider()

needs_add = pytest.mark.skipif(
    PROVIDER is None or not PROVIDER.add_ok,
    reason="compiled ADD kernel unavailable "
    f"({_compiled.fail_reason() or 'BLAS ddot not found'})",
)

ROOT = Path(__file__).resolve().parents[2]


def _masses(rng, n: int, shape: str) -> np.ndarray:
    if shape == "zeros":
        m = rng.random(n)
        m[rng.random(n) < 0.5] = 0.0
        m[rng.integers(0, n)] = 1.0
    elif shape == "subnormal":
        m = rng.random(n) * 1e-310
        m[rng.integers(0, n)] = 1e-300
    else:
        m = rng.random(n)
    return m


def _pairs(operands, ia, ib) -> list:
    return [(operands[i], operands[j]) for i, j in zip(ia, ib)]


def _rows_equal(operands, ia, ib) -> bool:
    rows = PROVIDER.add_many(_pairs(operands, ia, ib))
    return all(
        row.tobytes() == np.convolve(operands[i], operands[j]).tobytes()
        for i, j, row in zip(ia, ib, rows)
    )


@pytest.mark.skipif(
    PROVIDER is None or not os.path.exists("/proc/self/maps"),
    reason="no compiled provider, or no /proc/self/maps",
)
def test_kernel_resolves_against_numpy_openblas():
    """With numpy's bundled OpenBLAS (wheels on Linux) the symbol is
    found and the kernel passes its self-check: the equality tests
    below run instead of skipping."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if not blas.get("name", "").startswith("scipy-openblas"):
        pytest.skip(f"numpy links {blas.get('name')!r}")
    assert _compiled._blas_ddot() is not None  # noqa: SLF001
    assert PROVIDER.add_ok


@needs_add
class TestAddKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        na=st.integers(1, 1000),
        nb=st.integers(1, 1000),
        equal=st.booleans(),
        shape=st.sampled_from(["uniform", "zeros", "subnormal"]),
        lead=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_np_convolve(self, na, nb, equal, shape, lead, seed):
        rng = np.random.default_rng(seed)
        if equal:
            nb = na
        # ``lead`` one-bin operands packed first shift where the pair's
        # operands sit in the packed buffer.
        operands = [np.ones(1)] * lead + [
            _masses(rng, na, shape), _masses(rng, nb, shape)
        ]
        a, b = lead, lead + 1
        # Both operand orders, and an operand convolved with itself.
        assert _rows_equal(operands, [a, b, a], [b, a, a])

    def test_exhaustive_small_grid(self):
        """Every length pair in 1..24 x 1..24: both sides of numpy's
        small-kernel bound (a shorter operand of 11 bins or fewer) and
        of the operand swap."""
        rng = np.random.default_rng(11)
        operands = [rng.random(n) for n in range(1, 25)]
        ia, ib = zip(*itertools.product(range(24), repeat=2))
        assert _rows_equal(operands, ia, ib)

    def test_rows_back_to_back(self):
        rng = np.random.default_rng(3)
        operands = [rng.random(n) for n in (5, 40, 1)]
        rows = PROVIDER.add_many(_pairs(operands, [0, 1, 2], [1, 1, 0]))
        assert list(rows.lengths) == [44, 79, 5]
        assert rows.buffer.size == 44 + 79 + 5

    def test_bad_operand_index_raises(self):
        # ``add_many`` indexes its own operands; the kernel still
        # range-checks every index it is given.
        idx = np.array(([0], [-1], [5]), dtype=np.int64)
        with pytest.raises(IndexError):
            PROVIDER._run_add([np.ones(3)], idx)  # noqa: SLF001


@needs_add
def test_threads_match_serial():
    """Threads calling the kernel at once (the service's handler
    threads) get the serial rows: its scratch is per call."""
    rng = np.random.default_rng(41)
    batches = []
    for _ in range(6):
        operands = [rng.random(int(n)) for n in rng.integers(1, 300, 9)]
        ia, ib = zip(*((int(i), int(j)) for i, j in
                       rng.integers(0, 9, (20, 2))))
        batches.append(_pairs(operands, ia, ib))
    serial = [PROVIDER.add_many(batch).buffer.tobytes() for batch in batches]
    results = [None] * len(batches)
    barrier = threading.Barrier(len(batches))

    def run(k):
        barrier.wait()
        for _ in range(10):
            results[k] = PROVIDER.add_many(batches[k]).buffer.tobytes()

    threads = [threading.Thread(target=run, args=(k,))
               for k in range(len(batches))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == serial


@needs_add
def test_batch_routes_pairs_by_the_backend_bound(monkeypatch):
    """The ADD kernel gets exactly the distinct pairs ``auto`` sends
    to its direct side (an above-bound asymmetric pair among them) and
    every distinct pair under ``direct``; every row is bitwise
    ``np.convolve``, the FFT-side rows are the FFT backend's, and the
    tally counts every requested pair."""
    seen = []
    real = PROVIDER.add_many

    def spy(pairs):
        rows = real(pairs)
        seen.append(list(zip(pairs, rows)))
        return rows

    monkeypatch.setattr(PROVIDER, "add_many", spy)
    auto = get_backend("auto")
    assert auto.direct_below == 994
    rng = np.random.default_rng(8)
    pdfs = [
        DiscretePDF(2.0, int(rng.integers(-5, 5)), rng.random(n) + 1e-6)
        for n in (3, 12, 700, 600, 2000)
    ]
    pairs = [(pdfs[i], pdfs[j]) for i, j in
             ((0, 1), (2, 3), (3, 2), (4, 4), (0, 4), (1, 0), (0, 1))]
    distinct = pairs[:-1]
    direct_side = [(a, b) for a, b in distinct
                   if auto.chooses(a.n_bins, b.n_bins) == "direct"]
    # (3, 12), (3, 2000) above the bound, and (12, 3).
    assert [(a.n_bins, b.n_bins) for a, b in direct_side] == [
        (3, 12), (3, 2000), (12, 3)
    ]
    for backend, expected in (("auto", direct_side), ("direct", distinct)):
        del seen[:]
        counter = OpCounter()
        got = convolve_many(pairs, trim_eps=1e-9, counter=counter,
                            backend=backend)
        assert counter.convolutions == len(pairs)
        assert got[0] is got[-1]
        (call,) = seen
        assert [(id(a.masses), id(b.masses)) for a, b in expected] == [
            (id(a), id(b)) for (a, b), _row in call
        ]
        for (a, b), row in call:
            assert row.tobytes() == np.convolve(a, b).tobytes()
        on_kernel = {(id(a), id(b)) for a, b in expected}
        for (a, b), res in zip(pairs, got):
            if (id(a), id(b)) in on_kernel:
                raw = np.convolve(a.masses, b.masses)
            else:
                raw = get_backend("fft").convolve_masses(a.masses, b.masses)
            ref = DiscretePDF._trusted(  # noqa: SLF001
                2.0, a.offset + b.offset, raw
            ).trimmed(1e-9)
            assert res.offset == ref.offset
            assert res.masses.tobytes() == ref.masses.tobytes()


def _sinks():
    out = {}
    for name in ("c17", "c432"):
        circuit = load(name)
        cfg = AnalysisConfig()
        sink = run_ssta(TimingGraph(circuit), DelayModel(circuit, config=cfg),
                        config=cfg).sink_pdf
        out[name] = (sink.offset, sink.masses.tobytes())
    return out


@needs_add
def test_failed_ddot_lookup_clears_add_ok(monkeypatch):
    """Without the BLAS symbol the provider comes up with ``add_ok``
    cleared, the other kernels still on, and the sinks keep their
    bits: the ``np.convolve`` loop runs instead."""
    ref = _sinks()
    monkeypatch.setattr(_compiled, "_blas_ddot", lambda: None)
    provider = _compiled._CProvider()  # noqa: SLF001
    _compiled._self_check(provider)  # noqa: SLF001
    assert not provider.add_ok
    assert provider.merge_ok and provider.gap_ok
    monkeypatch.setattr(_compiled, "_provider", provider)
    monkeypatch.setattr(_compiled, "_resolved", True)
    assert _sinks() == ref


@needs_add
def test_self_check_mismatch_clears_add_ok(monkeypatch):
    provider = _compiled._CProvider()  # noqa: SLF001
    real = provider.add_many

    def lying(*args):
        rows = real(*args)
        rows.buffer[0] += 1.0
        return rows

    monkeypatch.setattr(provider, "add_many", lying)
    _compiled._self_check(provider)  # noqa: SLF001
    assert not provider.add_ok
    assert provider.merge_ok and provider.gap_ok


#: Prints one JSON line: whether the ADD kernel resolved in this
#: process, and how many of its rows differ from np.convolve.
_CORETYPE_SCRIPT = r"""
import itertools, json
import numpy as np
from repro.dist import _compiled

p = _compiled.get_provider()
rng = np.random.default_rng(20261019)
operands = [rng.random(n) for n in range(1, 25)]
operands += [rng.random(int(n)) for n in rng.integers(1, 1000, 41)]
pairs = list(itertools.product(range(24), repeat=2))
pairs += [tuple(int(i) for i in rng.integers(0, len(operands), 2))
          for _ in range(300)]
ia, ib = zip(*pairs)
rows = p.add_many([(operands[i], operands[j]) for i, j in zip(ia, ib)])
bad = sum(row.tobytes() != np.convolve(operands[i], operands[j]).tobytes()
          for i, j, row in zip(ia, ib, rows))
print(json.dumps({"add_ok": p.add_ok, "pairs": len(pairs), "bad": bad}))
"""


@needs_add
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_other_blas_core_types(coretype):
    """Under another OpenBLAS ``ddot`` kernel (a different summation
    order) the ADD kernel still resolves and equals ``np.convolve`` in
    that process."""
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=str(ROOT / "src"))
    env.pop(_compiled.DISABLE_ENV, None)
    proc = subprocess.run(
        [sys.executable, "-c", _CORETYPE_SCRIPT], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == {"add_ok": True, "pairs": 876, "bad": 0}
