"""Shared pieces of the benchmark: percentile rules, provenance, the
recorded references and the correctness checks."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE_FILE = HERE / "reference.json"

#: The tolerance class of ``scripts/bench_dist.py``'s drift gate.
DRIFT_TOL_PS = 1e-6
#: Sink percentiles the SSTA checks compare.
CHECK_PERCENTILES = (0.5, 0.9, 0.99, 0.999)
#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------

def samples_beyond(n: int, p: float) -> int:
    """Samples of ``n`` that lie above the ``p`` quantile."""
    return math.floor(n * (1.0 - p) + 1e-9)


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p`` quantile; refuses a percentile with
    fewer than :data:`MIN_TAIL_SAMPLES` samples beyond it."""
    n = len(samples)
    if samples_beyond(n, p) < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{100 * p:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{n} samples give {samples_beyond(n, p)}"
        )
    return _interpolate(sorted(samples), p)


def median(samples: Sequence[float]) -> float:
    """Median of any non-empty sample (no tail rule: it is the centre)."""
    if not samples:
        raise ValueError("median of an empty sample")
    return _interpolate(sorted(samples), 0.5)


def highest_percentile(
    n: int, candidates: Sequence[float] = (0.999, 0.99, 0.95, 0.9, 0.5)
) -> Optional[float]:
    """The highest candidate percentile ``n`` samples can support."""
    for p in sorted(candidates, reverse=True):
        if samples_beyond(n, p) >= MIN_TAIL_SAMPLES:
            return p
    return None


def _interpolate(ordered: Sequence[float], p: float) -> float:
    pos = p * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ----------------------------------------------------------------------
# Process facts
# ----------------------------------------------------------------------

def self_peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux: kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(seed: int, trace: bool) -> dict:
    """What a result or trace must carry to be re-checked later."""
    import numpy

    from repro.config import DEFAULT_CONFIG
    from repro.dist import _compiled

    return {
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "default_backend": DEFAULT_CONFIG.backend,
        "compiled_provider": _compiled.provider_kind(),
        "seed": seed,
        "mode": "traced" if trace else "untraced",
    }


def _git_rev() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    """Content hash of the package sources: identifies the code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# References and checks
# ----------------------------------------------------------------------

def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def sink_percentiles(sink) -> Dict[str, float]:
    return {str(p): sink.percentile(p) for p in CHECK_PERCENTILES}


def percentiles_match(got: Dict[str, float], ref: Dict[str, float],
                      tol: float = DRIFT_TOL_PS) -> bool:
    return set(got) == set(ref) and all(
        abs(got[k] - ref[k]) <= tol for k in ref
    )


def trajectory(result) -> dict:
    """The part of a sizing result the checks compare exactly."""
    return {
        "gates": [step.gate for step in result.steps],
        "objective_after": [step.objective_after for step in result.steps],
        "final_p99": result.final_objective,
    }


def trajectory_matches(got: dict, ref: dict) -> bool:
    return all(got[k] == ref[k] for k in ("gates", "final_p99")) and (
        "objective_after" not in ref
        or got["objective_after"] == ref["objective_after"]
    )


def sinks_identical(a, b) -> bool:
    """Bitwise equality of two distributions."""
    import numpy as np

    return (
        a.dt == b.dt
        and a.offset == b.offset
        and a.masses.shape == b.masses.shape
        and np.array_equal(a.masses, b.masses)
    )


def emit(result: dict) -> None:
    """The result line: the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps(result), flush=True)


def write_json(name: str, payload: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path
