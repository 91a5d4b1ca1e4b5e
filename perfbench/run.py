"""Benchmark entry point.

    python3 perfbench/run.py --workload size-c432 --seed 0 --seconds 30 \
        --trace 0

Runs one workload (``size-c432``, ``ssta-10k`` or ``service-mix``,
see ``README.md``) from the root of a source checkout, checks every
answer, prints the workload's own figures and its provenance, and
prints as the last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced run and writes the spans under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def prepare_imports() -> None:
    """Import ``repro`` from this checkout's ``src/`` or stop.  The
    compiled tier's build cache is kept inside the checkout too."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, str(src))
    os.environ["REPRO_COMPILED_CACHE"] = str(
        ROOT / ".bench_build" / "compiled"
    )
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["size-c432", "ssta-10k", "service-mix"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    prepare_imports()
    import common
    import workloads

    trace = bool(args.trace)
    ctx = workloads.Context(args.seed, args.seconds, trace,
                            common.load_reference())
    prov = common.provenance(args.seed, trace)
    outcome = workloads.WORKLOADS[args.workload](ctx)

    for name, text in outcome.report.items():
        print(f"{name}: {text}")
    print("provenance: " + json.dumps(prov))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    stem = f"{args.workload}-seed{args.seed}-{prov['mode']}"
    common.write_json(f"result-{stem}.json",
                      dict(result, provenance=prov, report=outcome.report))
    if trace:
        common.write_json(f"trace-{stem}.json",
                          {"provenance": prov, "spans": outcome.spans})
    common.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
