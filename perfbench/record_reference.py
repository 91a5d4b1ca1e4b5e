"""Re-record ``perfbench/reference.json``.

    python3 perfbench/record_reference.py

The references are computed by the paper-literal reference path
(``direct`` kernel, per-node walk, no result cache), not by the
defaults the benchmark times, so a timed run is checked against an
independent computation.  Re-record only for a change that is meant
to alter answers.
"""

from __future__ import annotations

import json

from run import prepare_imports


def main() -> None:
    prepare_imports()
    import common
    import workloads
    from repro.config import DEFAULT_CONFIG
    from repro.core.pruned_sizer import PrunedStatisticalSizer
    from repro.netlist import benchmarks
    from repro.timing.graph import TimingGraph

    reference_config = DEFAULT_CONFIG.with_updates(
        backend="direct", level_batch=False
    )
    sizing = PrunedStatisticalSizer(
        benchmarks.load("c432"), config=reference_config,
        max_iterations=workloads.SIZE_ITERATIONS,
    ).run()
    circuit = benchmarks.generate_circuit(workloads.ssta_spec(0))
    reference = {
        "size-c432": dict(
            common.trajectory(sizing), iterations=workloads.SIZE_ITERATIONS
        ),
        "ssta-10k": {
            "0": workloads.ssta_reference(circuit, TimingGraph(circuit)),
        },
    }
    with open(common.REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {common.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
