#!/usr/bin/env python3
"""Regenerate every table/figure and archive the rendered outputs.

Writes results/<artifact>.txt for Table 1, Table 2, Figures 1/2/10.
Accepts the same fast/full switch as the benchmark harness (env
REPRO_FULL=1).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from repro.experiments import (
    fast_config,
    paper_config,
    run_figure1,
    run_figure2,
    run_figure10,
    run_table1,
    run_table2,
)

RESULTS = Path(__file__).resolve().parent.parent / "results"


def main() -> None:
    RESULTS.mkdir(exist_ok=True)
    full = os.environ.get("REPRO_FULL", "0") == "1"
    t1_cfg = paper_config() if full else fast_config(iterations=40)
    t2_cfg = paper_config() if full else fast_config(iterations=4)
    fig_cfg = paper_config() if full else fast_config(iterations=30)

    jobs = [
        ("table1", lambda: run_table1(t1_cfg)),
        ("table2", lambda: run_table2(t2_cfg)),
        ("figure1", lambda: run_figure1("c432", fig_cfg)),
        ("figure2", lambda: run_figure2("c432", fig_cfg)),
        ("figure10", lambda: run_figure10("c3540", fig_cfg)),
    ]
    for name, job in jobs:
        t0 = time.perf_counter()
        print(f"[{name}] running ...", flush=True)
        result = job()
        text = result.render()
        (RESULTS / f"{name}.txt").write_text(text + "\n")
        print(text, flush=True)
        print(f"[{name}] done in {time.perf_counter() - t0:.0f}s\n", flush=True)


if __name__ == "__main__":
    sys.exit(main())
