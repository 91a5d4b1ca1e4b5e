"""Run ``repro-ssta serve`` for the ``service-mix`` workload.

    python3 perfbench/serve.py REPORT.json TRACE [serve options...]

Runs the CLI's ``serve`` subcommand in this process, with the span
recorder attached when ``TRACE`` is ``1``.  When the server exits
(SIGTERM drains it), ``REPORT.json`` receives the process's peak
resident set size and, when traced, its spans.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time

from run import prepare_imports


def _stop_with_parent() -> None:
    """Drain and exit if the benchmark process dies without stopping
    this server, so no server outlives its run."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def main(argv) -> int:
    report_path, trace, serve_args = argv[0], argv[1] == "1", argv[2:]
    _stop_with_parent()
    prepare_imports()
    import common
    import tracer as tr
    from repro.cli import main as cli_main

    recorder = tr.Tracer()
    if trace:
        tr.install(recorder)
    try:
        return cli_main(["serve", *serve_args])
    finally:
        report = {"maxrss_kb": common.self_peak_rss_mb() * 1024.0}
        if trace:
            report["spans"] = recorder.export()
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
