"""Command-line interface.

``repro-ssta`` exposes the library's main entry points::

    repro-ssta analyze c432               # SSTA + STA + MC summary
    repro-ssta optimize c432 -n 25        # statistical sizing run
    repro-ssta table1 --suite c432 c880   # regenerate Table 1
    repro-ssta table2 --suite c432        # regenerate Table 2
    repro-ssta figure1 c432               # wall-of-criticality data
    repro-ssta figure2 c432               # CDF perturbation data
    repro-ssta figure10 c3540             # area-delay curves
    repro-ssta bench path/to/file.bench   # analyze a real .bench file
    repro-ssta serve --port 8731          # persistent analysis service
    repro-ssta client analyze c432        # run analyses via the service

All experiment subcommands accept ``--full`` (paper-scale circuits and
iteration counts) and ``--iterations``.

The ``serve``/``client`` pair keeps circuits and the convolution-result
cache resident in one long-lived process; server-mediated results are
bitwise identical to local runs (see :mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .config import (
    DEFAULT_CONFIG,
    DEFAULT_SERVICE_HANDLER_THREADS,
    DEFAULT_SERVICE_QUEUE_DEPTH,
    DEFAULT_SERVICE_WORKERS,
    KNOWN_BACKENDS,
)
from .core.deterministic_sizer import DeterministicSizer
from .core.pruned_sizer import PrunedStatisticalSizer
from .dist.cache import ConvolutionCache, DEFAULT_CACHE_CAPACITY
from .errors import ReproError
from .experiments import (
    fast_config,
    paper_config,
    run_figure1,
    run_figure2,
    run_figure10,
    run_table1,
    run_table2,
)
from .experiments.report import format_table
from .netlist.bench import parse_bench_file, write_bench
from .netlist.benchmarks import PAPER_SUITE, load
from .timing.delay_model import DelayModel
from .timing.graph import TimingGraph
from .timing.corners import run_corners
from .timing.monte_carlo import run_monte_carlo
from .timing.ssta import run_ssta
from .timing.sta import run_sta
from .timing.yield_analysis import delay_at_yield, timing_yield, yield_curve

__all__ = ["main"]


def _experiment_config(args: argparse.Namespace):
    builder = paper_config if getattr(args, "full", False) else fast_config
    kwargs = {}
    if getattr(args, "suite", None):
        kwargs["suite"] = args.suite
    if getattr(args, "iterations", None):
        kwargs["iterations"] = args.iterations
    return builder(**kwargs)


def _analysis_config(args: argparse.Namespace):
    """Resolve the shared analysis knobs (level batching is bitwise
    transparent, so that flag changes cost, never answers)."""
    config = DEFAULT_CONFIG
    if getattr(args, "no_level_batch", False):
        config = config.with_updates(level_batch=False)
    backend = getattr(args, "backend", None)
    if backend is not None and backend != config.backend:
        config = config.with_updates(backend=backend)
    return config


def _analyze_circuit(circuit, mc_samples: int, config=DEFAULT_CONFIG) -> str:
    graph = TimingGraph(circuit)
    model = DelayModel(circuit, config=config)
    sta = run_sta(graph, model)
    ssta = run_ssta(graph, model, config=config)
    mc = run_monte_carlo(graph, model, n_samples=mc_samples, config=config)
    corners = run_corners(graph, model)
    return format_table(
        f"Timing summary — {circuit.name}",
        ["metric", "value"],
        [
            ("gates", circuit.n_gates),
            ("nets (nodes)", circuit.n_nets),
            ("pin arcs (edges)", circuit.n_pin_edges),
            ("logic depth", circuit.depth()),
            ("STA delay (ps)", sta.circuit_delay),
            ("SSTA mean (ps)", ssta.mean_delay()),
            ("SSTA sigma (ps)", ssta.std_delay()),
            ("SSTA 99% bound (ps)", ssta.percentile(0.99)),
            (f"MC 99% ({mc_samples} samples, ps)", mc.percentile(0.99)),
            ("corner best/typ/worst (ps)",
             f"{corners.delay_at('best'):.0f} / "
             f"{corners.delay_at('typical'):.0f} / "
             f"{corners.delay_at('worst'):.0f}"),
            ("worst-corner pessimism vs 99% (%)",
             100.0 * corners.pessimism_vs(ssta.percentile(0.99))),
        ],
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    print(_analyze_circuit(load(args.circuit, scale=args.scale),
                           args.mc_samples, _analysis_config(args)))
    return 0


def cmd_bench_file(args: argparse.Namespace) -> int:
    print(_analyze_circuit(parse_bench_file(args.path), args.mc_samples,
                           _analysis_config(args)))
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    circuit = load(args.circuit, scale=args.scale)
    sizer_cls = DeterministicSizer if args.deterministic else PrunedStatisticalSizer
    config = _analysis_config(args)
    rows = []
    cache_path = None
    if args.cache_file and args.deterministic:
        # The deterministic baseline never touches the statistical
        # kernels, so there is nothing to snapshot; dropping the
        # explicitly requested knob silently would be a no-op the
        # user only discovers later.
        raise SystemExit(
            "--cache-file has no effect with --deterministic"
        )
    if args.cache_file and not args.cache:
        # An explicit --cache 0 promises an uncached run; silently
        # re-enabling the cache to honor the snapshot would corrupt
        # benchmarks. Make the contradiction loud instead.
        raise SystemExit(
            "--cache-file needs the result cache: drop --cache 0 "
            "or the --cache-file option"
        )
    if args.cache_file:
        # Persistent cross-run warm start: entries are content-keyed
        # (fingerprints of the operand mass vectors), so a snapshot
        # from an earlier run of the same circuit family replays its
        # kernel results bitwise instead of recomputing them.
        from pathlib import Path

        cache_path = Path(args.cache_file)
        if cache_path.exists():
            cache_obj = ConvolutionCache.load(cache_path, capacity=args.cache)
            rows.append(("cache entries loaded", len(cache_obj)))
        else:
            cache_obj = ConvolutionCache(args.cache)
        config = config.with_updates(cache=cache_obj)
    elif args.cache and not args.deterministic:
        # The result cache changes cost, never answers (hits are
        # bitwise); the hit rate row makes the saved work visible.
        config = config.with_updates(cache=args.cache)
    try:
        result = sizer_cls(circuit, config=config, max_iterations=args.iterations).run()
    finally:
        # Snapshot even when the run raises: entries are content-keyed
        # and hits replay bitwise, so a crashed run's partial warm
        # state still shortens the next attempt.
        if cache_path is not None:
            saved = config.cache.save(cache_path)
    if config.cache is not None:
        rows.append(("cache hit rate", result.cache_hit_rate))
    if cache_path is not None:
        rows.append(("cache entries saved", saved))
    print(
        format_table(
            f"{result.optimizer} sizing — {circuit.name}",
            ["metric", "value"],
            [
                ("iterations", result.n_iterations),
                ("stop reason", result.stop_reason),
                (f"initial {result.objective_name} (ps)", result.initial_objective),
                (f"final {result.objective_name} (ps)", result.final_objective),
                ("improvement (%)", result.improvement_percent),
                ("size increase (%)", result.size_increase_percent),
                ("total time (s)", result.total_time_s),
            ]
            + rows,
        )
    )
    return 0


def cmd_yield(args: argparse.Namespace) -> int:
    circuit = load(args.circuit, scale=args.scale)
    graph = TimingGraph(circuit)
    model = DelayModel(circuit)
    sink = run_ssta(graph, model).sink_pdf
    rows = []
    if args.target is not None:
        rows.append((f"yield at {args.target:g} ps", timing_yield(sink, args.target)))
    for y in (0.50, 0.90, 0.95, 0.99):
        rows.append((f"delay at {100 * y:g}% yield (ps)", delay_at_yield(sink, y)))
    print(format_table(f"Timing yield — {circuit.name}", ["metric", "value"], rows))
    targets, yields = yield_curve(sink, n_points=12)
    print()
    print(format_table(
        "yield curve",
        ["target (ps)", "yield"],
        [(float(t_), float(yy)) for t_, yy in zip(targets, yields)],
    ))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    circuit = load(args.circuit, scale=args.scale)
    text = write_bench(circuit)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {circuit.name} ({circuit.n_gates} gates) to {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceState, serve

    budget = None
    if args.cache_budget_mb is not None:
        budget = int(args.cache_budget_mb * 1024 * 1024)
    if args.workers > 1:
        # Pre-fork front: N worker processes behind one SO_REUSEPORT
        # port, each a complete bounded-admission service; the parent
        # supervises, respawns, and reconciles snapshots.
        from .service import ServiceFrontend, WorkerSpec

        spec = WorkerSpec(
            config=_analysis_config(args),
            cache_capacity=args.cache,
            cache_file=args.cache_file,
            cache_budget_bytes=budget,
            ttl_s=args.circuit_ttl,
            session_ttl_s=args.session_ttl,
            max_resident=args.max_resident,
            handler_threads=args.handler_threads,
            queue_depth=args.queue_depth,
            flush_interval_s=args.flush_interval,
            quiet=not args.verbose,
        )
        front = ServiceFrontend(
            spec, host=args.host, port=args.port, workers=args.workers
        )
        front.start()
        # Announce only once every worker is accepting: scripts that
        # gate on this line (the CI smoke does) get a ready service.
        front.wait_until_ready()
        print(
            f"repro-ssta service listening on {front.url} "
            f"({args.workers} workers)",
            flush=True,
        )
        return front.run()
    state = ServiceState(
        config=_analysis_config(args),
        cache=args.cache,
        cache_file=args.cache_file,
        ttl_s=args.circuit_ttl,
        session_ttl_s=args.session_ttl,
        max_resident=args.max_resident,
        cache_budget_bytes=budget,
    )

    def _ready(server) -> None:
        print(f"repro-ssta service listening on {server.url}", flush=True)
        if state.loaded_entries:
            print(
                f"warm-started {state.loaded_entries} cache entries "
                f"from {state.cache_file}",
                flush=True,
            )

    return serve(
        state,
        args.host,
        args.port,
        flush_interval_s=args.flush_interval,
        quiet=not args.verbose,
        ready_callback=_ready,
        handler_threads=args.handler_threads,
        queue_depth=args.queue_depth,
    )


def cmd_client(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    client = ServiceClient(
        args.url,
        timeout_s=args.timeout,
        max_retries=args.retries,
        total_deadline_s=args.deadline,
    )
    client.health()  # also checks the protocol version
    return args.client_func(client, args)


def _client_analyze(client, args: argparse.Namespace) -> int:
    rep = client.analyze(args.circuit, scale=args.scale)
    rows = [
        ("gates", rep.gates),
        ("STA delay (ps)", rep.sta_delay),
        ("SSTA mean (ps)", rep.mean),
        ("SSTA sigma (ps)", rep.std),
    ]
    rows += [
        (f"SSTA {100 * p:g}% bound (ps)", v) for p, v in rep.percentiles
    ]
    hits = rep.kernel.get("cache_hits", 0)
    requests = rep.kernel.get("requests", 0)
    rows.append(("server cache hit rate",
                 hits / requests if requests else 0.0))
    print(format_table(
        f"Timing summary (service) — {rep.circuit}",
        ["metric", "value"], rows,
    ))
    return 0


def _client_optimize(client, args: argparse.Namespace) -> int:
    rep = client.optimize(
        args.circuit,
        iterations=args.iterations,
        scale=args.scale,
        sizer=args.sizer,
    )
    result = rep.result
    print(format_table(
        f"{result.optimizer} sizing (service) — {rep.circuit}",
        ["metric", "value"],
        [
            ("iterations", result.n_iterations),
            ("stop reason", result.stop_reason),
            (f"initial {result.objective_name} (ps)",
             result.initial_objective),
            (f"final {result.objective_name} (ps)",
             result.final_objective),
            ("improvement (%)", result.improvement_percent),
            ("size increase (%)", result.size_increase_percent),
            ("total time (s)", result.total_time_s),
            ("server cache hit rate", rep.cache_hit_rate),
        ],
    ))
    return 0


def _client_yield(client, args: argparse.Namespace) -> int:
    rep = client.yield_query(args.circuit, scale=args.scale,
                             target=args.target)
    rows = []
    if rep.yield_at_target is not None:
        rows.append((f"yield at {args.target:g} ps", rep.yield_at_target))
    rows += [
        (f"delay at {100 * y:g}% yield (ps)", d)
        for y, d in rep.delay_at_yield
    ]
    print(format_table(
        f"Timing yield (service) — {rep.circuit}",
        ["metric", "value"], rows,
    ))
    print()
    print(format_table(
        "yield curve", ["target (ps)", "yield"],
        [(t, y) for t, y in rep.yield_curve],
    ))
    return 0


def _client_stats(client, args: argparse.Namespace) -> int:
    stats = client.stats()
    cache = stats["cache"]
    rows = [
        ("uptime (s)", stats["uptime_s"]),
        ("cache entries", cache["entries"]),
        ("cache capacity", cache["capacity"]),
        ("cache approx bytes", cache["approx_bytes"]),
        ("cache hits", cache["hits"]),
        ("cache misses", cache["misses"]),
        ("cache evictions", cache["evictions"]),
        ("cache hit rate", cache["hit_rate"]),
        ("entries from snapshot", cache["loaded_from_snapshot"]),
        ("open sessions", len(stats["sessions"])),
        ("resident circuits", len(stats["resident_circuits"])),
    ]
    overload = stats.get("overload")
    if overload:
        rows += [
            ("requests accepted", overload["accepted"]),
            ("requests rejected (503)", overload["rejected"]),
            ("requests completed", overload["completed"]),
            ("queue depth / limit",
             f'{overload["queued"]} / {overload["queue_limit"]}'),
            ("handler threads", overload["handler_threads"]),
            ("queue wait p99 (ms)", overload["queue_wait_p99_ms"]),
        ]
    print(format_table("Service statistics", ["metric", "value"], rows))
    latency = stats.get("requests", {})
    if latency:
        print()
        print(format_table(
            "request latency",
            ["endpoint", "count", "p50 (ms)", "p99 (ms)"],
            [
                (ep, m["count"], m["p50_ms"], m["p99_ms"])
                for ep, m in sorted(latency.items())
            ],
        ))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    print(run_table1(_experiment_config(args)).render())
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    print(run_table2(_experiment_config(args)).render())
    return 0


def cmd_figure1(args: argparse.Namespace) -> int:
    print(run_figure1(args.circuit, _experiment_config(args)).render())
    return 0


def cmd_figure2(args: argparse.Namespace) -> int:
    print(run_figure2(args.circuit, _experiment_config(args)).render())
    return 0


def cmd_figure10(args: argparse.Namespace) -> int:
    print(run_figure10(args.circuit, _experiment_config(args)).render())
    return 0


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--full", action="store_true",
                        help="paper-scale circuits and iteration counts")
    parser.add_argument("--iterations", type=int, default=None,
                        help="sizing iterations per optimizer run")


def _add_level_batch_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-level-batch", action="store_true",
                        help="propagate node by node instead of batching "
                             "each topological level through one kernel "
                             "dispatch (bitwise-identical results; the "
                             "sequential mode exists for differential "
                             "testing and timing comparisons)")
    parser.add_argument("--backend", choices=list(KNOWN_BACKENDS),
                        default=None, metavar="B",
                        help="convolution backend: 'auto' (default) "
                             "dispatches direct/fft by operand size; "
                             "'compiled' / 'compiled-auto' run the "
                             "compiled convolution (a C library built "
                             "on first use; degrades to the pure-NumPy "
                             "direct numerics with a warning without a "
                             "C compiler)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ssta",
        description="Statistical timing based optimization using gate sizing "
        "(DATE 2005 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="STA/SSTA/MC summary of a benchmark")
    p.add_argument("circuit", choices=PAPER_SUITE + ["c17"])
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--mc-samples", type=int, default=4000)
    _add_level_batch_flag(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="analyze an external .bench netlist")
    p.add_argument("path")
    p.add_argument("--mc-samples", type=int, default=4000)
    _add_level_batch_flag(p)
    p.set_defaults(func=cmd_bench_file)

    p = sub.add_parser("optimize", help="run a sizing optimization")
    p.add_argument("circuit", choices=PAPER_SUITE + ["c17"])
    p.add_argument("-n", "--iterations", type=int, default=25)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--cache", type=int, default=DEFAULT_CACHE_CAPACITY,
                   metavar="ENTRIES",
                   help="result-cache capacity (node arrivals) for "
                        "the statistical sizer (0 disables; results are "
                        "bitwise identical either way)")
    p.add_argument("--cache-file", default=None, metavar="PATH",
                   help="persistent cache snapshot: load it if it "
                        "exists (warm-starting this run bitwise), and "
                        "save the cache back to it afterwards. The "
                        "file is a pickle — load only snapshots you "
                        "wrote yourself")
    p.add_argument("--deterministic", action="store_true",
                   help="use the deterministic baseline instead")
    _add_level_batch_flag(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("yield", help="timing-yield queries on a benchmark")
    p.add_argument("circuit", choices=PAPER_SUITE + ["c17"])
    p.add_argument("--target", type=float, default=None,
                   help="delay target (ps) to evaluate yield at")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=cmd_yield)

    p = sub.add_parser("export", help="write a benchmark as .bench text")
    p.add_argument("circuit", choices=PAPER_SUITE + ["c17"])
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "serve",
        help="run the persistent analysis service (see repro.service)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8731,
                   help="TCP port (0 picks a free one; the resolved "
                        "URL is printed at startup)")
    p.add_argument("--cache", type=int, default=DEFAULT_CACHE_CAPACITY,
                   metavar="ENTRIES",
                   help="capacity of the process-wide shared "
                        "convolution-result cache")
    p.add_argument("--cache-file", default=None, metavar="PATH",
                   help="persistent snapshot: warm-start from it if it "
                        "exists, flush back periodically and on "
                        "shutdown (pickle — load only snapshots you "
                        "wrote yourself)")
    p.add_argument("--cache-budget-mb", type=float, default=None,
                   metavar="MB",
                   help="approximate memory budget for the shared "
                        "cache; trimmed LRU-first after each request")
    p.add_argument("--flush-interval", type=float, default=300.0,
                   metavar="SECONDS",
                   help="periodic snapshot flush interval "
                        "(0 disables; shutdown still flushes)")
    p.add_argument("--max-resident", type=int, default=32,
                   help="resident (circuit, config) entries kept "
                        "loaded, LRU-evicted beyond this")
    p.add_argument("--circuit-ttl", type=float, default=3600.0,
                   metavar="SECONDS",
                   help="idle time before a resident circuit is "
                        "dropped")
    p.add_argument("--session-ttl", type=float, default=3600.0,
                   metavar="SECONDS",
                   help="idle time before a session is dropped")
    p.add_argument("--workers", type=int, default=DEFAULT_SERVICE_WORKERS,
                   help="worker processes behind the port (>1 uses the "
                        "SO_REUSEPORT pre-fork front with parent-side "
                        "snapshot reconciliation)")
    p.add_argument("--handler-threads", type=int,
                   default=DEFAULT_SERVICE_HANDLER_THREADS,
                   help="fixed handler threads per worker (the service "
                        "never spawns a thread per request)")
    p.add_argument("--queue-depth", type=int,
                   default=DEFAULT_SERVICE_QUEUE_DEPTH,
                   help="bounded admission queue per worker; requests "
                        "beyond it are rejected fast with 503 + "
                        "Retry-After")
    p.add_argument("--verbose", action="store_true",
                   help="log each HTTP request")
    _add_level_batch_flag(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "client",
        help="run analyses through a repro-ssta service",
    )
    p.add_argument("--url", default="http://127.0.0.1:8731",
                   help="service base URL")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="per-request timeout (s)")
    p.add_argument("--retries", type=int, default=3,
                   help="retry budget for overload rejections (503 + "
                        "Retry-After, retried for every verb) and for "
                        "transport failures (idempotent verbs only — "
                        "never a blind optimize resend)")
    p.add_argument("--deadline", type=float, default=120.0,
                   help="total wall-clock budget (s) across all retry "
                        "attempts of one request")
    csub = p.add_subparsers(dest="client_command", required=True)

    c = csub.add_parser("analyze", help="SSTA + STA via the service")
    c.add_argument("circuit", choices=PAPER_SUITE + ["c17"])
    c.add_argument("--scale", type=float, default=1.0)
    c.set_defaults(func=cmd_client, client_func=_client_analyze)

    c = csub.add_parser("optimize", help="sizing run via the service")
    c.add_argument("circuit", choices=PAPER_SUITE + ["c17"])
    c.add_argument("-n", "--iterations", type=int, default=25)
    c.add_argument("--scale", type=float, default=1.0)
    c.add_argument("--sizer", default="pruned",
                   choices=["pruned", "heuristic", "brute",
                            "deterministic"])
    c.set_defaults(func=cmd_client, client_func=_client_optimize)

    c = csub.add_parser("yield", help="yield queries via the service")
    c.add_argument("circuit", choices=PAPER_SUITE + ["c17"])
    c.add_argument("--target", type=float, default=None)
    c.add_argument("--scale", type=float, default=1.0)
    c.set_defaults(func=cmd_client, client_func=_client_yield)

    c = csub.add_parser("stats", help="cache/session/latency report")
    c.set_defaults(func=cmd_client, client_func=_client_stats)

    p = sub.add_parser("table1", help="regenerate Table 1")
    p.add_argument("--suite", nargs="+", choices=PAPER_SUITE, default=None)
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", help="regenerate Table 2")
    p.add_argument("--suite", nargs="+", choices=PAPER_SUITE, default=None)
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_table2)

    for name, func, default in (
        ("figure1", cmd_figure1, "c432"),
        ("figure2", cmd_figure2, "c432"),
        ("figure10", cmd_figure10, "c3540"),
    ):
        p = sub.add_parser(name, help=f"regenerate {name}")
        p.add_argument("circuit", nargs="?", default=default, choices=PAPER_SUITE)
        _add_experiment_flags(p)
        p.set_defaults(func=func)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # A typed library error is a user-facing failure (bad snapshot,
        # bad .bench file, unreachable service), not a crash: one line
        # on stderr and exit status 1, like the CLI's own SystemExits.
        raise SystemExit(f"repro-ssta: {type(exc).__name__}: {exc}") from None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
