"""The three benchmark workloads.

Each workload function takes a :class:`Context` and returns a
:class:`Outcome`: operations attempted and failed, the end-to-end
metrics (untraced run) or per-layer metrics (traced run), and a report
of the workload's own named figures.  All three use the shipped
defaults: backend ``auto``, ``jobs=1``, level batching on, dense
storage, and the CLI's default cache capacity for sizing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

import common
import tracer as tr

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = {"size-c432": 15, "ssta-10k": 5, "service-mix": 3}
#: Sizing iterations per ``size-c432`` operation (fixed budget).
SIZE_ITERATIONS = 10
#: c880 scale factor of the ``ssta-10k`` circuit (9855 gates).
SSTA_SCALE = 27
#: ``service-mix``: closed-loop clients and the requests' shapes.
SERVICE_CLIENTS = 2
OPTIMIZE_ITERATIONS = 2
OPTIMIZE_SCALES = (1.0, 0.5)
ANALYZE_CIRCUITS = ("c432", "c880")
#: Requests per client in the traced part of a traced run.
TRACED_PER_CLIENT = 60

#: per-layer metric -> (unit, better); BENCHMARK.json lists the same.
PER_LAYER = {
    "perturbation.advance_s": ("s", "lower"),
    "perturbation.advances": ("count", "lower"),
    "perturbation.nodes_per_advance": ("nodes", "higher"),
    "perturbation.init_s": ("s", "lower"),
    "perturbation.fronts": ("count", "lower"),
    "pruned_sizer.pruned_fraction": ("ratio", "higher"),
    "pruned_sizer.candidates": ("count", "lower"),
    "metrics.gap_s": ("s", "lower"),
    "metrics.gap_calls": ("count", "lower"),
    "ssta.level_s": ("s", "lower"),
    "ssta.levels": ("count", "lower"),
    "ssta.nodes_per_level": ("nodes", "higher"),
    "ssta.fanin_parts_s": ("s", "lower"),
    "ssta.run_s": ("s", "lower"),
    "ops.convolve_many_s": ("s", "lower"),
    "ops.convolve_pairs": ("count", "lower"),
    "ops.stat_max_groups_s": ("s", "lower"),
    "ops.max_groups": ("count", "lower"),
    "delay_model.delay_pdf_s": ("s", "lower"),
    "delay_model.delay_pdf_calls": ("count", "lower"),
    "cache.hit_rate": ("ratio", "higher"),
    "cache.requests": ("count", "lower"),
    "cache.node_probe_s": ("s", "lower"),
    "cache.node_probes": ("count", "lower"),
    "netlist.generate_s": ("s", "lower"),
    "graph.build_s": ("s", "lower"),
    "service.handler_ms_p50": ("ms", "lower"),
    "service.transport_ms_p50": ("ms", "lower"),
    "service.queue_wait_ms_p50": ("ms", "lower"),
    "service.queue_wait_ms_p99": ("ms", "lower"),
    "protocol.decode_s": ("s", "lower"),
    "protocol.reply_bytes": ("bytes", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.coverage_pct": ("%", "higher"),
}

#: end-to-end metric -> unit; BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclasses.dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    reference: dict
    tracer: tr.Tracer = dataclasses.field(default_factory=tr.Tracer)


@dataclasses.dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    report: Dict[str, str]
    #: traced run: exported spans per process
    spans: Dict[str, list] = dataclasses.field(default_factory=dict)


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------

@dataclasses.dataclass
class Measured:
    plain: List[float] = dataclasses.field(default_factory=list)
    traced: List[float] = dataclasses.field(default_factory=list)
    infos: List[object] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _run_op(ctx: Context, op: Callable[[object], Tuple[bool, object]],
            arg: object, traced: bool) -> Tuple[float, bool, object]:
    """One operation, timed, with the tracer attached if ``traced``.
    An exception is a failed operation, not a crashed benchmark."""
    undo = tr.install(ctx.tracer) if traced else None
    try:
        with ctx.tracer.span("op") if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                ok, info = op(arg)
            except Exception:
                traceback.print_exc()
                ok, info = False, None
            elapsed = time.perf_counter() - t0
    finally:
        if undo is not None:
            tr.uninstall(undo)
    return elapsed, ok, info


def measure(ctx: Context, op: Callable[[object], Tuple[bool, object]],
            prepare: Callable[[], object] = lambda: None) -> Measured:
    """Run ``op(prepare())`` back to back for ``ctx.seconds``, timing
    only ``op``: untraced only, or (traced run) alternating untraced
    and traced, starting untraced.  An operation starts only if the
    median so far says it will end within the budget; at least one of
    each kind always runs."""
    m = Measured()
    start = time.perf_counter()
    while True:
        traced = ctx.trace and len(m.traced) < len(m.plain)
        elapsed, ok, info = _run_op(ctx, op, prepare(), traced)
        (m.traced if traced else m.plain).append(elapsed)
        if traced:
            m.infos.append(info)
        m.attempted += 1
        m.failed += not ok
        done = bool(m.plain) and (m.traced or not ctx.trace)
        spent = time.perf_counter() - start
        if done and spent + common.median(m.plain + m.traced) > ctx.seconds:
            return m


def timed_setups(ctx: Context, setup: Callable[[], object],
                 repeats: int) -> Tuple[List[float], object]:
    """Run ``setup`` ``repeats`` times (once, traced, in a traced run)
    and return the durations and the last set-up's value."""
    times = []
    value = None
    for _ in range(1 if ctx.trace else repeats):
        undo = tr.install(ctx.tracer) if ctx.trace else None
        try:
            with ctx.tracer.span("setup") if ctx.trace else \
                    contextlib.nullcontext():
                t0 = time.perf_counter()
                value = setup()
                times.append(time.perf_counter() - t0)
        finally:
            if undo is not None:
                tr.uninstall(undo)
    return times, value


def end_to_end(setup_times, op_seconds, ops_per_s, rss_mb) -> dict:
    values = {
        "setup_s": common.median(setup_times),
        "op_ms_p50": common.median(op_seconds) * 1e3,
        "ops_per_s": ops_per_s,
        "peak_rss_mb": rss_mb,
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}


def layer_metrics(op_rows: List[list], n_ops: int,
                  setup_rows: List[list], n_setups: int,
                  extra: Dict[str, float]) -> dict:
    """Per-layer metrics from traced spans: times are self times and
    counts are per operation (set-up layers: per set-up)."""
    ops = tr.layer_totals(op_rows)
    setup = tr.layer_totals(setup_rows)

    def self_s(name, totals=ops, n=n_ops):
        return totals.get(name, {}).get("self_s", 0.0) / max(n, 1)

    def calls(name):
        return ops.get(name, {}).get("calls", 0) / max(n_ops, 1)

    def count(name):
        return ops.get(name, {}).get("count", 0) / max(n_ops, 1)

    advances = calls("perturbation.advance")
    levels = calls("ssta.level")
    values = {
        "perturbation.advance_s": self_s("perturbation.advance"),
        "perturbation.advances": advances,
        "perturbation.nodes_per_advance": (
            tr.child_counts(op_rows, "ssta.level", "perturbation.advance")
            / max(n_ops, 1) / advances if advances else 0.0
        ),
        "perturbation.init_s": self_s("perturbation.init"),
        "perturbation.fronts": calls("perturbation.init"),
        "metrics.gap_s": self_s("metrics.gap"),
        "metrics.gap_calls": calls("metrics.gap"),
        "ssta.level_s": self_s("ssta.level"),
        "ssta.levels": levels,
        "ssta.nodes_per_level": (
            count("ssta.level") / levels if levels else 0.0
        ),
        "ssta.fanin_parts_s": self_s("ssta.fanin_parts"),
        "ssta.run_s": self_s("ssta.run"),
        "ops.convolve_many_s": self_s("ops.convolve_many"),
        "ops.convolve_pairs": count("ops.convolve_many"),
        "ops.stat_max_groups_s": self_s("ops.stat_max_groups"),
        "ops.max_groups": count("ops.stat_max_groups"),
        "delay_model.delay_pdf_s": self_s("delay_model.delay_pdf"),
        "delay_model.delay_pdf_calls": calls("delay_model.delay_pdf"),
        "cache.node_probe_s": (
            self_s("cache.node_key") + self_s("cache.node_probe")
        ),
        "cache.node_probes": calls("cache.node_probe"),
        "netlist.generate_s": self_s("netlist.generate", setup, n_setups),
        "graph.build_s": self_s("graph.build", setup, n_setups),
        "trace.coverage_pct": 100.0 * tr.root_coverage(op_rows, ("op",)),
    }
    values.update(extra)
    return {
        name: (float(values.get(name, 0.0)), unit)
        for name, (unit, _better) in PER_LAYER.items()
    }


def split_rows(rows: List[list]) -> Tuple[List[list], List[list]]:
    """Exported spans split into operation and set-up subtrees."""
    return (
        tr.subtree_filter(rows, lambda i, r: r[0] == "op"),
        tr.subtree_filter(rows, lambda i, r: r[0] == "setup"),
    )


def overhead_pct(m: Measured) -> float:
    return 100.0 * (common.median(m.traced) / common.median(m.plain) - 1.0)


# ----------------------------------------------------------------------
# size-c432: one pruned sizing run, cold cache, fixed iteration budget
# ----------------------------------------------------------------------

def size_c432(ctx: Context) -> Outcome:
    from repro.config import DEFAULT_CONFIG
    from repro.core.pruned_sizer import PrunedStatisticalSizer
    from repro.dist.cache import DEFAULT_CACHE_CAPACITY
    from repro.netlist import benchmarks

    ref = ctx.reference["size-c432"]

    def new_sizer(circuit):
        # A fresh cache per run: CLI users pay a cold cache every run.
        config = DEFAULT_CONFIG.with_updates(cache=DEFAULT_CACHE_CAPACITY)
        return PrunedStatisticalSizer(
            circuit, config=config, max_iterations=SIZE_ITERATIONS
        )

    def setup():
        circuit = benchmarks.generate_circuit(benchmarks.spec_for("c432"))
        new_sizer(circuit.copy())
        return circuit

    setup_times, circuit = timed_setups(
        ctx, setup, SETUP_REPEATS["size-c432"]
    )

    def op(sizer):
        result = sizer.run()
        got = common.trajectory(result)
        return common.trajectory_matches(got, ref), result

    m = measure(ctx, op, lambda: new_sizer(circuit.copy()))
    size_s = common.median(m.plain)
    report = {
        "size_s": f"{size_s:.4f} s (median of {len(m.plain)} runs of "
                  f"{SIZE_ITERATIONS} iterations)",
        "setup_s": f"{common.median(setup_times):.4f} s",
    }
    if not ctx.trace:
        metrics = end_to_end(setup_times, m.plain,
                             len(m.plain) / sum(m.plain),
                             common.self_peak_rss_mb())
        return Outcome(m.attempted, m.failed, metrics, report)

    rows = ctx.tracer.export()
    op_rows, setup_rows = split_rows(rows)
    results = [r for r in m.infos if r is not None]
    candidates = sum(s.stats.candidates for r in results for s in r.steps)
    pruned = sum(s.stats.pruned for r in results for s in r.steps)
    hits = sum(r.cache_hits for r in results)
    requests = hits + sum(
        s.stats.convolutions + s.stats.max_ops
        for r in results for s in r.steps
    )
    extra = {
        "pruned_sizer.pruned_fraction": pruned / candidates if candidates
        else 0.0,
        "pruned_sizer.candidates": candidates / max(len(results), 1),
        "cache.hit_rate": hits / requests if requests else 0.0,
        "cache.requests": requests / max(len(results), 1),
        "trace.overhead_pct": overhead_pct(m),
    }
    metrics = layer_metrics(op_rows, len(m.traced), setup_rows,
                            len(setup_times), extra)
    return Outcome(m.attempted, m.failed, metrics, report, {"bench": rows})


# ----------------------------------------------------------------------
# ssta-10k: full SSTA passes over c880 x27, fresh DelayModel per pass
# ----------------------------------------------------------------------

def ssta_spec(seed: int):
    from repro.netlist import benchmarks

    return dataclasses.replace(
        benchmarks.spec_for("c880").scaled(SSTA_SCALE), seed=seed
    )


def ssta_reference(circuit, graph) -> Dict[str, float]:
    """Sink percentiles by an independent path: the ``direct`` kernel
    and the paper-literal per-node walk instead of level batching."""
    from repro.config import DEFAULT_CONFIG
    from repro.timing.delay_model import DelayModel
    from repro.timing.ssta import run_ssta

    config = DEFAULT_CONFIG.with_updates(backend="direct", level_batch=False)
    model = DelayModel(circuit, config=config)
    return common.sink_percentiles(run_ssta(graph, model, config=config)
                                   .sink_pdf)


def ssta_10k(ctx: Context) -> Outcome:
    from repro.netlist import benchmarks
    from repro.timing import ssta as ssta_mod
    from repro.timing.delay_model import DelayModel
    from repro.timing.graph import TimingGraph

    spec = ssta_spec(ctx.seed)

    def setup():
        circuit = benchmarks.generate_circuit(spec)
        return circuit, TimingGraph(circuit)

    setup_times, (circuit, graph) = timed_setups(
        ctx, setup, SETUP_REPEATS["ssta-10k"]
    )
    ref = ctx.reference["ssta-10k"].get(str(ctx.seed))
    if ref is None:
        ref = ssta_reference(circuit, graph)

    def op(_arg):
        model = DelayModel(circuit)
        result = ssta_mod.run_ssta(graph, model)
        got = common.sink_percentiles(result.sink_pdf)
        return common.percentiles_match(got, ref), None

    m = measure(ctx, op)
    ssta_s = common.median(m.plain)
    report = {
        "ssta_s": f"{ssta_s:.4f} s (median of {len(m.plain)} passes; "
                  f"{circuit.n_gates} gates, depth {circuit.depth()})",
        "setup_s": f"{common.median(setup_times):.4f} s",
    }
    if not ctx.trace:
        metrics = end_to_end(setup_times, m.plain,
                             len(m.plain) / sum(m.plain),
                             common.self_peak_rss_mb())
        return Outcome(m.attempted, m.failed, metrics, report)
    rows = ctx.tracer.export()
    op_rows, setup_rows = split_rows(rows)
    metrics = layer_metrics(op_rows, len(m.traced), setup_rows,
                            len(setup_times),
                            {"trace.overhead_pct": overhead_pct(m)})
    return Outcome(m.attempted, m.failed, metrics, report, {"bench": rows})


# ----------------------------------------------------------------------
# service-mix: a live server, two closed-loop clients, ~9:1 mix
# ----------------------------------------------------------------------

_LISTENING = re.compile(r"listening on (http://\S+)")


class Server:
    """A ``repro-ssta serve --port 0`` subprocess started through
    ``serve.py`` (which attaches the tracer when ``traced``)."""

    _serial = 0

    def __init__(self, traced: bool) -> None:
        Server._serial += 1
        stem = f"serve-{os.getpid()}-{Server._serial}"
        common.OUT.mkdir(exist_ok=True)
        self.report_path = common.OUT / f"{stem}.json"
        self.log_path = common.OUT / f"{stem}.log"
        self.report_path.unlink(missing_ok=True)
        cmd = [
            sys.executable, str(common.HERE / "serve.py"),
            str(self.report_path), "1" if traced else "0",
            "--port", "0", "--flush-interval", "0",
        ]
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=common.ROOT, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        self.url = self._wait_listening(timeout_s=120.0)

    def _wait_listening(self, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_text())
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        log = self.log_path.read_text()
        self.stop()
        raise RuntimeError(f"server did not start:\n{log}")

    def stop(self) -> dict:
        """SIGTERM (drain + exit), then the launcher's exit report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log_path.unlink(missing_ok=True)
        if not self.report_path.exists():
            return {}
        with open(self.report_path) as fh:
            report = json.load(fh)
        self.report_path.unlink()
        return report


def _client(url: str):
    from repro.service import ServiceClient

    return ServiceClient(url, timeout_s=120.0, max_retries=3,
                         total_deadline_s=120.0)


def _warm(url: str) -> int:
    """Make c432 and c880 resident and warm the shared cache; returns
    the number of analysis requests sent."""
    client = _client(url)
    client.health()
    for name in ANALYZE_CIRCUITS:
        client.analyze(name)
    for scale in OPTIMIZE_SCALES:
        client.optimize("c432", iterations=OPTIMIZE_ITERATIONS, scale=scale)
    return len(ANALYZE_CIRCUITS) + len(OPTIMIZE_SCALES)


def _boot(traced: bool) -> Tuple[Server, int, float]:
    t0 = time.perf_counter()
    server = Server(traced)
    try:
        warmups = _warm(server.url)
    except BaseException:
        server.stop()
        raise
    return server, warmups, time.perf_counter() - t0


def service_references() -> dict:
    """Local answers every reply must equal bitwise."""
    from repro.config import DEFAULT_CONFIG
    from repro.core.pruned_sizer import PrunedStatisticalSizer
    from repro.dist.cache import DEFAULT_CACHE_CAPACITY
    from repro.netlist.benchmarks import load
    from repro.timing.delay_model import DelayModel
    from repro.timing.graph import TimingGraph
    from repro.timing.ssta import run_ssta

    refs: dict = {}
    for name in ANALYZE_CIRCUITS:
        circuit = load(name)
        refs[("analyze", name)] = run_ssta(
            TimingGraph(circuit), DelayModel(circuit)
        ).sink_pdf
    for scale in OPTIMIZE_SCALES:
        config = DEFAULT_CONFIG.with_updates(cache=DEFAULT_CACHE_CAPACITY)
        result = PrunedStatisticalSizer(
            load("c432", scale=scale), config=config,
            max_iterations=OPTIMIZE_ITERATIONS,
        ).run()
        refs[("optimize", scale)] = common.trajectory(result)
    return refs


#: One block of the request sequence: 9:1 /analyze : /optimize, every
#: circuit and scale equally often.  Blocks are shuffled, so a seed
#: changes the order of requests but never the mix.
REQUEST_BLOCK = (
    [("analyze", name) for name in ANALYZE_CIRCUITS] * 9
    + [("optimize", scale) for scale in OPTIMIZE_SCALES]
)


def request_stream(seed: int, client_id: int):
    """The seeded request sequence of one client."""
    rng = random.Random(f"service-mix:{seed}:{client_id}")
    while True:
        block = list(REQUEST_BLOCK)
        rng.shuffle(block)
        yield from block


def _drive(ctx: Context, url: str, refs: dict, traced: bool, *,
           seconds: Optional[float] = None,
           per_client: Optional[int] = None) -> Tuple[List[tuple], float]:
    """Closed-loop clients for ``seconds``, or for ``per_client``
    requests each; returns ``(kind, latency_s, ok, pruned,
    candidates)`` samples and the measured wall-clock."""
    from repro.errors import ReproError

    samples: List[tuple] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else float("inf")

    def worker(client_id: int) -> None:
        client = _client(url)
        stream = request_stream(ctx.seed, client_id)
        sent = 0
        while time.perf_counter() < deadline and sent != per_client:
            sent += 1
            kind, arg = next(stream)
            pruned = candidates = 0
            with ctx.tracer.span("op") if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    if kind == "analyze":
                        reply = client.analyze(arg)
                        ok = common.sinks_identical(
                            reply.sink, refs[("analyze", arg)]
                        )
                    else:
                        reply = client.optimize(
                            "c432", iterations=OPTIMIZE_ITERATIONS,
                            scale=arg,
                        )
                        ok = common.trajectory_matches(
                            common.trajectory(reply.result),
                            refs[("optimize", arg)],
                        )
                        steps = reply.result.steps
                        pruned = sum(s.stats.pruned for s in steps)
                        candidates = sum(s.stats.candidates for s in steps)
                except ReproError:
                    traceback.print_exc()
                    ok = False
                latency = time.perf_counter() - t0
            with lock:
                samples.append((kind, latency, ok, pruned, candidates))

    undo = tr.install(ctx.tracer) if traced else None
    try:
        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(SERVICE_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=(seconds or 0) + 300)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a service client did not finish")
    finally:
        if undo is not None:
            tr.uninstall(undo)
    return samples, time.perf_counter() - start


def _latencies(samples, kind) -> List[float]:
    return [sample[1] for sample in samples if sample[0] == kind]


def _failures(samples) -> int:
    return sum(not sample[2] for sample in samples)


def service_mix(ctx: Context) -> Outcome:
    refs = service_references()
    setup_times: List[float] = []
    server: Optional[Server] = None
    try:
        for _ in range(1 if ctx.trace else SETUP_REPEATS["service-mix"]):
            if server is not None:
                server.stop()
            server, warmups, elapsed = _boot(traced=False)
            setup_times.append(elapsed)
        seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
        before = _client(server.url).stats()
        samples, wall = _drive(ctx, server.url, refs, False, seconds=seconds)
        after = _client(server.url).stats()
    finally:
        exit_report = server.stop() if server is not None else {}

    analyze = _latencies(samples, "analyze")
    optimize = _latencies(samples, "optimize")
    attempted = len(samples)
    failed = _failures(samples)
    rps = attempted / wall
    analyze_p50 = common.median(analyze) * 1e3
    report = {
        "analyze_ms_p50": f"{analyze_p50:.3f} ms (n={len(analyze)})",
        "analyze_ms_p90": _pct_text(analyze, 0.9),
        "analyze_ms_tail": _pct_text(
            analyze, common.highest_percentile(len(analyze))
        ),
        "optimize_ms_p50": _pct_text(optimize, 0.5),
        "service_rps": f"{rps:.3f} 1/s ({attempted} requests, "
                       f"{SERVICE_CLIENTS} closed-loop clients)",
        "setup_s": f"{common.median(setup_times):.4f} s",
        "peak_rss_mb": f"{exit_report.get('maxrss_kb', 0) / 1024:.1f} MB "
                       "(server)",
    }
    if not ctx.trace:
        metrics = end_to_end(setup_times, analyze, rps,
                             exit_report.get("maxrss_kb", 0) / 1024.0)
        return Outcome(attempted, failed, metrics, report)

    # Traced part: a traced server and traced client codecs, for a
    # fixed request count (every request is ~2000 server spans).
    server, warmups, _elapsed = _boot(traced=True)
    try:
        traced_samples, _wall = _drive(ctx, server.url, refs, True,
                                       per_client=TRACED_PER_CLIENT)
    finally:
        traced_report = server.stop()
    attempted += len(traced_samples)
    failed += _failures(traced_samples)
    pruned = sum(s[3] for s in traced_samples)
    candidates = sum(s[4] for s in traced_samples)
    n_optimize = len(_latencies(traced_samples, "optimize"))

    # Server spans: drop the warm-up requests (the first roots).
    server_rows = traced_report.get("spans", [])
    roots = sorted(
        (row[1], i) for i, row in enumerate(server_rows) if row[3] < 0
    )
    skipped = {i for _start, i in roots[:warmups]}
    op_rows = tr.subtree_filter(server_rows, lambda i, r: i not in skipped)
    setup_rows = tr.subtree_filter(server_rows, lambda i, r: i in skipped)
    n_requests = len(roots) - warmups
    client_rows = ctx.tracer.export()
    client = tr.layer_totals(client_rows)
    decode_s = sum(
        client.get(n, {}).get("self_s", 0.0)
        for n in ("protocol.decode", "protocol.decode_json")
    )
    handler_p50 = after["requests"]["POST /analyze"]["p50_ms"]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    requests = after["cache"]["requests"] - before["cache"]["requests"]
    traced_analyze = _latencies(traced_samples, "analyze")
    extra = {
        "pruned_sizer.pruned_fraction": pruned / candidates if candidates
        else 0.0,
        "pruned_sizer.candidates": candidates / max(n_optimize, 1),
        "cache.hit_rate": hits / requests if requests else 0.0,
        "cache.requests": requests / max(len(samples), 1),
        "service.handler_ms_p50": handler_p50,
        "service.transport_ms_p50": analyze_p50 - handler_p50,
        "service.queue_wait_ms_p50": after["overload"]["queue_wait_p50_ms"],
        "service.queue_wait_ms_p99": after["overload"]["queue_wait_p99_ms"],
        "protocol.decode_s": decode_s / max(len(traced_samples), 1),
        "protocol.reply_bytes": (
            client.get("protocol.decode_json", {}).get("count", 0)
            / max(len(traced_samples), 1)
        ),
        "trace.overhead_pct": 100.0 * (
            common.median(traced_analyze) * 1e3 / analyze_p50 - 1.0
        ),
        "trace.coverage_pct": 100.0 * tr.root_coverage(
            op_rows, ("service.analyze", "service.optimize")
        ),
    }
    metrics = layer_metrics(op_rows, n_requests, setup_rows, 1, extra)
    return Outcome(attempted, failed, metrics, report,
                   {"server": server_rows, "client": client_rows})


def _pct_text(samples: List[float], p: Optional[float]) -> str:
    if p is None:
        return f"unreported (n={len(samples)})"
    try:
        value = common.percentile(samples, p) * 1e3
    except ValueError as exc:
        return f"unreported ({exc})"
    return f"p{100 * p:g} {value:.3f} ms (n={len(samples)})"


WORKLOADS = {
    "size-c432": size_c432,
    "ssta-10k": ssta_10k,
    "service-mix": service_mix,
}
