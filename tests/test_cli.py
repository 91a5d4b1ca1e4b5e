"""Tests for the repro-ssta command-line interface."""

import threading

import pytest

from repro.cli import build_parser, main
from repro.netlist.bench import C17_BENCH


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_unknown_circuit_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "c9999"])


class TestCommands:
    def test_analyze_c17(self, capsys):
        assert main(["analyze", "c17", "--mc-samples", "300"]) == 0
        out = capsys.readouterr().out
        assert "STA delay" in out
        assert "SSTA 99% bound" in out

    def test_analyze_scaled(self, capsys):
        assert main(["analyze", "c432", "--scale", "0.3",
                     "--mc-samples", "200"]) == 0
        out = capsys.readouterr().out
        assert "gates" in out

    def test_bench_file(self, tmp_path, capsys):
        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        assert main(["bench", str(path), "--mc-samples", "200"]) == 0
        assert "Timing summary" in capsys.readouterr().out

    def test_optimize_statistical(self, capsys):
        assert main(["optimize", "c17", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "pruned-statistical" in out
        assert "improvement" in out
        assert "cache hit rate" in out  # the cache is on by default

    def test_optimize_cache_disabled(self, capsys):
        assert main(["optimize", "c17", "-n", "3", "--cache", "0"]) == 0
        out = capsys.readouterr().out
        assert "pruned-statistical" in out
        assert "cache hit rate" not in out

    def test_optimize_cached_and_uncached_report_same_objective(self, capsys):
        assert main(["optimize", "c17", "-n", "3", "--cache", "0"]) == 0
        plain = capsys.readouterr().out
        assert main(["optimize", "c17", "-n", "3"]) == 0
        cached = capsys.readouterr().out
        pick = lambda text: [
            line for line in text.splitlines() if "final" in line
        ]
        assert pick(plain) == pick(cached)

    def test_optimize_deterministic(self, capsys):
        assert main(["optimize", "c17", "-n", "3", "--deterministic"]) == 0
        assert "deterministic" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", [["--jobs", "2"], ["--transport", "shm"],
                 ["--sparse-eps", "1e-16"]],
    )
    def test_removed_execution_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "c17", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_optimize_cache_file_conflicts_with_cache_zero(self, tmp_path):
        """--cache 0 promises an uncached run; combining it with a
        snapshot file must fail loudly, not silently re-enable."""
        with pytest.raises(SystemExit, match="cache"):
            main(["optimize", "c17", "-n", "1", "--cache", "0",
                  "--cache-file", str(tmp_path / "x.cache")])
        assert not (tmp_path / "x.cache").exists()

    def test_optimize_cache_file_conflicts_with_deterministic(self, tmp_path):
        """The deterministic baseline has nothing to snapshot; the
        knob must fail loudly rather than silently no-op."""
        with pytest.raises(SystemExit, match="deterministic"):
            main(["optimize", "c17", "-n", "1", "--deterministic",
                  "--cache-file", str(tmp_path / "x.cache")])
        assert not (tmp_path / "x.cache").exists()

    def test_optimize_cache_file_warm_start(self, tmp_path, capsys):
        """Second run against the same snapshot resolves its kernel
        work from the loaded entries and reports the same objective."""
        snap = tmp_path / "c17.cache"
        assert main(["optimize", "c17", "-n", "2",
                     "--cache-file", str(snap)]) == 0
        first = capsys.readouterr().out
        assert snap.exists()
        assert "cache entries saved" in first
        assert "cache entries loaded" not in first

        assert main(["optimize", "c17", "-n", "2",
                     "--cache-file", str(snap)]) == 0
        second = capsys.readouterr().out
        assert "cache entries loaded" in second

        def grab(text, label):
            return [ln for ln in text.splitlines() if label in ln]

        assert grab(first, "final") == grab(second, "final")

        def hit_rate(text):
            (line,) = grab(text, "cache hit rate")
            return float(line.split("|")[-1])

        assert hit_rate(second) > hit_rate(first)

    def test_optimize_cache_file_identical_rerun_hits_everything(
        self, tmp_path, capsys
    ):
        """An identical re-run serves *every* kernel request from the
        snapshot: hit rate exactly 1.000."""
        snap = tmp_path / "c17.cache"
        assert main(["optimize", "c17", "-n", "2",
                     "--cache-file", str(snap)]) == 0
        capsys.readouterr()

        def row(text, label):
            (line,) = [ln for ln in text.splitlines() if label in ln]
            return line.split("|")[-1].strip()

        assert main(["optimize", "c17", "-n", "2",
                     "--cache-file", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "cache entries loaded" in out
        assert row(out, "cache hit rate") == "1.000"

    def test_optimize_cache_file_accumulates_entries(self, tmp_path, capsys):
        """The snapshot is re-saved after every run: the second run's
        saved entry count can only grow (append-on-exit semantics)."""
        snap = tmp_path / "c17.cache"

        def saved(text):
            (line,) = [
                ln for ln in text.splitlines()
                if "cache entries saved" in ln
            ]
            return int(line.split("|")[-1])

        assert main(["optimize", "c17", "-n", "2",
                     "--cache-file", str(snap)]) == 0
        first = saved(capsys.readouterr().out)
        assert first > 0

        assert main(["optimize", "c17", "-n", "4",
                     "--cache-file", str(snap)]) == 0
        second_out = capsys.readouterr().out
        assert "cache entries saved" in second_out  # re-saved, not just loaded
        assert saved(second_out) >= first

    def test_optimize_cache_file_saved_even_when_run_raises(
        self, tmp_path, monkeypatch, capsys
    ):
        """A crashed run must still snapshot its warm state."""
        import repro.cli as cli_mod

        class ExplodingSizer(cli_mod.PrunedStatisticalSizer):
            def run(self):
                # Do real kernel work first so the cache has entries.
                super().run()
                raise RuntimeError("boom after real work")

        monkeypatch.setattr(
            cli_mod, "PrunedStatisticalSizer", ExplodingSizer
        )
        snap = tmp_path / "crash.cache"
        with pytest.raises(RuntimeError, match="boom"):
            main(["optimize", "c17", "-n", "2",
                  "--cache-file", str(snap)])
        assert snap.exists()

        from repro.dist.cache import ConvolutionCache

        assert len(ConvolutionCache.load(snap)) > 0

    def test_figure2_runs(self, capsys):
        assert main(["figure2", "c432", "--iterations", "2"]) == 0
        assert "Figure 2" in capsys.readouterr().out


class TestYieldAndExport:
    def test_yield_command(self, capsys):
        assert main(["yield", "c17", "--target", "280"]) == 0
        out = capsys.readouterr().out
        assert "Timing yield" in out
        assert "yield curve" in out
        assert "yield at 280" in out

    def test_yield_without_target(self, capsys):
        assert main(["yield", "c17"]) == 0
        assert "delay at 99% yield" in capsys.readouterr().out

    def test_export_to_stdout(self, capsys):
        assert main(["export", "c17"]) == 0
        out = capsys.readouterr().out
        assert "INPUT(1)" in out and "= NAND(" in out

    def test_export_to_file_roundtrips(self, tmp_path, capsys):
        path = tmp_path / "exported.bench"
        assert main(["export", "c432", "-o", str(path)]) == 0
        assert main(["bench", str(path), "--mc-samples", "200"]) == 0
        out = capsys.readouterr().out
        assert "Timing summary" in out

    def test_analyze_includes_corners(self, capsys):
        assert main(["analyze", "c17", "--mc-samples", "200"]) == 0
        out = capsys.readouterr().out
        assert "corner best/typ/worst" in out
        assert "pessimism" in out


@pytest.fixture
def service_url():
    """An in-process analysis server for exercising the client verbs
    (the serve verb's own lifecycle is covered in tests/service/)."""
    from repro.config import DEFAULT_CONFIG
    from repro.service import ServiceState, start_server

    # Default grid so service-side numbers are comparable with the
    # local `analyze` output (c17 keeps this fast).
    state = ServiceState(config=DEFAULT_CONFIG)
    server = start_server(state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.url
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestClientCommands:
    def test_client_analyze(self, service_url, capsys):
        assert main(["client", "--url", service_url,
                     "analyze", "c17"]) == 0
        out = capsys.readouterr().out
        assert "Timing summary (service)" in out
        assert "SSTA 99% bound" in out
        assert "server cache hit rate" in out

    def test_client_analyze_matches_local_numbers(self, service_url,
                                                  capsys):
        """The service and the local path print byte-identical SSTA
        statistics (shared rows of the two summary tables)."""
        assert main(["client", "--url", service_url,
                     "analyze", "c17"]) == 0
        remote = capsys.readouterr().out
        assert main(["analyze", "c17", "--mc-samples", "200"]) == 0
        local = capsys.readouterr().out

        def rows(text, labels):
            picked = {}
            for line in text.splitlines():
                for label in labels:
                    if label in line:
                        picked[label] = line.split("|")[-1].strip()
            return picked

        labels = ["STA delay", "SSTA mean", "SSTA sigma",
                  "SSTA 99% bound"]
        assert rows(remote, labels) == rows(local, labels)

    def test_client_optimize(self, service_url, capsys):
        assert main(["client", "--url", service_url, "optimize",
                     "c17", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "sizing (service)" in out
        assert "final 99-percentile delay" in out

    def test_client_yield(self, service_url, capsys):
        assert main(["client", "--url", service_url, "yield",
                     "c17", "--target", "290"]) == 0
        out = capsys.readouterr().out
        assert "Timing yield (service)" in out
        assert "yield curve" in out

    def test_client_stats(self, service_url, capsys):
        assert main(["client", "--url", service_url,
                     "analyze", "c17"]) == 0
        capsys.readouterr()
        assert main(["client", "--url", service_url, "stats"]) == 0
        out = capsys.readouterr().out
        assert "Service statistics" in out
        assert "cache hit rate" in out
        assert "request latency" in out

    def test_client_unreachable_server(self):
        # A typed library error leaves main() as a one-line SystemExit
        # naming the error, never as a traceback.
        with pytest.raises(SystemExit, match=r"Service\w*Error: cannot reach"):
            main(["client", "--url", "http://127.0.0.1:1",
                  "stats"])

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8731
        assert args.cache_file is None
        assert args.func.__name__ == "cmd_serve"


class TestStaleSnapshot:
    """A snapshot written in an older format is a typed error: the CLI
    reports it on one line naming the file and the format, and exits
    non-zero without a traceback."""

    @staticmethod
    def _format1_snapshot(path):
        import pickle

        path.write_bytes(pickle.dumps(
            {"format": 1, "capacity": 8, "entries": []}
        ))
        return path

    def test_optimize_rejects_format1_snapshot(self, tmp_path):
        snap = self._format1_snapshot(tmp_path / "old.cache")
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "c17", "-n", "1", "--cache-file", str(snap)])
        message = str(exc.value.code)
        assert "DistributionError" in message
        assert str(snap) in message
        assert "format 1" in message
        assert "\n" not in message

    def test_serve_process_rejects_format1_snapshot(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        snap = self._format1_snapshot(tmp_path / "old.cache")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-file", str(snap)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stdout + proc.stderr
        assert str(snap) in proc.stderr
        assert "format 1" in proc.stderr
        assert "listening" not in proc.stdout

    def test_multi_worker_serve_rejects_format1_snapshot(self, tmp_path):
        # The front checks the snapshots before spawning any worker, so
        # a stale file stops it with the same one line instead of a
        # crash-and-respawn loop in every worker.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        snap = self._format1_snapshot(tmp_path / "old.cache")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "2", "--cache-file", str(snap)],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stdout + proc.stderr
        assert str(snap) in proc.stderr
        assert "format 1" in proc.stderr
        assert "listening" not in proc.stdout
        assert not (tmp_path / "old.cache.stats.json").exists()
