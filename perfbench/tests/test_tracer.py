import threading

import tracer as tr
from repro.dist.cache import ConvolutionCache
from repro.netlist.benchmarks import load
from repro.timing import ssta
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph


def row(name, start, end, parent=-1, count=0):
    return [name, start, end, parent, count]


def test_self_time_subtracts_child_coverage():
    rows = [
        row("a", 0, 100),
        row("b", 10, 30, 0),
        row("c", 20, 50, 0),    # overlaps b: the union counts once
        row("d", 90, 120, 0),   # runs past the parent: clipped
        row("e", 12, 18, 1),    # grandchild: only b's self time drops
    ]
    assert tr.self_times(rows) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_layer_totals_and_coverage():
    rows = [
        row("op", 0, 100),
        row("k", 0, 60, 0, count=3),
        row("k", 60, 80, 0, count=2),
        row("op", 200, 300),
    ]
    totals = tr.layer_totals(rows)
    assert totals["k"]["calls"] == 2
    assert totals["k"]["count"] == 5
    assert abs(totals["k"]["self_s"] - 80e-9) < 1e-18
    assert abs(totals["op"]["self_s"] - 120e-9) < 1e-18
    assert tr.root_coverage(rows, ["op"]) == 80 / 200


def test_subtree_filter_keeps_whole_trees():
    rows = [
        row("warm", 0, 10),
        row("x", 1, 2, 0),
        row("op", 20, 30),
        row("y", 21, 22, 2),
        row("z", 21, 22, 3),
    ]
    kept = tr.subtree_filter(rows, lambda i, r: r[0] == "op")
    assert [r[0] for r in kept] == ["op", "y", "z"]
    assert [r[3] for r in kept] == [-1, 0, 1]


def test_spans_nest_per_thread():
    t = tr.Tracer()

    def work():
        with t.span("outer"):
            with t.span("inner") as box:
                box[0] = 7

    threads = [threading.Thread(target=work) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive()
    rows = t.export()
    assert len(rows) == 8
    for r in rows:
        if r[0] == "inner":
            assert rows[r[3]][0] == "outer" and r[4] == 7
        else:
            assert r[3] == -1


def test_install_traces_call_sites_and_uninstall_restores():
    originals = (
        ssta.run_ssta, ssta.convolve_many,
        vars(ConvolutionCache)["node_key"], vars(DelayModel)["delay_pdf"],
    )
    circuit = load("c17")
    graph = TimingGraph(circuit)
    t = tr.Tracer()
    undo = tr.install(t)
    try:
        with t.span("op"):
            ssta.run_ssta(graph, DelayModel(circuit))
    finally:
        tr.uninstall(undo)
    assert originals == (
        ssta.run_ssta, ssta.convolve_many,
        vars(ConvolutionCache)["node_key"], vars(DelayModel)["delay_pdf"],
    )
    assert isinstance(vars(ConvolutionCache)["node_key"], staticmethod)
    rows = t.export()
    names = {r[0] for r in rows}
    assert {"op", "ssta.run", "ssta.level", "ops.convolve_many",
            "ops.stat_max_groups", "ssta.fanin_parts",
            "delay_model.delay_pdf"} <= names
    for r in rows:
        if r[0] == "ssta.level":
            assert rows[r[3]][0] == "ssta.run" and r[4] >= 1
        if r[0] == "ops.convolve_many":
            assert rows[r[3]][0] == "ssta.level"
    assert tr.root_coverage(rows, ["op"]) > 0.5
