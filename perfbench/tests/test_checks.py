import copy
import json

import numpy as np
import pytest

import common
import workloads
from repro.netlist.benchmarks import load
from repro.timing.delay_model import DelayModel
from repro.timing.graph import TimingGraph
from repro.timing.ssta import run_ssta


def test_percentile_needs_ten_samples_beyond_it():
    assert common.samples_beyond(100, 0.9) == 10
    assert common.percentile(list(range(100)), 0.9) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        common.percentile(list(range(99)), 0.9)
    with pytest.raises(ValueError):
        common.percentile(list(range(19)), 0.5)
    assert common.percentile(list(range(20)), 0.5) == 9.5


def test_highest_supported_percentile():
    assert common.highest_percentile(10_000) == 0.999
    assert common.highest_percentile(1000) == 0.99
    assert common.highest_percentile(999) == 0.95
    assert common.highest_percentile(100) == 0.9
    assert common.highest_percentile(20) == 0.5
    assert common.highest_percentile(19) is None


def test_trajectory_check_rejects_any_change():
    ref = common.load_reference()["size-c432"]
    got = {k: copy.copy(ref[k])
           for k in ("gates", "objective_after", "final_p99")}
    assert common.trajectory_matches(got, ref)
    swapped = dict(got, gates=got["gates"][::-1])
    assert not common.trajectory_matches(swapped, ref)
    nudged = dict(got, final_p99=np.nextafter(got["final_p99"], np.inf))
    assert not common.trajectory_matches(nudged, ref)


def test_percentile_check_uses_the_drift_class():
    ref = {"0.5": 100.0, "0.99": 200.0}
    assert common.percentiles_match({"0.5": 100.0 + 5e-7, "0.99": 200.0}, ref)
    assert not common.percentiles_match(
        {"0.5": 100.0 + 2e-6, "0.99": 200.0}, ref
    )
    assert not common.percentiles_match({"0.5": 100.0}, ref)


def test_sink_check_is_bitwise():
    circuit = load("c17")
    sink = run_ssta(TimingGraph(circuit), DelayModel(circuit)).sink_pdf
    masses = sink.masses.copy()
    twin = object.__new__(type(sink))
    twin.__setstate__((sink.dt, sink.offset, masses.copy()))
    assert common.sinks_identical(sink, twin)
    masses[0] = np.nextafter(masses[0], 1.0)
    twin.__setstate__((sink.dt, sink.offset, masses))
    assert not common.sinks_identical(sink, twin)


def test_ssta_workload_fails_on_a_corrupted_reference():
    reference = common.load_reference()
    bad = copy.deepcopy(reference)
    bad["ssta-10k"]["0"]["0.99"] += 1e-3
    ctx = workloads.Context(seed=0, seconds=0.1, trace=False, reference=bad)
    outcome = workloads.ssta_10k(ctx)
    assert outcome.attempted >= 1
    assert outcome.failed == outcome.attempted


def test_benchmark_json_lists_the_reported_metrics():
    with open(common.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(
        workloads.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == workloads.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert common.load_reference()["size-c432"]["iterations"] == \
        workloads.SIZE_ITERATIONS
