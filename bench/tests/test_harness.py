"""Harness self-tests.  Run with ``python3 -m pytest bench/tests`` from the
repository root; outside tier-1's ``testpaths`` on purpose (the workload
tests start real children and take about a minute)."""

import json
import os
import re

import numpy as np
import pytest

from bench import harness, metrics
from bench import run as runs
from bench.trace import self_times
from bench.workloads import WORKLOADS, blob_arrays

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
FEW_SAMPLES = 3  # three triples per workload: enough to see every metric


# ----------------------------------------------------------------------
# Arithmetic on synthetic inputs
# ----------------------------------------------------------------------
def test_speed_correction_rescales_to_the_reference_box():
    # A box running the kernel in 40 ms is half as fast as the 20 ms reference.
    assert harness.speed_corrected(2.0, 0.04, 0.04, ref=0.02) == pytest.approx(1.0)
    # Before/after calibrations are averaged.
    assert harness.speed_corrected(3.0, 0.02, 0.04, ref=0.02) == pytest.approx(2.0)


def _sample(index, op, alt, ref, cal, traced=False):
    return {"i": index, "raw": {"op": op, "alt": alt, "ref": ref}, "cal": list(cal),
            "traced": traced, "io_bytes": 1000 + index, "work_units": 7}


def test_end_to_end_uses_corrected_medians_and_paired_raw_ratio():
    ref = harness.CALIB_REF_S
    # The machine slows to half speed for the middle sample: raw times
    # double, corrected times and the paired ratio do not move.
    samples = [
        _sample(0, 1.0, 0.5, 2.0, [ref] * 4),
        _sample(1, 2.0, 1.0, 4.0, [2 * ref] * 4),
        _sample(2, 1.0, 0.5, 2.0, [ref] * 4),
    ]
    record = {"samples": samples, "quality_pct": 90.0, "peak_rss_kb": 2048}
    result = metrics.end_to_end(record, setups=[3.0, 1.0, 2.0])
    assert result["op_p50_s"] == pytest.approx(1.0)
    assert result["alt_p50_s"] == pytest.approx(0.5)
    assert result["ref_p50_s"] == pytest.approx(2.0)
    assert result["op_ref_ratio"] == pytest.approx(0.5)
    assert result["setup_s"] == 2.0
    assert result["io_bytes"] == 1001 and result["work_units"] == 7
    assert result["peak_rss_mb"] == 2.0
    assert set(result) == {name for name, *_ in metrics.END_TO_END}


def test_variants_on_workers_are_corrected_by_the_two_core_reading():
    ref = harness.CALIB_REF_S
    # The host grants one core's worth: solo readings are normal, the
    # two-core reading doubles, and so does the pool variant's raw time.
    sample = dict(_sample(0, 2.0, 2.0, 1.0, [ref] * 4), cal2=[2 * ref, 2 * ref, 2 * ref, None])
    record = {"samples": [sample], "quality_pct": 1.0, "peak_rss_kb": 1,
              "parallel_variants": ["op", "alt"]}
    result = metrics.end_to_end(record, [1.0])
    assert result["op_p50_s"] == pytest.approx(1.0)
    assert result["alt_p50_s"] == pytest.approx(1.0)
    assert result["ref_p50_s"] == pytest.approx(1.0)
    # op uses workers and ref does not: the ratio is taken after correction.
    assert result["op_ref_ratio"] == pytest.approx(1.0)
    # Same way of running on both sides: the raw paired ratio.
    record["parallel_variants"] = ["alt"]
    assert metrics.end_to_end(record, [1.0])["op_ref_ratio"] == pytest.approx(2.0)


def test_traced_samples_never_feed_end_to_end_numbers():
    ref = harness.CALIB_REF_S
    samples = [
        _sample(0, 1.0, 1.0, 1.0, [ref] * 4),
        _sample(1, 9.0, 9.0, 9.0, [ref] * 4, traced=True),
        _sample(2, 1.0, 1.0, 1.0, [ref] * 4),
    ]
    record = {"samples": samples, "quality_pct": 1.0, "peak_rss_kb": 1}
    assert metrics.end_to_end(record, [1.0])["op_p50_s"] == pytest.approx(1.0)
    assert metrics.harness_layers(record)["harness.trace_overhead_pct"] == pytest.approx(800.0)


def test_self_time_subtracts_children_only_from_their_parent():
    #   0: root    [0, 10]
    #   1:   a     [1, 6]   child of 0
    #   2:     b   [2, 4]   child of 1
    #   3:   c     [7, 9]   child of 0
    spans = [
        ("root", 0.0, 10.0, None, 0, "op"),
        ("a", 1.0, 6.0, 0, 0, "op"),
        ("b", 2.0, 4.0, 1, 0, "op"),
        ("c", 7.0, 9.0, 0, 0, "op"),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]


def test_span_metrics_sum_per_sample_then_take_the_median():
    spans = [
        ("variant.op", 0.0, 10.0, None, 1, "op"),
        ("training.train", 1.0, 5.0, 0, 1, "op"),
        ("training.evaluate", 2.0, 3.0, 1, 1, "op"),
        ("variant.op", 20.0, 30.0, None, 3, "op"),
        ("training.train", 21.0, 23.0, 3, 3, "op"),
        ("training.train", 24.0, 26.0, 3, 3, "op"),
    ]
    result = metrics.span_metrics(spans)
    # sample 1: train self 3 s (4 - 1 of evaluate), 1 call; sample 3: 4 s, 2 calls
    assert result["training.train_self_s"] == pytest.approx(3.5)
    assert result["training.train_calls"] == pytest.approx(1.5)
    assert result["training.evaluate_s"] == pytest.approx(0.5)
    # op time no span explains: 6/10 of sample 1, 6/10 of sample 3
    assert result["harness.unattributed_pct"] == pytest.approx(60.0)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert harness.quartile_spread(values) == pytest.approx((q3 - q1) / 14.5)


# ----------------------------------------------------------------------
# Names, units and the driver's file
# ----------------------------------------------------------------------
def test_every_metric_name_and_unit_is_well_formed_and_unique():
    names = [name for name, *_ in metrics.END_TO_END] + [name for name, *_ in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert len(metrics.PER_LAYER) == 56
    for name in names:
        assert NAME.match(name), name
    for _, unit, better, *_ in metrics.END_TO_END + metrics.PER_LAYER:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", unit), unit
        assert better in ("lower", "higher")


def test_benchmark_json_repeats_the_definitions():
    with open(os.path.join(harness.REPO_ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------
def test_a_seed_fixes_the_generated_inputs_and_another_changes_them():
    first = blob_arrays(5, 64, 8, 3.0)
    again = blob_arrays(5, 64, 8, 3.0)
    other = blob_arrays(6, 64, 8, 3.0)
    assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])
    assert not np.array_equal(first[0], other[0])


# ----------------------------------------------------------------------
# Run-level checks
# ----------------------------------------------------------------------
def test_headline_run_check_pools_the_models_of_every_child():
    from bench.workloads.unlearn_headline import UnlearnHeadline

    # One child's models sit at chance and one of them kept the backdoor:
    # the run passes on its best model and its median model.
    healthy = [
        {"accuracies": [11.0, 14.0], "backdoors": [0.0, 60.0]},
        {"accuracies": [45.0], "backdoors": [3.0]},
    ]
    assert UnlearnHeadline.check_run(healthy) == (2, [])
    made, failures = UnlearnHeadline.check_run(
        [{"accuracies": [10.0, 12.0], "backdoors": [40.0, 80.0]}]
    )
    assert made == 2 and len(failures) == 2


# ----------------------------------------------------------------------
# Hygiene
# ----------------------------------------------------------------------
def test_leftover_process_and_file_are_reported_and_removed(tmp_path):
    import subprocess
    import sys

    run_id = f"leak-test-{os.getpid()}"
    leaked = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"],
        env=dict(os.environ, **{harness.RUN_ID_ENV: run_id}),
    )
    try:
        (tmp_path / "stray.tmp").write_text("x")
        failures = runs._hygiene(run_id, harness.shm_segments(), (str(tmp_path),))
        assert len(failures) == 2
        assert "outlived" in failures[0] and str(leaked.pid) in failures[0]
        assert "not cleaned" in failures[1]
        assert leaked.wait(timeout=5) != 0  # killed by the hygiene pass
    finally:
        leaked.kill()
    assert runs._hygiene(run_id, harness.shm_segments(), ()) == []


# ----------------------------------------------------------------------
# Real children (slow)
# ----------------------------------------------------------------------
def _child(name, seed, trace=0):
    record, leftovers = runs._spawn(
        name, seed, FEW_SAMPLES, trace, f"test-{os.getpid()}-{name}-{seed}-{trace}",
        harness.Calibrator(),
    )
    assert leftovers == []
    assert record["failures"] == []
    return record


@pytest.fixture(scope="module")
def records():
    return {name: _child(name, seed=0) for name in WORKLOADS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_emits_every_end_to_end_metric(records, name):
    values = metrics.end_to_end(records[name], [records[name]["setup_s"]])
    assert set(values) == {metric for metric, *_ in metrics.END_TO_END}
    for metric, value in values.items():
        assert isinstance(value, float) and value > 0, (metric, value)


def test_same_seed_repeats_counts_exactly_and_bytes_within_a_percent(records):
    name = "service_deletions"
    first = metrics.end_to_end(records[name], [1.0])
    second = metrics.end_to_end(_child(name, seed=0), [1.0])
    assert first["work_units"] == second["work_units"]
    assert first["quality_pct"] == second["quality_pct"]
    # Journal records carry wall-clock stamps, so sizes move by a few bytes.
    assert first["io_bytes"] == pytest.approx(second["io_bytes"], rel=0.01)


def test_traced_run_reports_all_layers_and_writes_spans():
    record = _child("unlearn_headline", seed=0, trace=1)
    values = metrics.per_layer(record)
    assert list(values) == [name for name, *_ in metrics.PER_LAYER]
    assert record["missing_entry_points"] == []
    for name, value in values.items():
        assert value is not None or name in record["null_reasons"], name
    # The layers this workload lives in were actually seen.
    for name in ("unlearning.goldfish_loss_s", "unlearning.unlearn_self_s",
                 "training.train_self_s", "federated.aggregate_s", "nn.forward_s"):
        assert values[name] > 0, name
    path = os.path.join(harness.REPO_ROOT, record["trace_file"])
    with open(path) as handle:
        spans = [json.loads(line) for line in handle]
    assert len(spans) == record["spans"] > 0
    assert {"id", "name", "start", "end", "parent", "sample", "variant"} == set(spans[0])
