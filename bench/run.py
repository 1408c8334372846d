"""The parent side of a run: spawn the children, check what they leave
behind, turn their records into metrics and print them."""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from . import harness, metrics
from .harness import Calibrator, OUT_DIR, REPO_ROOT, RUN_ID_ENV

#: Fresh interpreters per untraced run.  Each does one cold set-up and a
#: third of the sequence on its own sub-seed: per-process effects (heap
#: and page layout, which shift a whole process's timings by a few per
#: cent) and per-dataset effects average out inside one run.
CHILDREN = 3
CHILD_TIMEOUT_S = 150
#: Things checked after each child exits: processes, shared memory, temp files.
HYGIENE_CHECKS = 3


class ChildFailed(RuntimeError):
    pass


def _spawn(
    name: str, seed: int, samples: int, trace: int, run_id: str,
    calibrator: Calibrator, deadline_s: float = 60.0,
) -> Tuple[Dict[str, Any], List[str]]:
    """Run one child; returns its record (with the speed-corrected set-up
    time added) and the hygiene failures found after it exited."""
    base = os.path.join(OUT_DIR, f"tmp-{run_id}")
    tmp, work = os.path.join(base, "tmp"), os.path.join(base, "work")
    result_path = os.path.join(base, "result.json")
    for directory in (tmp, work):
        os.makedirs(directory, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, **{RUN_ID_ENV: run_id})
    shm_before = harness.shm_segments()
    cal_before = calibrator.measure()
    command = [
        sys.executable, "-m", "bench.child",
        "--workload", name, "--seed", str(seed), "--samples", str(samples),
        "--trace", str(trace), "--deadline-s", str(deadline_s),
        "--spawned-at", repr(time.monotonic()),
        "--workdir", work, "--result", result_path,
    ]
    try:
        # The child's own prints go to stderr: stdout ends with our result line.
        done = subprocess.run(
            command, cwd=REPO_ROOT, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S
        )
        code: Optional[int] = done.returncode
    except subprocess.TimeoutExpired:
        code = None
    leftovers = _hygiene(run_id, shm_before, (tmp, work))
    try:
        if code != 0:
            raise ChildFailed(
                f"{name} child " + ("timed out" if code is None else f"exited with {code}")
            )
        with open(result_path) as handle:
            record = json.load(handle)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    record["setup_s"] = harness.speed_corrected(
        record["setup_raw_s"], cal_before, record["setup_cal_s"]
    )
    return record, leftovers


def _hygiene(run_id: str, shm_before: set, directories: Tuple[str, ...]) -> List[str]:
    """After a child exits nothing of it may survive: no worker or agent
    process, no shared-memory segment, no file in its temp directories.
    Survivors are reported (they count as failures) and then removed."""
    failures = []
    survivors = harness.processes_carrying(run_id)
    waited = 0.0
    while survivors and waited < 2.0:
        time.sleep(0.1)
        waited += 0.1
        survivors = harness.processes_carrying(run_id)
    if survivors:
        failures.append(f"processes outlived the child: {survivors}")
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        # Reparented to init, so not ours to wait() on: poll until gone.
        limit = time.monotonic() + 5.0
        while harness.processes_carrying(run_id) and time.monotonic() < limit:
            time.sleep(0.05)
    leaked = harness.shm_segments() - shm_before
    if leaked:
        failures.append(f"/dev/shm segments left behind: {sorted(leaked)}")
        for segment in leaked:
            try:
                os.unlink(os.path.join("/dev/shm", segment))
            except OSError:
                pass
    for directory in directories:
        remains = os.listdir(directory) if os.path.isdir(directory) else []
        if remains:
            failures.append(f"{directory} not cleaned: {sorted(remains)[:5]}")
    return failures


def run_workload(name: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """One full run of one workload.  Returns the complete result record;
    ``result["driver"]`` is the object the driver reads."""
    from .workloads import workload_class

    run_id = f"{os.getpid()}-{time.time_ns()}"
    calibrator = Calibrator()
    total = harness.samples_for(workload_class(name).samples_per_window, seconds)
    # A traced run is one child: its spans go to one file.
    children = 1 if trace else CHILDREN
    shares = [total // children + (k < total % children) for k in range(children)]
    # A child on a slow box stops starting triples a fifth past its share
    # of the window, so the run keeps to the driver's time cap.
    deadline_s = 1.2 * seconds / children
    records: List[Dict[str, Any]] = []
    failures: List[str] = []
    for k, share in enumerate(shares):
        record, leftovers = _spawn(
            name, seed * CHILDREN + k, share, trace, run_id, calibrator, deadline_s
        )
        records.append(record)
        failures.extend(leftovers)
        failures.extend(record["failures"])
    setups = [record["setup_s"] for record in records]
    attempted = sum(r["attempted"] for r in records) + children * HYGIENE_CHECKS
    complete = all(
        len(r["samples"]) >= min(share, harness.MIN_SAMPLES)
        for r, share in zip(records, shares)
    )
    if complete:
        made, messages = workload_class(name).check_run([r["notes"] for r in records])
        attempted += made
        failures.extend(f"run check: {message}" for message in messages)

    # One pooled record: every child's samples, the mean of their quality,
    # the median of their peak memory.
    record = dict(records[0])
    record["samples"] = [
        dict(sample, child=k) for k, r in enumerate(records) for sample in r["samples"]
    ]
    if complete:
        record["quality_pct"] = statistics.mean(r["quality_pct"] for r in records)
        record["peak_rss_kb"] = statistics.median(r["peak_rss_kb"] for r in records)

    specs = metrics.PER_LAYER if trace else [m[:3] for m in metrics.END_TO_END]
    values: Dict[str, Optional[float]] = {}
    if complete:
        values = metrics.per_layer(record) if trace else metrics.end_to_end(record, setups)
    result = {
        "workload": name,
        "trace": trace,
        "provenance": dict(
            harness.provenance(seed),
            child_seeds=[seed * CHILDREN + k for k in range(children)],
            samples={variant: len(record["samples"]) for variant in harness.VARIANTS},
            calib_observed_s=metrics.harness_layers(record)["harness.calib_p50_s"]
            if complete else None,
            seconds=seconds,
        ),
        "setups_s": setups,
        "failures": failures,
        "null_reasons": record.get("null_reasons", {}),
        "missing_entry_points": record.get("missing_entry_points", []),
        "trace_file": record.get("trace_file"),
        "notes": [r.get("notes", {}) for r in records],
        "samples": record["samples"],
        "metrics": {
            metric: {"value": values.get(metric), "unit": unit}
            for metric, unit, _ in specs
        },
    }
    result["driver"] = {
        "correct": complete and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result["metrics"],
    }
    harness.write_json(
        os.path.join(OUT_DIR, f"{name}.{'trace' if trace else 'result'}.json"), result
    )
    return result


def print_result(result: Dict[str, Any]) -> None:
    provenance = result["provenance"]
    print(f"# {result['workload']}  trace={result['trace']}  " + "  ".join(
        f"{key}={provenance[key]}" for key in
        ("commit", "utc", "host_cores", "usable_cpus", "python", "numpy", "blas", "seed",
         "child_seeds")
    ))
    print(f"# thread pins {provenance['thread_pins']}  calib_ref_s={provenance['calib_ref_s']}"
          f"  calib_observed_s={provenance['calib_observed_s']}  samples={provenance['samples']}"
          f"  setups_s={[round(s, 4) for s in result['setups_s']]}")
    samples = provenance["samples"]["op"]
    for name, entry in result["metrics"].items():
        value = entry["value"]
        if value is None:
            shown = f"null ({result['null_reasons'].get(name, 'no value')})"
        else:
            shown = f"{value:.6g}"
        count = len(result["setups_s"]) if name == "setup_s" else samples
        print(f"{name:40s} {shown:>14s} {entry['unit']:6s} n={count}")
    for entry in result["missing_entry_points"]:
        print(f"# span entry point missing: {entry}")
    if result["trace_file"]:
        print(f"# spans written to {result['trace_file']}")
    for failure in result["failures"]:
        print(f"# FAILED: {failure}")
    print(json.dumps(result["driver"]))
