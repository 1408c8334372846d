"""``python3 -m bench repeat``: does the benchmark agree with itself?

Runs the suite as alternating sets on one commit (set A run 1, set B run
1, set A run 2, ...), each run index with its own seed, and compares the
sets the way a later change will be compared with its parent: per
(workload, metric) the two medians may differ by no more than the
metric's bound, and each set's quartile spread should stay within it.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Sequence

from . import harness, metrics
from . import run as runs

SUMMARY_PATH = os.path.join(harness.BENCH_DIR, "repeatability.json")


def _worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def repeat_suite(workloads: Sequence[str], sets: int, runs_per_set: int,
                 base_seed: int, seconds: float) -> int:
    values: Dict[str, Dict[str, List[List[float]]]] = {
        name: {metric: [[] for _ in range(sets)] for metric, *_ in metrics.END_TO_END}
        for name in workloads
    }
    raw_op: Dict[str, List[float]] = {name: [] for name in workloads}
    failed_runs = 0
    for run_index in range(runs_per_set):
        for set_index in range(sets):
            for name in workloads:
                result = runs.run_workload(name, base_seed + run_index, seconds, 0)
                if not result["driver"]["correct"]:
                    failed_runs += 1
                    print(f"# FAILED {name} set {set_index} run {run_index}: {result['failures']}")
                for metric, entry in result["metrics"].items():
                    values[name][metric][set_index].append(entry["value"])
                if result["samples"]:
                    raw_op[name].append(
                        statistics.median(s["raw"]["op"] for s in result["samples"])
                    )
                print(f"# done {name} set {set_index} run {run_index}", flush=True)

    breaches = 0
    rows = []
    print(f"{'workload':18s} {'metric':13s} " + " ".join(
        f"{'set' + str(i) + ' median':>14s} {'spread':>7s}" for i in range(sets)
    ) + f" {'worse by':>9s} {'bound':>6s}")
    for name in workloads:
        for metric, unit, better, bound in metrics.END_TO_END:
            medians = [statistics.median(series) for series in values[name][metric]]
            spreads = [harness.quartile_spread(series) for series in values[name][metric]]
            worst = max(
                abs(_worse_by(medians[0], later, better)) for later in medians[1:]
            ) if sets > 1 else 0.0
            # setup_s is judged on its medians only, as the driver does.
            wide = metric != "setup_s" and max(spreads) > bound
            breach = worst > bound or wide
            breaches += breach
            rows.append({
                "workload": name, "metric": metric, "unit": unit, "bound": bound,
                "values": values[name][metric],
                "medians": medians, "spreads": spreads, "between_sets": worst,
                "breach": bool(breach),
            })
            print(f"{name:18s} {metric:13s} " + " ".join(
                f"{median:14.6g} {spread:7.2%}" for median, spread in zip(medians, spreads)
            ) + f" {worst:9.2%} {bound:6.2%}" + ("  BREACH" if breach else ""))
    # What the speed correction bought: spread of op's median over every
    # run made, corrected against raw.
    correction = {}
    for name in workloads:
        corrected = [v for series in values[name]["op_p50_s"] for v in series]
        correction[name] = {
            "op_p50_s_spread": harness.quartile_spread(corrected),
            "raw_op_p50_s_spread": harness.quartile_spread(raw_op[name]),
        }
        print(f"# {name}: op median spread over all runs {correction[name]['op_p50_s_spread']:.2%} "
              f"corrected, {correction[name]['raw_op_p50_s_spread']:.2%} raw")
    summary = {
        "provenance": harness.provenance(),
        "sets": sets, "runs_per_set": runs_per_set, "seconds": seconds,
        "seeds": [base_seed + index for index in range(runs_per_set)],
        "failed_runs": failed_runs, "breaches": int(breaches),
        "correction": correction, "rows": rows,
    }
    harness.write_json(SUMMARY_PATH, summary)
    print(f"# summary written to {os.path.relpath(SUMMARY_PATH, harness.REPO_ROOT)}; "
          f"{breaches} breach(es), {failed_runs} failed run(s)")
    return 1 if breaches or failed_runs else 0
