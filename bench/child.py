"""The workload child: one fresh interpreter per cold set-up and share of
the sequence.

Started by ``bench.run`` with the thread pins, a private ``TMPDIR`` and the
run id in its environment.  It times set-up from the parent's spawn
instant (imports included), runs its part of the fixed sequence, checks
outputs, closes every backend explicitly and writes one JSON record.
"""

from __future__ import annotations

import argparse
import os
import time
from typing import Any, Dict

from . import harness
from .harness import Calibrator, run_sequence, write_json
from .workloads import worker_count, workload_class


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench._child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--deadline-s", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    harness.add_src_to_path()

    workload = workload_class(args.workload)()
    record: Dict[str, Any] = {"workload": args.workload, "seed": args.seed}
    workload.setup(args.seed, args.workdir)
    try:
        ready = time.monotonic()
        calibrator = Calibrator()
        record["setup_raw_s"] = ready - args.spawned_at
        record["setup_cal_s"] = calibrator.measure()
        try:
            if workload.parallel_variants:
                calibrator.start_twin()
            record.update(_measure(workload, args, calibrator))
        finally:
            calibrator.close()
    finally:
        workload.close()
    write_json(args.result, record)
    return 0


def _measure(workload, args, calibrator) -> Dict[str, Any]:
    tracer = None
    if args.trace:
        from .trace import Tracer

        tracer = Tracer()
        tracer.prepare({
            "repro.unlearning.goldfish.GoldfishUnlearner.unlearn":
                lambda result: tracer.bump("early_stops", int(result.stopped_early)),
        })
    deadline = time.monotonic() + args.deadline_s
    record = run_sequence(workload, args.samples, calibrator, tracer, deadline)
    if record["samples"]:
        finished = workload.finish()
        record["quality_pct"] = finished["quality_pct"]
        record["attempted"] += finished["checks"]
        record["failures"].extend(finished["failures"])
        record["notes"] = finished.get("notes", {})
    record["peak_rss_kb"] = harness.peak_rss_kb_with_workers(exclude=(calibrator.twin_pid,))
    record["workers"] = worker_count()
    record["fanout"] = workload.fanout
    record["requests_per_sample"] = workload.requests_per_sample
    if tracer is not None and record["samples"]:
        from .metrics import span_metrics
        from .probes import run_probes

        traced = max(1, sum(1 for s in record["samples"] if s["traced"]))
        record["span_metrics"] = span_metrics(tracer.spans)
        counters = dict(workload.layer_counters())
        counters["unlearning.early_stops"] = tracer.counters.get("early_stops", 0) / traced
        record["layer_counters"] = counters
        record["probes"], record["null_reasons"] = run_probes()
        record["missing_entry_points"] = tracer.missing
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        trace_path = os.path.join(harness.OUT_DIR, f"{args.workload}.trace.jsonl")
        tracer.write(trace_path)
        record["trace_file"] = os.path.relpath(trace_path, harness.REPO_ROOT)
        record["spans"] = sum(span is not None for span in tracer.spans)
    return record


if __name__ == "__main__":
    raise SystemExit(main())
