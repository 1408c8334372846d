"""Metric definitions and how they are computed from a run's raw record.

``END_TO_END`` and ``PER_LAYER`` are the source of truth for names, units
and bounds; ``BENCHMARK.json`` repeats them for the driver and a test
keeps the two in step.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .harness import VARIANTS, corrected_times, paired_ratios, percentile, quartile_spread
from .trace import Span, self_times

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may get worse before it is a regression.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("alt_p50_s", "s", "lower", 0.25),
    ("ref_p50_s", "s", "lower", 0.25),
    ("op_ref_ratio", "ratio", "lower", 0.25),
    ("io_bytes", "B", "lower", 0.01),
    ("work_units", "count", "lower", 0.01),
    ("quality_pct", "%", "higher", 0.12),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

_SECONDS = (
    "nn.forward_s", "nn.backward_s", "nn.optim_step_s",
    "nn.vmap_fwd_bwd_s", "nn.scalar_fwd_bwd_s",
    "data.synth_s", "data.share_s", "data.batch_iter_s",
    "training.train_self_s", "training.evaluate_s",
    "federated.aggregate_s", "federated.round_self_s", "federated.stack_unstack_s",
    "unlearning.goldfish_loss_s", "unlearning.teacher_forward_s", "unlearning.unlearn_self_s",
    "unlearning.journal_append_s", "unlearning.sidecar_write_s",
    "unlearning.service_overhead_s", "unlearning.sisa_delete_s",
    "unlearning.recover_replay_s", "unlearning.recover_load_s",
    "runtime.task_pickle_s", "runtime.codec_encode_s", "runtime.codec_decode_s",
    "runtime.run_tasks_s", "runtime.fanout_overhead_s", "runtime.pool_spawn_s",
    "cluster.spawn_handshake_s", "cluster.frame_roundtrip_s", "cluster.fanout_overhead_s",
    "experiments.prepare_s", "experiments.evaluate_model_s",
    "harness.calib_p50_s", "harness.raw_op_p50_s", "harness.raw_alt_p50_s",
    "harness.raw_ref_p50_s", "harness.op_p90_s",
)
_COUNTS = (
    "training.train_calls", "unlearning.local_epochs", "unlearning.early_stops",
    "unlearning.chains_per_req", "runtime.task_retries",
    "cluster.resubmits", "cluster.lease_expiries",
)
_BYTES = (
    "federated.history_bytes", "unlearning.journal_bytes_per_req",
    "unlearning.sidecar_bytes_per_req", "runtime.task_pickle_bytes",
    "runtime.codec_bytes_per_round", "cluster.frame_bytes_overhead",
    "cluster.wire_bytes_per_round",
)
_PERCENTS = (
    "harness.calib_spread_pct", "harness.trace_overhead_pct", "harness.unattributed_pct",
)

#: (name, unit, better) — 56 names; layers are the repository's packages.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    [(name, "s", "lower") for name in _SECONDS]
    + [(name, "count", "lower") for name in _COUNTS]
    + [(name, "B", "lower") for name in _BYTES]
    + [(name, "%", "lower") for name in _PERCENTS]
    + [("harness.samples", "count", "higher")]
)

#: span name -> (metric, which of a span's numbers feeds it)
SPAN_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("training.train", "training.train_self_s", "self"),
    ("training.train", "training.train_calls", "calls"),
    ("training.evaluate", "training.evaluate_s", "total"),
    ("federated.aggregate", "federated.aggregate_s", "total"),
    ("federated.run_round", "federated.round_self_s", "self"),
    ("federated.stack", "federated.stack_unstack_s", "total"),
    ("federated.unstack", "federated.stack_unstack_s", "total"),
    ("unlearning.goldfish_loss", "unlearning.goldfish_loss_s", "total"),
    ("unlearning.protocol", "unlearning.unlearn_self_s", "self"),
    ("unlearning.journal_append", "unlearning.journal_append_s", "total"),
    ("unlearning.sidecar_write", "unlearning.sidecar_write_s", "total"),
    ("unlearning.sisa_delete", "unlearning.sisa_delete_s", "total"),
    ("unlearning.recover_replay", "unlearning.recover_replay_s", "total"),
    ("unlearning.recover_load", "unlearning.recover_load_s", "total"),
    ("runtime.run_tasks", "runtime.run_tasks_s", "total"),
)


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def end_to_end(record: Dict[str, Any], setups: Sequence[float]) -> Dict[str, float]:
    """The nine user-visible numbers from a child's untraced samples."""
    samples = [s for s in record["samples"] if not s["traced"]]
    parallel = record.get("parallel_variants", ())
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ref_ratio": statistics.median(paired_ratios(samples, parallel)),
        "io_bytes": float(statistics.median(s["io_bytes"] for s in samples)),
        "work_units": float(statistics.median(s["work_units"] for s in samples)),
        "quality_pct": float(record["quality_pct"]),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }
    for variant in VARIANTS:
        metrics[f"{variant}_p50_s"] = statistics.median(
            corrected_times(samples, variant, parallel)
        )
    return metrics


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------
def span_metrics(spans: List[Optional[Span]]) -> Dict[str, float]:
    """Median over traced samples of each layer's seconds (or calls) per
    sample-triple, plus the share of ``op`` no span accounts for."""
    own = self_times(spans)
    per_sample: Dict[int, Dict[str, float]] = {}
    unattributed: List[float] = []
    feeds: Dict[str, List[Tuple[str, str]]] = {}
    for span_name, metric, kind in SPAN_METRICS:
        feeds.setdefault(span_name, []).append((metric, kind))
    for index, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, _, sample, _ = span
        row = per_sample.setdefault(sample, {})
        if name == "variant.op" and end > start:
            unattributed.append(100.0 * own[index] / (end - start))
        for metric, kind in feeds.get(name, ()):
            amount = {"total": end - start, "self": own[index], "calls": 1.0}[kind]
            row[metric] = row.get(metric, 0.0) + amount
    result = {}
    for metric in {metric for _, metric, _ in SPAN_METRICS}:
        values = [row.get(metric, 0.0) for row in per_sample.values()]
        result[metric] = statistics.median(values) if values else 0.0
    result["harness.unattributed_pct"] = (
        statistics.median(unattributed) if unattributed else 0.0
    )
    return result


def harness_layers(record: Dict[str, Any]) -> Dict[str, float]:
    """What the harness saw of itself: drift, correction, tracing cost."""
    samples = record["samples"]
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    cals = [cal for s in samples for cal in s["cal"]]
    parallel = record.get("parallel_variants", ())
    layers = {
        "harness.calib_p50_s": statistics.median(cals),
        "harness.calib_spread_pct": 100.0 * quartile_spread(cals),
        "harness.op_p90_s": percentile(corrected_times(untraced, "op", parallel), 90),
        "harness.samples": float(len(samples)),
        "harness.trace_overhead_pct": 0.0,
    }
    for variant in VARIANTS:
        layers[f"harness.raw_{variant}_p50_s"] = statistics.median(
            s["raw"][variant] for s in untraced
        )
    if traced:
        layers["harness.trace_overhead_pct"] = 100.0 * (
            statistics.median(corrected_times(traced, "op", parallel))
            / statistics.median(corrected_times(untraced, "op", parallel))
            - 1.0
        )
    return layers


def derived_layers(record: Dict[str, Any], workers: int) -> Dict[str, float]:
    """Layer numbers that are differences of end-to-end medians."""
    untraced = [s for s in record["samples"] if not s["traced"]]
    parallel = record.get("parallel_variants", ())
    p50 = {
        variant: statistics.median(corrected_times(untraced, variant, parallel))
        for variant in VARIANTS
    }
    layers = {
        "runtime.fanout_overhead_s": 0.0,
        "cluster.fanout_overhead_s": 0.0,
        "unlearning.service_overhead_s": 0.0,
    }
    for layer, (on_workers, serial) in (record.get("fanout") or {}).items():
        layers[f"{layer}.fanout_overhead_s"] = p50[on_workers] - p50[serial] / workers
    requests = record.get("requests_per_sample")
    if requests:
        layers["unlearning.service_overhead_s"] = (p50["op"] - p50["ref"]) / requests
    return layers


def per_layer(record: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """All 56 names.  A layer the workload never entered reads 0; ``None``
    only where a probe failed (its reason is in ``record["null_reasons"]``)."""
    values: Dict[str, Optional[float]] = {name: 0.0 for name, _, _ in PER_LAYER}
    values.update(record.get("span_metrics", {}))
    values.update(record.get("layer_counters", {}))
    values.update(record.get("probes", {}))
    values.update(derived_layers(record, record.get("workers", 1)))
    values.update(harness_layers(record))
    return {name: values[name] for name, _, _ in PER_LAYER}
