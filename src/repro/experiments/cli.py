"""Command-line interface for regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments <experiment> [--scale smoke|small|paper]
                                             [--dataset NAME] [--seed N]
                                             [--backend NAME] [--workers N]

    python -m repro.experiments list             # show available experiments
    python -m repro.experiments fig5 --dataset mnist --scale small
    python -m repro.experiments fig4 --backend pool --workers 8
    python -m repro.experiments all --scale smoke --dataset mnist

Each run prints the reproduced rows/series (the same data the paper's
table or figure reports), plus a ``runtime:`` provenance line recording
the backend, worker/CPU counts and wall-clock time.

``--backend`` selects the execution runtime for *every* fan-out site the
experiment touches (federated rounds, unlearning protocols, SISA/shard
retraining) by exporting the spec through ``REPRO_BACKEND`` — the
resolution point every ``backend=None`` call site already consults — so
no experiment module needs a backend parameter.  Results are
bit-identical across backends; only wall-clock time changes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List

from . import (
    certification,
    efficiency,
    fig4_retraining,
    fig5_backdoor,
    fig6_shards,
    fig7_shard_deletion,
    fig8_heterogeneous,
    fig9_iid,
    tab7_9_divergence,
    tab10_ablation,
    tab11_loss_compat,
)
from ..runtime import BACKEND_ENV_VAR, parse_backend_spec, usable_cpus
from .results import ExperimentResult
from .scale import SCALES, get_scale

_DATASET_EXPERIMENTS = {
    "fig4": (fig4_retraining, "Fig 4a-e retraining accuracy curves"),
    "fig5": (fig5_backdoor, "Fig 5a-e + Tables III-VI backdoor validity"),
    "tab7_9": (tab7_9_divergence, "Tables VII-IX JSD/L2/t-test"),
}

EXPERIMENTS = {
    "fig4": "Fig 4: retraining accuracy curves (--dataset, default all panels)",
    "fig5": "Fig 5 + Tables III-VI: backdoor vs deletion rate (--dataset)",
    "tab7_9": "Tables VII-IX: divergence vs B1 (--dataset)",
    "tab10": "Table X: loss-component ablation",
    "tab11": "Table XI: hard-loss compatibility",
    "fig6": "Fig 6: shard-count convergence",
    "fig7": "Fig 7: deletion-recovery timelines",
    "fig8": "Fig 8 + Table XII: heterogeneous aggregation",
    "fig9": "Fig 9: IID aggregation",
    "efficiency": "Extension: systems cost of all six unlearning methods (--dataset)",
    "certification": "Extension: eps-hat / MIA / relearn-time certification (--dataset)",
    "all": "run every experiment",
}


def _supports_dataset(name: str, dataset: str) -> bool:
    """Whether experiment ``name`` has a variant for ``dataset``."""
    if not dataset:
        return True
    if name in _DATASET_EXPERIMENTS:
        return dataset in _DATASET_EXPERIMENTS[name][0].DATASETS
    return True


def _stamp_and_print(results, runtime_info: Dict) -> None:
    """Attach execution provenance to each result, then print it.

    A multi-result run (e.g. ``fig5`` over every dataset) was timed as a
    whole, so the elapsed time is stamped as ``wall_clock_s_total`` —
    attributing the aggregate to each individual result would overstate
    every per-dataset cost.
    """
    if isinstance(results, ExperimentResult):
        results = {"": results}
    results = dict(results)
    if len(results) > 1 and "wall_clock_s" in runtime_info:
        runtime_info = dict(runtime_info)
        runtime_info["wall_clock_s_total"] = runtime_info.pop("wall_clock_s")
    for result in results.values():
        result.runtime = dict(runtime_info)
        result.print()
        print()


def active_backend_spec() -> str:
    """The backend spec experiments will resolve (env override or serial)."""
    return os.environ.get(BACKEND_ENV_VAR) or "serial"


def run_experiment(name: str, scale_name: str, dataset: str, seed: int) -> None:
    """Run one experiment (or all) and print the reproduced artifact(s)."""
    scale = get_scale(scale_name)
    start = time.time()
    # Optional-dataset experiments take the override only when one was
    # given, so their defaults (mnist panels, cifar10_resnet ablations)
    # stay in charge otherwise.
    dataset_kwargs = {"dataset": dataset} if dataset else {}
    if name in _DATASET_EXPERIMENTS:
        module, _ = _DATASET_EXPERIMENTS[name]
        if dataset:
            results = module.run(dataset, scale, seed=seed)
        else:
            results = module.run_all(scale, seed=seed)
    elif name == "tab10":
        results = tab10_ablation.run(scale, seed=seed, **dataset_kwargs)
    elif name == "tab11":
        results = tab11_loss_compat.run(scale, seed=seed, **dataset_kwargs)
    elif name == "fig6":
        results = fig6_shards.run(scale, seed=seed, **dataset_kwargs)
    elif name == "fig7":
        results = fig7_shard_deletion.run_all(scale, seed=seed, **dataset_kwargs)
    elif name == "fig8":
        results = fig8_heterogeneous.run_all(scale, seed=seed, **dataset_kwargs)
    elif name == "fig9":
        results = fig9_iid.run(scale, seed=seed, **dataset_kwargs)
    elif name == "efficiency":
        results = efficiency.run(dataset or "mnist", scale, seed=seed)
    elif name == "certification":
        results = certification.run(dataset or "mnist", scale, seed=seed)
    elif name == "all":
        for each in [k for k in EXPERIMENTS if k != "all"]:
            if not _supports_dataset(each, dataset):
                print(f"##### {each} ##### (skipped: no {dataset!r} variant)")
                continue
            print(f"##### {each} #####")
            run_experiment(each, scale_name, dataset=dataset, seed=seed)
        print(f"[all done in {time.time() - start:.0f}s at scale={scale_name}]")
        return
    else:
        raise ValueError(f"unknown experiment {name!r}; see 'list'")
    elapsed = time.time() - start
    runtime_info = {
        "backend": active_backend_spec(),
        "cpus": usable_cpus(),
        "scale": scale_name,
        "seed": seed,
        "wall_clock_s": round(elapsed, 3),
    }
    # Spec options are provenance too — a worker-death retry budget
    # changes what "the run survived" means, so it rides along explicitly
    # rather than only inside the spec string.
    spec_options = parse_backend_spec(runtime_info["backend"])[2]
    if "retries" in spec_options:
        runtime_info["max_task_retries"] = spec_options["retries"]
    if "lease" in spec_options:
        runtime_info["lease_timeout_s"] = spec_options["lease"]
    _stamp_and_print(results, runtime_info)
    print(f"[{name} done in {elapsed:.0f}s at scale={scale_name}]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the Goldfish paper's tables and figures.",
    )
    parser.add_argument("experiment",
                        help=f"one of: {', '.join(EXPERIMENTS)} — or 'list'")
    parser.add_argument("--scale", default="smoke", choices=sorted(SCALES),
                        help="experiment scale preset (default: smoke)")
    parser.add_argument("--dataset", default="",
                        help="run the experiment (or the whole 'all' suite) "
                             "on one dataset")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", default="",
                        help="execution backend for every fan-out site: "
                             "serial (default), pool ('process' "
                             "is an alias), cluster (localhost multi-node "
                             "over TCP) — "
                             "optionally sized, e.g. 'pool:8' or "
                             "'cluster:4:retries=2'. Results are "
                             "identical across backends.")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker count for --backend (same as the ':N' "
                             "suffix)")
    return parser


def resolve_backend_args(backend: str, workers: int) -> str:
    """Combine --backend/--workers into one spec string (validated)."""
    if workers and not backend:
        raise ValueError("--workers requires --backend")
    spec = backend
    if workers:
        name, inline_workers, options = parse_backend_spec(backend)
        if inline_workers is not None and inline_workers != workers:
            raise ValueError(
                f"--workers {workers} conflicts with backend spec {backend!r}"
            )
        # Re-append any key=value options so --workers composes with e.g.
        # --backend pool:retries=2.
        suffix = "".join(
            f":{key}={value}" for key, value in sorted(options.items())
        )
        spec = f"{name}:{workers}{suffix}"
    if spec:
        parse_backend_spec(spec)  # fail fast on typos, before any training
    return spec


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name, description in EXPERIMENTS.items():
            print(f"  {name:8s} {description}")
        return 0
    previous_spec = os.environ.get(BACKEND_ENV_VAR)
    try:
        spec = resolve_backend_args(args.backend, args.workers)
        if spec:
            # Every backend=None resolution point (simulations, protocols,
            # SISA, sharded trainers) consults this variable, so one
            # export threads the choice through the whole experiment.
            os.environ[BACKEND_ENV_VAR] = spec
        run_experiment(args.experiment, args.scale, args.dataset, args.seed)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        # Scope the override to this invocation — in-process callers
        # (tests, driver scripts) must not inherit the backend choice.
        if previous_spec is None:
            os.environ.pop(BACKEND_ENV_VAR, None)
        else:
            os.environ[BACKEND_ENV_VAR] = previous_spec
    return 0


if __name__ == "__main__":
    sys.exit(main())
