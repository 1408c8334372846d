"""Command-line interface for regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments <experiment> [--scale smoke|small|paper]
                                             [--dataset NAME] [--seed N]
                                             [--backend NAME] [--workers N]

    python -m repro.experiments list             # show available experiments
    python -m repro.experiments fig5 --dataset mnist --scale small
    python -m repro.experiments fig4 --backend pool --workers 8
    python -m repro.experiments all --scale smoke --dataset mnist

    # the matrix driver: registry methods × scenario spec × sweeps
    python -m repro.experiments matrix --scenario label_flip \
        --method ours,b1 --sweep deletion.rate=0.02,0.06

Each run prints the reproduced rows/series (the same data the paper's
table or figure reports), plus a ``spec:`` line with the declaration's
stable content hash and a ``runtime:`` provenance line recording the
backend, worker/CPU counts and wall-clock time.

``--backend`` selects the execution runtime for *every* fan-out site the
experiment touches (federated rounds, unlearning protocols, SISA/shard
retraining) by exporting the spec through ``REPRO_BACKEND`` — the
resolution point every ``backend=None`` call site already consults — so
no experiment module needs a backend parameter.  Results are
bit-identical across backends; only wall-clock time changes.

The ``matrix`` experiment enumerates registered unlearning methods
(:mod:`repro.unlearning.registry`) against a named scenario preset
(:data:`repro.experiments.spec.SCENARIO_PRESETS`) with ``--sweep``
overrides applied to any dotted spec path — new scenario × method
combinations need no new experiment module.  Matrix cells differing only in ``deletion.*`` share one pretrained
snapshot (bit-identical to cold pretrains; ``pretrain_cache`` provenance
reports hits/misses).  ``--codec`` selects the update codec client
returns travel under (``raw``/``delta`` lossless and bit-identical,
``topk:<frac>``/``quant:<bits>`` lossy and deterministic per seed);
bytes-on-the-wire totals are stamped into the ``transport`` runtime
provenance, and the codec is sweepable like any spec path
(``--sweep federation.compression.codec=raw,delta,quant:8``).
``--vectorize`` stacks eligible homogeneous cohorts into one batched
forward/backward per round-step (:mod:`repro.federated.vectorized`) —
bit-identical results, recorded in the ``vectorize`` runtime provenance,
sweepable as ``--sweep federation.vectorize=false,true``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

from . import (
    certification,
    efficiency,
    fig4_retraining,
    fig5_backdoor,
    fig6_shards,
    fig7_shard_deletion,
    fig8_heterogeneous,
    fig9_iid,
    runner,
    tab7_9_divergence,
    tab10_ablation,
    tab11_loss_compat,
)
from ..runtime import BACKEND_ENV_VAR, parse_backend_spec, usable_cpus
from ..unlearning.registry import available_methods, get_unlearner
from .results import ExperimentResult
from .scale import SCALES, get_scale
from .spec import ExperimentSpec, SCENARIO_PRESETS, get_scenario

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
    "matrix": "Matrix driver: --method × --scenario × --sweep combinations",
    "all": "run every experiment",
}


def _supports_dataset(name: str, dataset: str) -> bool:
    """Whether experiment ``name`` has a variant for ``dataset``."""
    if not dataset:
        return True
    if name in _DATASET_EXPERIMENTS:
        return dataset in _DATASET_EXPERIMENTS[name][0].DATASETS
    return True


def parse_sweeps(entries: Sequence[str]) -> Dict[str, List[Any]]:
    """Parse repeated ``--sweep key=v1,v2`` flags into {path: values}.

    Values go through JSON first (so ``0.06`` is a float, ``true`` a
    bool, ``5`` an int) and fall back to plain strings.
    """
    sweeps: Dict[str, List[Any]] = {}
    for entry in entries:
        if "=" not in entry:
            raise ValueError(f"--sweep needs key=v1,v2 syntax, got {entry!r}")
        key, _, raw = entry.partition("=")
        key = key.strip()
        if not key or not raw:
            raise ValueError(f"--sweep needs key=v1,v2 syntax, got {entry!r}")
        values: List[Any] = []
        for token in raw.split(","):
            token = token.strip()
            if not token:
                raise ValueError(
                    f"--sweep {entry!r} has an empty value (trailing comma?)"
                )
            try:
                values.append(json.loads(token))
            except json.JSONDecodeError:
                values.append(token)
        sweeps[key] = values
    return sweeps


def parse_methods(spec: str) -> Tuple[str, ...]:
    """Parse ``--method ours,b1`` (validated against the registry)."""
    methods = tuple(m.strip() for m in spec.split(",") if m.strip())
    for method in methods:
        get_unlearner(method)  # fail fast on typos
    return methods


def run_matrix(
    scale_name: str,
    dataset: str,
    seed: int,
    methods: Tuple[str, ...],
    scenario: str,
    sweeps: Dict[str, List[Any]],
    federation_overrides: Dict[str, Any] = None,
    store=None,
) -> ExperimentResult:
    """Enumerate registry methods × scenario spec × sweep combinations."""
    scenario_spec = get_scenario(scenario, dataset=dataset or "mnist")
    if federation_overrides:
        scenario_spec = scenario_spec.with_overrides(**federation_overrides)
    methods = methods or available_methods(level="sample")
    exp = ExperimentSpec(
        experiment_id=f"matrix:{scenario}",
        title=(
            f"Method × scenario matrix ({scenario} on "
            f"{dataset or 'mnist'}, {len(methods)} methods)"
        ),
        kind="matrix",
        scenario=scenario_spec,
        methods=methods,
        params={"sweeps": sweeps},
    )
    # run_spec (not run_matrix directly) so a --result-store dedupes the
    # whole matrix and checkpoints/resumes its cells.
    return runner.run_spec(exp, get_scale(scale_name), seed=seed, store=store)


def _stamp_and_print(results, runtime_info: Dict) -> None:
    """Attach execution provenance to each result, then print it.

    A multi-result run (e.g. ``fig5`` over every dataset) was timed as a
    whole, so the elapsed time is stamped as ``wall_clock_s_total`` —
    attributing the aggregate to each individual result would overstate
    every per-dataset cost in the persisted trajectory.
    """
    if isinstance(results, ExperimentResult):
        results = {"": results}
    results = dict(results)
    if len(results) > 1 and "wall_clock_s" in runtime_info:
        runtime_info = dict(runtime_info)
        runtime_info["wall_clock_s_total"] = runtime_info.pop("wall_clock_s")
    for result in results.values():
        # Merge, don't replace: runners stamp their own provenance
        # (pretrain-cache hits, transport totals) before the CLI adds
        # the execution facts.
        result.runtime = {**result.runtime, **runtime_info}
        result.print()
        print()


def active_backend_spec() -> str:
    """The backend spec experiments will resolve (env override or serial)."""
    return os.environ.get(BACKEND_ENV_VAR) or "serial"


def run_experiment(
    name: str,
    scale_name: str,
    dataset: str,
    seed: int,
    *,
    methods: Tuple[str, ...] = (),
    scenario: str = "backdoor",
    sweeps: Dict[str, List[Any]] = None,
    federation_overrides: Dict[str, Any] = None,
    store_dir: str = "",
) -> None:
    """Run one experiment (or all) and print the reproduced artifact(s)."""
    scale = get_scale(scale_name)
    store = None
    if store_dir:
        from .store import ResultStore

        store = ResultStore(store_dir)
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
    elif name == "matrix":
        results = run_matrix(
            scale_name, dataset, seed, methods, scenario, sweeps or {},
            federation_overrides=federation_overrides, store=store,
        )
    elif name == "all":
        # The matrix driver is a tool, not a paper artifact — exclude it.
        for each in [k for k in EXPERIMENTS if k not in ("all", "matrix")]:
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
    parser.add_argument("--method", default="",
                        help="matrix: comma-separated registered methods "
                             f"(default: all sample-level; known: "
                             f"{', '.join(available_methods())})")
    parser.add_argument("--scenario", default="backdoor",
                        choices=sorted(SCENARIO_PRESETS),
                        help="matrix: named scenario preset (default: backdoor)")
    parser.add_argument("--sweep", action="append", default=[],
                        metavar="KEY=V1,V2",
                        help="matrix: sweep a dotted spec path over values, "
                             "e.g. --sweep deletion.rate=0.02,0.06 "
                             "--sweep federation.num_clients=5,10 (repeatable)")
    parser.add_argument("--backend", default="",
                        help="execution backend for every fan-out site: "
                             "serial (default), pool ('process' "
                             "is an alias), cluster (localhost multi-node "
                             "over TCP) — "
                             "optionally sized, e.g. 'pool:8' or "
                             "'cluster:4:retries=2'. Results are "
                             "identical across backends.")
    parser.add_argument("--codec", default="",
                        help="matrix: update codec for client returns — "
                             "raw (default), delta (lossless, "
                             "bit-identical), topk:<frac>, quant:<bits> "
                             "(lossy, deterministic per seed). Byte "
                             "counts land in the runtime provenance.")
    parser.add_argument("--vectorize", action="store_true",
                        help="matrix: client-vectorized execution — stack "
                             "eligible homogeneous cohorts into one batched "
                             "forward/backward per round-step (bit-identical "
                             "results; ineligible cohorts fall back per "
                             "client with the reason recorded in the "
                             "runtime provenance)")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker count for --backend (same as the ':N' "
                             "suffix)")
    parser.add_argument("--result-store", default="", dest="result_store",
                        metavar="DIR",
                        help="matrix: persist results keyed "
                             "(spec hash, scale, seed) under DIR — reruns "
                             "of an already-computed spec return the stored "
                             "result, and an interrupted matrix resumes "
                             "from its completed sweep cells")
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
        federation_overrides: Dict[str, Any] = {}
        if args.codec:
            if args.experiment != "matrix":
                # Only the matrix driver threads federation overrides;
                # silently running a paper artifact under the default
                # codec while the flag suggests otherwise would be worse
                # than refusing.
                raise ValueError(
                    "--codec applies to the matrix driver only "
                    "(try: matrix --scenario ... --codec "
                    f"{args.codec})"
                )
            from ..runtime import get_codec

            get_codec(args.codec)  # fail fast on typos, before any training
            federation_overrides["federation.compression.codec"] = args.codec
        if args.vectorize:
            if args.experiment != "matrix":
                raise ValueError(
                    "--vectorize applies to the matrix driver only "
                    "(try: matrix --scenario ... --vectorize)"
                )
            federation_overrides["federation.vectorize"] = True
        if args.result_store and args.experiment != "matrix":
            raise ValueError("--result-store applies to the matrix driver only")
        run_experiment(
            args.experiment, args.scale, args.dataset, args.seed,
            methods=parse_methods(args.method),
            scenario=args.scenario,
            sweeps=parse_sweeps(args.sweep),
            federation_overrides=federation_overrides,
            store_dir=args.result_store,
        )
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
