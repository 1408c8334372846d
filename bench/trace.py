"""Spans recorded from outside: timing wrappers around public entry points.

The wrappers live in the harness process only, so they see the serial
variants (and the parent side of pool/cluster dispatch).  Spans are kept
in memory as ``(name, start, end, parent, sample, variant)`` and written
out once, when the workload ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name).  A dotted attribute path names a
#: method on a class.  An entry a later refactor removes is skipped and
#: listed in ``Tracer.missing``; its metrics then read 0.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.training.trainer", "train", "training.train"),
    ("repro.training.evaluation", "evaluate", "training.evaluate"),
    ("repro.federated.server", "Server.aggregate", "federated.aggregate"),
    ("repro.federated.simulation", "FederatedSimulation.run_round", "federated.run_round"),
    ("repro.federated.vectorized", "VectorizedCohort.train", "federated.vec_train"),
    ("repro.nn.vmap", "stack_modules", "federated.stack"),
    ("repro.nn.vmap", "StackedModel.sync_back", "federated.unstack"),
    ("repro.unlearning.protocols", "federated_goldfish", "unlearning.protocol"),
    ("repro.unlearning.protocols", "federated_retrain", "unlearning.protocol"),
    ("repro.unlearning.goldfish", "GoldfishUnlearner.unlearn", "unlearning.goldfish_local"),
    ("repro.unlearning.losses", "GoldfishLoss.__call__", "unlearning.goldfish_loss"),
    ("repro.unlearning.journal", "Journal.append", "unlearning.journal_append"),
    ("repro.unlearning.journal", "replay", "unlearning.recover_replay"),
    ("repro.nn.serialization", "save_state_dict", "unlearning.sidecar_write"),
    ("repro.nn.serialization", "load_state_dict", "unlearning.recover_load"),
    ("repro.unlearning.sisa", "SisaEnsemble.delete", "unlearning.sisa_delete"),
    ("repro.runtime.backends", "SerialBackend.run_tasks", "runtime.run_tasks"),
    ("repro.runtime.pool", "PoolBackend.run_tasks", "runtime.run_tasks"),
    ("repro.cluster.backend", "ClusterBackend.run_tasks", "runtime.run_tasks"),
)

Span = Tuple[str, float, float, Optional[int], Optional[int], Optional[str]]


class Tracer:
    """Installs and removes the wrappers; owns the span list."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, int] = {}
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._sample: Optional[int] = None
        self._variant: Optional[str] = None
        # (namespace object, attribute, original, wrapper)
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._installed = False
        self._root: Optional[int] = None

    # -- wrapping -------------------------------------------------------
    def wrap(self, name: str, func: Callable, on_result: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self._installed:
                return func(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._sample, self._variant)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def prepare(self, result_hooks: Optional[Dict[str, Callable]] = None) -> None:
        """Resolve every entry point once; ``install`` is then a cheap loop."""
        hooks = result_hooks or {}
        for module_name, path, span_name in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
                owner: Any = module
                *holders, attribute = path.split(".")
                for holder in holders:
                    owner = getattr(owner, holder)
                original = owner.__dict__[attribute] if holders else getattr(owner, attribute)
            except (ImportError, AttributeError, KeyError) as error:
                self.missing.append(f"{module_name}.{path}: {error}")
                continue
            wrapper = self.wrap(span_name, original, hooks.get(f"{module_name}.{path}"))
            if holders:
                self._patches.append((owner, attribute, original, wrapper))
                continue
            # A plain function is bound by name wherever it was imported.
            for loaded in list(sys.modules.values()):
                name = getattr(loaded, "__name__", "")
                if not name.startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patches.append((loaded, key, original, wrapper))

    def install(self) -> None:
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)
        self._installed = False

    # -- per-call bracketing -------------------------------------------
    def begin(self, variant: str, sample: int) -> None:
        self._sample, self._variant = sample, variant
        self.install()
        self._root = len(self.spans)
        self.spans.append(None)
        self._stack.append(self._root)
        self._root_start = time.perf_counter()

    def end(self) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[self._root] = (
            f"variant.{self._variant}", self._root_start, end, None,
            self._sample, self._variant,
        )
        self.uninstall()
        self._sample = self._variant = None

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, sample, variant = span
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "sample": sample, "variant": variant,
                }) + "\n")


def self_times(spans: List[Optional[Span]]) -> List[float]:
    """Self time per span: its duration minus the part its children cover.

    Children of one span never overlap here (one thread, strict nesting),
    so the covered part is the sum of the children's durations.
    """
    own = [0.0 if span is None else span[2] - span[1] for span in spans]
    for span in spans:
        if span is None or span[3] is None:
            continue
        own[span[3]] -= span[2] - span[1]
    return own
