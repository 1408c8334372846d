"""One protocol, one registry: every unlearning method behind one API.

The paper's evaluation crosses scenarios with unlearning methods, but the
methods historically lived behind two different shapes: four free-function
federation protocols (:func:`~repro.unlearning.protocols.federated_goldfish`
and friends) and the class-based baselines (FedEraser / FedRecovery, whose
``unlearn`` signatures need server-side round history). This module closes
that gap:

* :class:`Unlearner` — the protocol every method implements: **one
  constructor signature** ``Method(train_config=..., num_rounds=...,
  **options)`` and **one entry point** ``unlearn(sim, requests,
  backend=...)`` returning a normalised
  :class:`~repro.unlearning.protocols.UnlearnOutcome` (wall-clock, rounds,
  chains, provenance).
* a **method registry** — ``get_unlearner("ours")`` /
  ``make_unlearner("federaser", ...)`` / ``available_methods()`` — so
  experiment code enumerates methods instead of string-dispatching them.

Every adapter delegates to the existing protocol / baseline
implementation, so outcomes are bit-identical to direct calls (the parity
tests in ``tests/unlearning/test_registry.py`` assert it weight-for-weight
for every registered method).

Registered methods
------------------
========================  =======================================  ==========
canonical name (aliases)  implementation                           level
========================  =======================================  ==========
``ours`` (goldfish)       :func:`federated_goldfish`               sample
``b1`` (retrain)          :func:`federated_retrain`                sample
``b2`` (rapid_retrain)    :func:`federated_rapid_retrain`          sample
``b3`` (incompetent_…)    :func:`federated_incompetent_teacher`    sample
``federaser``             :class:`FedEraser` replay                client
``fedrecovery``           :class:`FedRecovery` residual removal    client
========================  =======================================  ==========

The centralized classes the paper's baselines are built from
(``retrain_from_scratch``, :class:`RapidRetrainer`,
:class:`IncompetentTeacherUnlearner`) power B1/B2/B3's per-client work;
registering the federated flows therefore covers all nine entry points the
code base previously exposed.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..federated.simulation import FederatedSimulation
from ..runtime import BackendLike
from ..training.config import TrainConfig
from ..training.evaluation import evaluate
from .baselines.federaser import FedEraser, FedEraserConfig
from .baselines.fedrecovery import FedRecovery, FedRecoveryConfig
from .baselines.incompetent import IncompetentTeacherConfig
from .goldfish import GoldfishConfig
from .protocols import (
    RoundCallback,
    UnlearnOutcome,
    federated_goldfish,
    federated_incompetent_teacher,
    federated_rapid_retrain,
    federated_retrain,
)


@dataclass(frozen=True)
class ClientDeletionRequest:
    """One client's pending deletion.

    ``indices`` are local sample indices to forget (sample-level methods);
    ``None`` means "erase this client entirely" (client-level methods —
    FedEraser / FedRecovery).
    """

    client_id: int
    indices: Optional[Tuple[int, ...]] = None

    @classmethod
    def of(cls, client_id: int, indices=None) -> "ClientDeletionRequest":
        if indices is not None:
            indices = tuple(int(i) for i in np.asarray(indices).ravel())
        return cls(client_id=int(client_id), indices=indices)


RequestsLike = Sequence[ClientDeletionRequest]


class Unlearner(abc.ABC):
    """Base class every registered unlearning method implements.

    Construction is uniform — ``Method(train_config=..., num_rounds=...,
    **options)`` — and execution is uniform: :meth:`unlearn` drives a
    :class:`~repro.federated.simulation.FederatedSimulation` through one
    complete unlearning flow and returns a normalised
    :class:`UnlearnOutcome`.

    Class attributes
    ----------------
    name:
        Canonical registry name.
    aliases:
        Alternate lookup names (paper labels vs descriptive names).
    level:
        ``"sample"`` (forgets samples within clients) or ``"client"``
        (erases whole clients).
    requires_history:
        Whether :meth:`unlearn` needs a server-side
        :class:`~repro.federated.history.RoundHistoryStore` (the
        update-adjustment family).
    """

    name: str = ""
    aliases: Tuple[str, ...] = ()
    level: str = "sample"
    requires_history: bool = False

    def __init__(self, train_config: TrainConfig, num_rounds: int, **options: Any):
        if num_rounds <= 0:
            raise ValueError(f"num_rounds must be positive, got {num_rounds}")
        self.train_config = train_config
        self.num_rounds = num_rounds
        self.options = options

    # ------------------------------------------------------------------
    # The one entry point
    # ------------------------------------------------------------------
    def unlearn(
        self,
        sim: FederatedSimulation,
        requests: RequestsLike = (),
        *,
        backend: BackendLike = None,
        round_callback: Optional[RoundCallback] = None,
        history=None,
        initial_state=None,
        rng: Optional[np.random.Generator] = None,
    ) -> UnlearnOutcome:
        """Run this method on ``sim`` and return a normalised outcome.

        ``requests`` files deletions before the flow starts (sample-level
        requests call :meth:`Client.request_deletion`; a request with
        ``indices=None`` names the client to erase for client-level
        methods). Passing ``()`` means the caller already registered the
        deletions on the clients. ``history``/``initial_state``/``rng``
        are only consulted by methods with ``requires_history``.
        """
        self._file_requests(sim, requests)
        outcome = self._run(
            sim,
            requests,
            backend=backend,
            round_callback=round_callback,
            history=history,
            initial_state=initial_state,
            rng=rng,
        )
        outcome.method = self.name
        if not outcome.chains:
            outcome.chains = outcome.rounds_run * len(sim.clients)
        outcome.provenance.setdefault("method", self.name)
        outcome.provenance.setdefault("level", self.level)
        # Overlap accounting: which round engine drove the federation and
        # how much retraining overlapped with it rather than barriering
        # (see repro.federated.engine / UnlearningService).  Sync barriered
        # flows record engine="sync", overlap_rounds=0.
        engine_mode = (
            "async" if getattr(sim, "async_config", None) is not None else "sync"
        )
        outcome.provenance.setdefault("engine", engine_mode)
        outcome.provenance.setdefault("overlap_rounds", outcome.overlap_rounds)
        if self.options:
            outcome.provenance.setdefault(
                "options", {k: repr(v) for k, v in sorted(self.options.items())}
            )
        return outcome

    def _file_requests(self, sim: FederatedSimulation, requests: RequestsLike) -> None:
        by_id = {client.client_id: client for client in sim.clients}
        for request in requests:
            if request.client_id not in by_id:
                raise ValueError(f"unknown client {request.client_id}")
            if request.indices is not None:
                by_id[request.client_id].request_deletion(
                    np.asarray(request.indices, dtype=np.int64)
                )

    @abc.abstractmethod
    def _run(
        self,
        sim: FederatedSimulation,
        requests: RequestsLike,
        *,
        backend: BackendLike,
        round_callback: Optional[RoundCallback],
        history,
        initial_state,
        rng: Optional[np.random.Generator],
    ) -> UnlearnOutcome:
        """Method-specific flow; adapters delegate to the existing code."""


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[Unlearner]] = {}
_ALIASES: Dict[str, str] = {}


def register_unlearner(cls: Type[Unlearner]) -> Type[Unlearner]:
    """Class decorator: add ``cls`` to the method registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a registry name")
    if cls.name in _REGISTRY or cls.name in _ALIASES:
        raise ValueError(f"duplicate unlearner name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    for alias in cls.aliases:
        if alias in _REGISTRY or alias in _ALIASES:
            raise ValueError(f"duplicate unlearner alias {alias!r}")
        _ALIASES[alias] = cls.name
    return cls


def available_methods(level: Optional[str] = None) -> Tuple[str, ...]:
    """Canonical method names, optionally filtered by level."""
    names = [
        name
        for name, cls in _REGISTRY.items()
        if level is None or cls.level == level
    ]
    return tuple(sorted(names))


def get_unlearner(name: str) -> Type[Unlearner]:
    """Look up a registered method class by canonical name or alias."""
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        raise ValueError(
            f"unknown unlearning method {name!r}; "
            f"available: {list(available_methods())}"
        ) from None


def make_unlearner(
    name: str, train_config: TrainConfig, num_rounds: int, **options: Any
) -> Unlearner:
    """Construct a registered method with the uniform signature."""
    return get_unlearner(name)(train_config, num_rounds, **options)


# ----------------------------------------------------------------------
# Sample-level adapters (the paper's four federation flows)
# ----------------------------------------------------------------------
@register_unlearner
class GoldfishFederated(Unlearner):
    """Ours: Algorithm 1's deletion branch (teacher/student distillation).

    Options: ``config`` — a full :class:`GoldfishConfig`; omitted, the
    paper's loss weights apply with this method's ``train_config`` as the
    SGD hyper-parameters (identical to
    ``experiments.common.goldfish_config(scale, train=...)``).
    """

    name = "ours"
    aliases = ("goldfish",)

    def _run(self, sim, requests, *, backend, round_callback, history,
             initial_state, rng) -> UnlearnOutcome:
        config: Optional[GoldfishConfig] = self.options.get("config")
        if config is None:
            config = GoldfishConfig(train=self.train_config)
        return federated_goldfish(
            sim, config, self.num_rounds,
            round_callback=round_callback, backend=backend,
        )


@register_unlearner
class RetrainFederated(Unlearner):
    """B1: reinitialise and FedAvg-retrain on the retained data."""

    name = "b1"
    aliases = ("retrain",)

    def _run(self, sim, requests, *, backend, round_callback, history,
             initial_state, rng) -> UnlearnOutcome:
        return federated_retrain(
            sim, self.train_config, self.num_rounds,
            round_callback=round_callback, backend=backend,
        )


@register_unlearner
class RapidRetrainFederated(Unlearner):
    """B2: from-scratch retraining with the diagonal-FIM preconditioner.

    Options: ``lr_scale`` (default 0.1), ``rho`` (0.95), ``damping``
    (1e-3) — forwarded to :func:`federated_rapid_retrain`.
    """

    name = "b2"
    aliases = ("rapid_retrain",)

    def _run(self, sim, requests, *, backend, round_callback, history,
             initial_state, rng) -> UnlearnOutcome:
        return federated_rapid_retrain(
            sim, self.train_config, self.num_rounds,
            lr_scale=self.options.get("lr_scale", 0.1),
            rho=self.options.get("rho", 0.95),
            damping=self.options.get("damping", 1e-3),
            round_callback=round_callback, backend=backend,
        )


@register_unlearner
class IncompetentTeacherFederated(Unlearner):
    """B3: dual-teacher adjustment of the current global model.

    Options: ``config`` — an :class:`IncompetentTeacherConfig` (defaults
    to one built from ``train_config``); ``normal_client_config`` — the
    non-unlearning clients' local config (defaults to ``config.train``).
    """

    name = "b3"
    aliases = ("incompetent_teacher",)

    def _run(self, sim, requests, *, backend, round_callback, history,
             initial_state, rng) -> UnlearnOutcome:
        config: Optional[IncompetentTeacherConfig] = self.options.get("config")
        if config is None:
            config = IncompetentTeacherConfig(train=self.train_config)
        return federated_incompetent_teacher(
            sim, config, self.num_rounds,
            normal_client_config=self.options.get("normal_client_config"),
            round_callback=round_callback, backend=backend,
        )


# ----------------------------------------------------------------------
# Client-level adapters (update-adjustment family; need round history)
# ----------------------------------------------------------------------
def _forget_client_id(requests: RequestsLike) -> int:
    """The client a client-level method erases (default: client 0)."""
    for request in requests:
        if request.indices is None:
            return request.client_id
    if requests:
        return requests[0].client_id
    return 0


def _score_rounds(sim: FederatedSimulation, model) -> List[float]:
    """A one-point accuracy trace so ``final_accuracy`` works uniformly."""
    _, accuracy = evaluate(model, sim.server.test_set)
    return [accuracy]


@register_unlearner
class FedEraserMethod(Unlearner):
    """FedEraser: calibrated replay of the stored round history.

    Options: ``calibration_epochs`` (default 1) plus any other
    :class:`FedEraserConfig` field. ``unlearn`` requires ``history`` and
    ``initial_state``; ``rng`` seeds the calibration passes.
    """

    name = "federaser"
    level = "client"
    requires_history = True

    def _run(self, sim, requests, *, backend, round_callback, history,
             initial_state, rng) -> UnlearnOutcome:
        if history is None:
            raise ValueError("federaser requires the server round history")
        if initial_state is None:
            initial_state = sim.server.initial_state
        if rng is None:
            rng = np.random.default_rng(0)
        forget_client = _forget_client_id(requests)
        config = FedEraserConfig(
            calibration_epochs=self.options.get("calibration_epochs", 1),
            learning_rate=self.options.get(
                "learning_rate", self.train_config.learning_rate
            ),
            batch_size=self.options.get("batch_size", self.train_config.batch_size),
        )
        eraser = FedEraser(sim.model_factory, config)
        client_datasets = [client.dataset for client in sim.clients]
        start = time.perf_counter()
        state, report = eraser.unlearn(
            history, initial_state, client_datasets,
            forget_client_id=forget_client, rng=rng,
        )
        wall = time.perf_counter() - start
        model = sim.model_factory()
        model.load_state_dict(state)
        return UnlearnOutcome(
            global_model=model,
            rounds_run=report.rounds_replayed,
            round_accuracies=_score_rounds(sim, model),
            local_epochs_total=report.calibration_epochs_run,
            wall_seconds=wall,
            chains=report.rounds_replayed * max(0, len(sim.clients) - 1),
            provenance={
                "forget_client_id": forget_client,
                "rounds_replayed": report.rounds_replayed,
            },
        )


@register_unlearner
class FedRecoveryMethod(Unlearner):
    """FedRecovery: server-side gradient-residual subtraction.

    Options: any :class:`FedRecoveryConfig` field (``noise_enabled``
    defaults to False here so accuracy is comparable across methods, as
    in the efficiency experiment). Requires ``history``.
    """

    name = "fedrecovery"
    level = "client"
    requires_history = True

    def _run(self, sim, requests, *, backend, round_callback, history,
             initial_state, rng) -> UnlearnOutcome:
        if history is None:
            raise ValueError("fedrecovery requires the server round history")
        if rng is None:
            rng = np.random.default_rng(0)
        forget_client = _forget_client_id(requests)
        config_fields = {
            key: self.options[key]
            for key in ("noise_enabled", "epsilon", "delta", "influence_clip")
            if key in self.options
        }
        config_fields.setdefault("noise_enabled", False)
        recovery = FedRecovery(FedRecoveryConfig(**config_fields))
        start = time.perf_counter()
        state, report = recovery.unlearn(
            history, sim.server.global_state,
            forget_client_id=forget_client, rng=rng,
        )
        wall = time.perf_counter() - start
        model = sim.model_factory()
        model.load_state_dict(state)
        return UnlearnOutcome(
            global_model=model,
            rounds_run=0,
            round_accuracies=_score_rounds(sim, model),
            local_epochs_total=0,
            wall_seconds=wall,
            chains=0,  # pure server-side computation
            provenance={"forget_client_id": forget_client},
        )
