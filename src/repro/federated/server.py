"""Federated-learning server: holds the global model and aggregates."""

from __future__ import annotations

from typing import Optional, Sequence

from ..data.dataset import ArrayDataset
from ..nn.module import Module
from ..training.evaluation import evaluate
from .aggregation import Aggregator, ClientUpdate
from .state_math import StateDict


class Server:
    """Central coordinator: broadcast, aggregate, evaluate."""

    def __init__(
        self,
        model: Module,
        aggregator: Aggregator,
        test_set: Optional[ArrayDataset] = None,
    ) -> None:
        self.model = model
        self.aggregator = aggregator
        self.test_set = test_set
        self._initial_state: StateDict = model.state_dict()

    @property
    def global_state(self) -> StateDict:
        """The current global parameters (copied)."""
        return self.model.state_dict()

    @property
    def initial_state(self) -> StateDict:
        """ω^0 — the state the federation started from.

        Algorithm 1 reinitialises all clients from ω^0 when a deletion
        request arrives, so the server must remember it.
        """
        return {key: value.copy() for key, value in self._initial_state.items()}

    def broadcast(self, clients: Sequence) -> None:
        """Send the global model to every client."""
        state = self.global_state
        for client in clients:
            client.receive_global(state)

    def aggregate(self, updates: Sequence[ClientUpdate]) -> StateDict:
        """Combine client updates and install the result as the new global."""
        new_state = self.aggregator.aggregate(updates)
        self.model.load_state_dict(new_state)
        return new_state

    def reinitialize(self) -> None:
        """Reset the global model to ω^0 (deletion-request handling)."""
        self.model.load_state_dict(self.initial_state)

    def evaluate_global(self):
        """(loss, accuracy) of the global model on the server test set."""
        if self.test_set is None:
            raise ValueError("server has no test set")
        return evaluate(self.model, self.test_set)
