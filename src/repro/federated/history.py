"""Server-side round history for update-adjustment unlearning.

The model-update-adjustment family of federated unlearning methods
(FedEraser, Liu et al. [24]; FedRecovery, Zhang et al. [23]) avoids full
retraining by *replaying* or *subtracting* the contributions a client made
over past rounds. That requires the server to retain per-round, per-client
model updates — exactly the "retention of additional information" cost the
paper's Related Work section attributes to this family.

:class:`RoundHistoryStore` is that retention substrate. It records, per
round, the global state the round started from and every client's uploaded
state, with an exact storage-cost accounting so experiments can report the
memory price of update adjustment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from . import state_math
from .aggregation import ClientUpdate
from .state_math import StateDict


def _copy_state(state: StateDict) -> StateDict:
    return {key: value.copy() for key, value in state.items()}


@dataclass
class RoundSnapshot:
    """Everything the server retained about one FL round."""

    round_index: int
    global_before: StateDict
    client_states: Dict[int, StateDict]
    client_sizes: Dict[int, int]
    global_after: Optional[StateDict] = None

    @property
    def client_ids(self) -> List[int]:
        return sorted(self.client_states)

    def client_update(self, client_id: int) -> StateDict:
        """The client's *delta* for this round: uploaded − broadcast."""
        if client_id not in self.client_states:
            raise KeyError(
                f"client {client_id} did not participate in round "
                f"{self.round_index}; participants: {self.client_ids}"
            )
        return state_math.subtract(self.client_states[client_id], self.global_before)


@dataclass
class StorageReport:
    """Byte-level accounting of what the store retains."""

    num_rounds_stored: int
    num_client_states: int
    bytes_client_states: int
    bytes_global_states: int

    @property
    def total_bytes(self) -> int:
        return self.bytes_client_states + self.bytes_global_states


class RoundHistoryStore:
    """Retains every round's client uploads for later unlearning."""

    def __init__(self) -> None:
        self._snapshots: List[RoundSnapshot] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_round(
        self,
        round_index: int,
        global_before: StateDict,
        updates: Sequence[ClientUpdate],
        global_after: Optional[StateDict] = None,
    ) -> None:
        """Record one round.

        Raises if a round with a smaller-or-equal index was already
        recorded (history must be strictly ordered) or if two updates
        share a client id.
        """
        if self._snapshots and round_index <= self._snapshots[-1].round_index:
            raise ValueError(
                f"round {round_index} recorded out of order; last stored "
                f"round is {self._snapshots[-1].round_index}"
            )
        if not updates:
            raise ValueError("cannot record a round with no client updates")
        client_states: Dict[int, StateDict] = {}
        client_sizes: Dict[int, int] = {}
        for update in updates:
            if update.client_id in client_states:
                raise ValueError(f"duplicate client id {update.client_id} in round")
            client_states[update.client_id] = _copy_state(update.state)
            client_sizes[update.client_id] = update.num_samples
        self._snapshots.append(
            RoundSnapshot(
                round_index=round_index,
                global_before=_copy_state(global_before),
                client_states=client_states,
                client_sizes=client_sizes,
                global_after=None if global_after is None else _copy_state(global_after),
            )
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._snapshots)

    @property
    def snapshots(self) -> List[RoundSnapshot]:
        return list(self._snapshots)

    @property
    def stored_round_indices(self) -> List[int]:
        return [snapshot.round_index for snapshot in self._snapshots]

    def snapshot_at(self, round_index: int) -> RoundSnapshot:
        for snapshot in self._snapshots:
            if snapshot.round_index == round_index:
                return snapshot
        raise KeyError(
            f"round {round_index} not stored; "
            f"stored rounds: {self.stored_round_indices}"
        )

    def rounds_with_client(self, client_id: int) -> List[RoundSnapshot]:
        """Every stored round the client participated in."""
        return [s for s in self._snapshots if client_id in s.client_states]

    def storage_report(self) -> StorageReport:
        """Exact byte cost of the retained history."""
        bytes_clients = 0
        bytes_globals = 0
        num_states = 0
        for snapshot in self._snapshots:
            for state in snapshot.client_states.values():
                num_states += 1
                bytes_clients += sum(array.nbytes for array in state.values())
            bytes_globals += sum(
                array.nbytes for array in snapshot.global_before.values()
            )
            if snapshot.global_after is not None:
                bytes_globals += sum(
                    array.nbytes for array in snapshot.global_after.values()
                )
        return StorageReport(
            num_rounds_stored=len(self._snapshots),
            num_client_states=num_states,
            bytes_client_states=bytes_clients,
            bytes_global_states=bytes_globals,
        )

    def clear(self) -> None:
        """Drop all retained history (e.g. after unlearning completes)."""
        self._snapshots.clear()


def attach_history(simulation, store: RoundHistoryStore):
    """Record every future round of ``simulation`` into ``store``.

    It patches a bound ``run_round`` that records every round, keeping
    :class:`~repro.federated.simulation.FederatedSimulation` itself free of
    retention concerns (most FL deployments must *not* retain updates).
    Returns the store for chaining. The patch captures the global state
    before aggregation and the upload of every client, since every
    client trains and is aggregated every round.
    """
    original_run_round = simulation.run_round

    def run_round_with_history(round_index: int, record_client_metrics: bool = False):
        global_before = simulation.server.global_state
        record = original_run_round(round_index, record_client_metrics)
        store.record_round(
            round_index,
            global_before,
            [client.upload() for client in simulation.clients],
            global_after=simulation.server.global_state,
        )
        return record

    simulation.run_round = run_round_with_history
    return store
