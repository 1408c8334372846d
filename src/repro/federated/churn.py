"""Client churn: dynamic join/leave during federated training.

The paper's discussion names this the open challenge: "In the dynamic
landscape of federated unlearning, where clients may join or leave ... the
federated unlearning scheme must exhibit both flexibility and resilience."
This module implements the substrate for that direction:

* a :class:`ChurnSchedule` mapping rounds to join/leave events;
* :class:`ChurnSimulation`, a participation policy
  (:class:`~repro.federated.sampling.ClientSampler`) that activates and
  deactivates clients per the schedule, so a churned run is an ordinary
  :class:`~repro.federated.simulation.FederatedSimulation` run — same
  backend, codec, transport accounting and vectorizer — and a leaving
  client's departure is treated as an implicit deletion request for its
  *entire* local dataset (the strictest reading of the right to be
  forgotten).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from .sampling import ClientSampler
from .simulation import FederatedSimulation, SimulationHistory


@dataclass(frozen=True)
class ChurnEvent:
    """A client joining or leaving at the start of a round."""

    round_index: int
    client_id: int
    action: str  # "join" | "leave"

    def __post_init__(self) -> None:
        if self.action not in ("join", "leave"):
            raise ValueError(f"action must be 'join' or 'leave', got {self.action!r}")
        if self.round_index < 0:
            raise ValueError("round_index must be non-negative")


@dataclass
class ChurnSchedule:
    """Ordered set of churn events plus the initially active clients."""

    initial_clients: Sequence[int]
    events: List[ChurnEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.initial_clients:
            raise ValueError("at least one client must start active")
        self.initial_clients = tuple(self.initial_clients)

    def add(self, round_index: int, client_id: int, action: str) -> "ChurnSchedule":
        self.events.append(ChurnEvent(round_index, client_id, action))
        return self

    def events_at(self, round_index: int) -> List[ChurnEvent]:
        return [e for e in self.events if e.round_index == round_index]


class ChurnSimulation(ClientSampler):
    """Drives an FL simulation under a churn schedule.

    Joining clients receive the current global model; leaving clients are
    dropped from aggregation immediately.  As a sampler, each round's
    :meth:`sample` applies that round's join/leave events and returns the
    active clients; :meth:`run` installs it as ``sim.sampler`` for the
    duration of the run.
    """

    def __init__(self, sim: FederatedSimulation, schedule: ChurnSchedule) -> None:
        known = {client.client_id for client in sim.clients}
        referenced = set(schedule.initial_clients) | {
            e.client_id for e in schedule.events
        }
        unknown = referenced - known
        if unknown:
            raise ValueError(f"schedule references unknown clients: {sorted(unknown)}")
        self.sim = sim
        self.schedule = schedule
        self.active: Set[int] = set(schedule.initial_clients)
        self.departed: Set[int] = set()
        self.activity_log: Dict[int, List[int]] = {}

    def sample(self, client_ids, round_index, rng) -> List[int]:
        for event in self.schedule.events_at(round_index):
            if event.action == "join":
                if event.client_id in self.departed:
                    raise ValueError(
                        f"client {event.client_id} cannot rejoin after leaving "
                        "(its data was deleted)"
                    )
                self.active.add(event.client_id)
            else:
                self.active.discard(event.client_id)
                self.departed.add(event.client_id)
        if not self.active:
            raise RuntimeError(f"no active clients at round {round_index}")
        self.activity_log[round_index] = sorted(self.active)
        return [client_id for client_id in client_ids if client_id in self.active]

    def run(self, num_rounds: int) -> SimulationHistory:
        """Run ``num_rounds`` rounds honouring the schedule."""
        previous = self.sim.sampler
        self.sim.sampler = self
        try:
            return self.sim.run(num_rounds)
        finally:
            self.sim.sampler = previous
