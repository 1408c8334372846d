"""Communication and compute cost accounting for FL / unlearning runs.

The paper's headline claim is *efficiency* — Goldfish unlearns in fewer
epochs than retraining. This module turns that into measurable systems
quantities so the efficiency experiments can report them directly:

* **bytes** moved server→client (broadcasts) and client→server (uploads),
  from the actual state-dict sizes (or compressed wire sizes);
* **samples processed** — the substrate-independent compute proxy
  (epochs × dataset size), which is what separates Goldfish's early-
  terminated distillation from B1's full retraining;
* **wall-clock** via perf_counter segments.

:class:`CostMeter` is a plain accumulator; :func:`state_bytes` prices a
model state the way the wire would see it (float32).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from .state_math import StateDict

_WIRE_FLOAT_BYTES = 4


def state_bytes(state: StateDict) -> int:
    """Wire size of a dense float32 encoding of ``state``."""
    return sum(value.size * _WIRE_FLOAT_BYTES for value in state.values())


@dataclass
class CostReport:
    """Frozen snapshot of a meter, for result tables."""

    upload_bytes: int
    download_bytes: int
    samples_processed: int
    local_epochs: int
    rounds: int
    wall_clock_seconds: float

    @property
    def total_bytes(self) -> int:
        return self.upload_bytes + self.download_bytes

    def as_dict(self) -> Dict[str, float]:
        return {
            "upload_bytes": self.upload_bytes,
            "download_bytes": self.download_bytes,
            "total_bytes": self.total_bytes,
            "samples_processed": self.samples_processed,
            "local_epochs": self.local_epochs,
            "rounds": self.rounds,
            "wall_clock_seconds": self.wall_clock_seconds,
        }


class CostMeter:
    """Accumulates communication, compute and time costs of one run."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.upload_bytes = 0
        self.download_bytes = 0
        self.samples_processed = 0
        self.local_epochs = 0
        self.rounds = 0
        self._wall_clock = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_upload(self, num_bytes: int) -> None:
        self._check_non_negative(num_bytes)
        self.upload_bytes += num_bytes

    def record_download(self, num_bytes: int) -> None:
        self._check_non_negative(num_bytes)
        self.download_bytes += num_bytes

    def record_broadcast(self, state: StateDict, num_clients: int) -> None:
        """A server→all-clients broadcast of the global state."""
        if num_clients < 0:
            raise ValueError(f"num_clients must be non-negative, got {num_clients}")
        self.download_bytes += state_bytes(state) * num_clients

    def record_training(self, num_samples: int, epochs: int) -> None:
        """Local training of ``epochs`` passes over ``num_samples``."""
        self._check_non_negative(num_samples)
        self._check_non_negative(epochs)
        self.samples_processed += num_samples * epochs
        self.local_epochs += epochs

    def record_round(self) -> None:
        self.rounds += 1

    @contextmanager
    def time_block(self) -> Iterator[None]:
        """Measure a wall-clock segment: ``with meter.time_block(): ...``"""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._wall_clock += time.perf_counter() - start

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def wall_clock_seconds(self) -> float:
        return self._wall_clock

    def report(self) -> CostReport:
        return CostReport(
            upload_bytes=self.upload_bytes,
            download_bytes=self.download_bytes,
            samples_processed=self.samples_processed,
            local_epochs=self.local_epochs,
            rounds=self.rounds,
            wall_clock_seconds=self._wall_clock,
        )

    def merge(self, other: "CostMeter") -> None:
        """Fold another meter's totals into this one."""
        self.upload_bytes += other.upload_bytes
        self.download_bytes += other.download_bytes
        self.samples_processed += other.samples_processed
        self.local_epochs += other.local_epochs
        self.rounds += other.rounds
        self._wall_clock += other._wall_clock

    @staticmethod
    def _check_non_negative(value: int) -> None:
        if value < 0:
            raise ValueError(f"cost increments must be non-negative, got {value}")


class MeteredSimulationProxy:
    """Wraps a :class:`~repro.federated.simulation.FederatedSimulation`
    so every round's traffic and local compute land in a meter.

    The meter reads what the round already produced.  Under a codec the
    wire no longer carries dense states, so the
    :class:`~repro.federated.simulation.RoundRecord` byte fields are
    charged as they stand; under ``raw`` every broadcast sent (one per
    dispatch on the event-driven engine, where stragglers dropped before
    dispatch received nothing) and every update taken in costs one dense
    float32 state.  Local training is charged over the round's
    ``last_participants`` — the sampled cohort of a synchronous round,
    the folded updates of an async one — never over clients that sat
    the round out.

    Usage::

        metered = MeteredSimulationProxy(simulation)
        metered.run_round(0)
        metered.meter.report()
    """

    def __init__(self, simulation, meter: Optional[CostMeter] = None) -> None:
        self.simulation = simulation
        self.meter = meter if meter is not None else CostMeter()

    def run_round(self, round_index: int, record_client_metrics: bool = False):
        sim = self.simulation
        engine = sim.engine() if sim.async_config is not None else None
        dispatched = engine.total_dispatched if engine is not None else 0
        with self.meter.time_block():
            record = sim.run_round(round_index, record_client_metrics)
            participants = sim.last_participants
            if sim.codec != "raw":
                self.meter.record_download(record.bytes_down)
                self.meter.record_upload(record.bytes_up)
            else:
                dense = state_bytes(sim.server.global_state)
                broadcasts = (
                    engine.total_dispatched - dispatched
                    if engine is not None
                    else len(participants)
                )
                self.meter.record_download(dense * broadcasts)
                self.meter.record_upload(dense * len(participants))
            for client in participants:
                self.meter.record_training(
                    client.active_size, sim.train_config.epochs
                )
            self.meter.record_round()
        return record

    def run(self, num_rounds: int):
        if num_rounds <= 0:
            raise ValueError(f"num_rounds must be positive, got {num_rounds}")
        records = []
        for round_index in range(num_rounds):
            records.append(self.run_round(round_index))
        return records
