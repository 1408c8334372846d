"""``repro.federated`` — the federated-learning substrate.

Clients, server, aggregation strategies (FedAvg, the paper's
adaptive-weight extension, and FedBuff-style buffered staleness-weighted
folding) and the round simulator — synchronous barrier loop by default,
event-driven buffered-async engine (:mod:`.engine`) on opt-in — plus the
hardened-deployment substrates: per-round update retention for the
update-adjustment unlearning family (:mod:`.history`), the float32 wire
price of a model state (:mod:`.metering`), and client-vectorized
execution — K homogeneous clients stacked into one batched
forward/backward per round-step (:mod:`.vectorized`).
"""

from . import state_math
from .aggregation import (
    AdaptiveWeightAggregator,
    Aggregator,
    BufferedAggregator,
    BufferedUpdate,
    ClientUpdate,
    FedAvgAggregator,
)
from .client import Client
from .engine import (
    AsyncRoundConfig,
    BufferedRoundEngine,
    ConstantLatency,
    LatencyModel,
    SeededLatency,
)
from .history import (
    RoundHistoryStore,
    RoundSnapshot,
    StorageReport,
    attach_history,
)
from .metering import state_bytes
from .server import Server
from .simulation import (
    FederatedSimulation,
    RoundRecord,
    SimulationHistory,
    make_aggregator,
)
from .vectorized import VectorizedCohort, fuse

__all__ = [
    "state_math",
    "Client",
    "RoundHistoryStore",
    "RoundSnapshot",
    "StorageReport",
    "attach_history",
    "state_bytes",
    "AsyncRoundConfig",
    "BufferedAggregator",
    "BufferedRoundEngine",
    "BufferedUpdate",
    "ConstantLatency",
    "LatencyModel",
    "SeededLatency",
    "Server",
    "ClientUpdate",
    "Aggregator",
    "FedAvgAggregator",
    "AdaptiveWeightAggregator",
    "FederatedSimulation",
    "SimulationHistory",
    "RoundRecord",
    "make_aggregator",
    "VectorizedCohort",
    "fuse",
]
