"""``repro.federated`` — the federated-learning substrate.

Clients, server, aggregation strategies (FedAvg, the paper's
adaptive-weight extension, and FedBuff-style buffered staleness-weighted
folding) and the round simulator — synchronous barrier loop by default,
event-driven buffered-async engine (:mod:`.engine`) on opt-in — plus the
hardened-deployment substrates: per-round update retention for the
update-adjustment unlearning family (:mod:`.history`), client sampling, dropout injection and straggler accounting
(:mod:`.sampling`), communication/compute cost metering
(:mod:`.metering`), and client-vectorized execution — K homogeneous
clients stacked into one batched forward/backward per round-step
(:mod:`.vectorized`).
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
from .churn import ChurnEvent, ChurnSchedule, ChurnSimulation
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
from .metering import CostMeter, CostReport, MeteredSimulationProxy, state_bytes
from .sampling import (
    ClientSampler,
    DropoutInjector,
    FullParticipation,
    ParticipationLog,
    StragglerAwareSampler,
    UniformSampler,
    WeightedSampler,
)
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
    "CostMeter",
    "CostReport",
    "MeteredSimulationProxy",
    "state_bytes",
    "ClientSampler",
    "DropoutInjector",
    "FullParticipation",
    "ParticipationLog",
    "StragglerAwareSampler",
    "UniformSampler",
    "WeightedSampler",
    "AsyncRoundConfig",
    "BufferedAggregator",
    "BufferedRoundEngine",
    "BufferedUpdate",
    "ConstantLatency",
    "LatencyModel",
    "SeededLatency",
    "ChurnEvent",
    "ChurnSchedule",
    "ChurnSimulation",
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
