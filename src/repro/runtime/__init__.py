"""``repro.runtime`` — the pluggable execution runtime.

Every embarrassingly-parallel training site in the code base — per-client
local rounds in :class:`~repro.federated.simulation.FederatedSimulation`,
the per-client loops of the unlearning protocols, per-shard (re)training
in :class:`~repro.unlearning.sisa.SisaEnsemble` and
:class:`~repro.unlearning.sharding.ShardedClientTrainer` — builds pure
:mod:`~repro.runtime.task` work units and hands them to one
:class:`~repro.runtime.backends.Backend`, instead of looping inline.

Choosing a backend
------------------
All of those entry points accept a ``backend=`` argument taking ``None``
(serial, the default), a spec string, or a configured :class:`Backend`
instance::

    sim = FederatedSimulation(..., backend="pool")
    ensemble = SisaEnsemble(..., backend="pool:4")
    trainer = ShardedClientTrainer(..., backend=PoolBackend(max_workers=4))

Because each task carries its RNG (a stream position, or for a SISA
chain the seed that keys each stage's stream), results are
bit-identical across backends — parallelism is a pure wall-clock
optimisation.  Rules of thumb:

* ``serial`` (default) — debugging, tiny workloads, exact-legacy runs.
* ``pool`` — multi-core on one host.  Workers fork once and stay warm
  across every ``run_tasks`` call (federated rounds, SISA retrain
  chains, protocol rounds all reuse them); tasks are pickled over, so
  combine with shared-memory datasets
  (:meth:`~repro.data.dataset.ArrayDataset.share`) to make the per-task
  payload independent of data size.  A task that cannot be pickled (a
  closure model factory) runs inline in the caller.  The
  ``"pool"``/``"pool:N"`` specs resolve to one shared process-wide pool
  per worker count; construct :class:`~repro.runtime.pool.PoolBackend`
  directly for a private pool.  ``process`` (``processes``, ``fork``)
  is an alias of ``pool``: the fork-per-call backend it once named was
  superseded by the pool and removed.
* ``cluster`` — the pool's semantics over TCP (:mod:`repro.cluster`).
  ``"cluster:4"`` stands up a deterministic localhost coordinator +
  node-agent cluster, bit-identical to ``pool``; the same backend
  serves real multi-host runs with agents started via
  ``python -m repro.cluster.agent HOST:PORT``.

``pool`` and ``cluster`` are two transports (pipes, TCP) over one
dispatch core (:mod:`repro.runtime.dispatch`,
:mod:`repro.runtime.scheduler`): scheduling, retry budgets, the
worker store and byte accounting are the same code on both.

Specs may carry a worker count (``"pool:4"``, ``"cluster:2"``), and when
``backend=None`` the ``REPRO_BACKEND`` environment variable (same
syntax) is consulted before defaulting to serial — which is how
``python -m repro.experiments --backend pool --workers 8`` threads a
backend through every fan-out site of an experiment without any call
site knowing.  See :mod:`repro.runtime.backends` for details and
:mod:`repro.runtime.pool` for the pool's submit/drain API and
worker-death recovery semantics.

Determinism vs. the pre-runtime code: the federated paths (``run_round``
and the four unlearning protocols) already gave every client its own
child generator, so their serial results are bit-identical to the
historical inline loops.  SISA and the sharded client trainer previously
advanced *one* shared generator through shards sequentially — inherently
order-dependent and unparallelisable — and now give each shard (SISA:
each shard's slice) its own stream instead; their results remain
deterministic per seed but differ from the pre-runtime versions.
"""

from .backends import (
    BACKEND_ENV_VAR,
    Backend,
    BackendError,
    BackendLike,
    SerialBackend,
    get_backend,
    parse_backend_spec,
    usable_cpus,
)
from .codec import (
    EncodedUpdate,
    UpdateCodec,
    dense_nbytes,
    get_codec,
    state_version,
)
from .pool import PoolBackend, WorkerPool
from .wire import (
    WIRE_PROTOCOL_VERSION,
    TransportStats,
    recv_payload,
    send_payload,
)
from .task import (
    ChainResult,
    ChainStage,
    ChainTask,
    RngState,
    StackedTask,
    StateDict,
    TrainResult,
    TrainTask,
    capture_rng,
    restore_rng,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "WIRE_PROTOCOL_VERSION",
    "Backend",
    "BackendError",
    "BackendLike",
    "ChainResult",
    "ChainStage",
    "ChainTask",
    "EncodedUpdate",
    "PoolBackend",
    "RngState",
    "SerialBackend",
    "StackedTask",
    "StateDict",
    "TrainResult",
    "TrainTask",
    "TransportStats",
    "UpdateCodec",
    "WorkerPool",
    "capture_rng",
    "dense_nbytes",
    "get_backend",
    "get_codec",
    "parse_backend_spec",
    "recv_payload",
    "restore_rng",
    "send_payload",
    "state_version",
    "usable_cpus",
]
