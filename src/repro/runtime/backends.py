"""Execution backends: fan a list of independent tasks out across workers.

Every backend exposes one method, :meth:`Backend.run_tasks`, taking a
sequence of task objects (anything with a ``task_id`` attribute and a
zero-argument ``run()`` method — see :mod:`repro.runtime.task`) and
returning their results **in submission order**.  Because tasks are pure
(they carry their own model state, data and RNG position), the choice of
backend changes wall-clock time only, never the numbers:

``SerialBackend``
    Runs tasks one after another in the calling thread.  The default
    everywhere; preserves exact seed-for-seed behaviour and is the
    reference the parallel backends are tested against.

``PoolBackend`` (in :mod:`repro.runtime.pool`)
    A persistent worker pool: forks once, then serves every subsequent
    ``run_tasks`` call over pipes.  The multi-process choice on one
    host; pair with shared-memory datasets for large data.  Tasks are
    pickled to the workers; one that cannot be (a closure model
    factory) runs inline in the caller instead of failing.

``ClusterBackend`` (in :mod:`repro.cluster.backend`)
    The pool's interface over TCP sockets: a coordinator leases tasks
    to node agents that pull work when idle.  ``"cluster:4"`` stands up
    a deterministic localhost cluster (agents as local subprocesses);
    the same backend serves real multi-host runs with externally
    started agents.  Bit-identical to ``pool`` by construction.

Pick a backend by name with :func:`get_backend` (``"serial"``,
``"pool"``, ``"cluster"``) or pass a :class:`Backend`
instance.  ``"process"`` (also ``"processes"``, ``"fork"``) named a
fork-per-call backend the pool superseded and is kept as an alias of
``"pool"``, so existing specs and ``REPRO_BACKEND`` values still
resolve.  A spec may carry a worker count after a colon —
``get_backend("pool:4")``, ``get_backend("cluster:2")`` — plus
``key=value`` options after that: ``"pool:8:retries=2"`` sets the
pool's ``max_task_retries`` worker-death budget, and
``"cluster:4:retries=2:lease=60:capacity=2"`` additionally bounds how
long a silent node holds a task before it is resubmitted and how many
concurrent leases each agent may pipeline.  When the spec is
``None`` the ``REPRO_BACKEND`` environment variable (same syntax) is
consulted before falling back to serial, so scripts and the experiment
CLI can size pools without constructing ``Backend`` objects.  ``"pool"``
and ``"cluster"`` specs resolve to one shared process-wide instance per
configuration, so every call site naming the same spec reuses the same
warm workers.
"""

from __future__ import annotations

import abc
import os
from typing import Any, List, Optional, Sequence, Union


class BackendError(RuntimeError):
    """A task failed (or was lost) while running under a backend."""


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


class Backend(abc.ABC):
    """Uniform fan-out interface over independent tasks."""

    name: str = "abstract"

    @abc.abstractmethod
    def run_tasks(self, tasks: Sequence[Any]) -> List[Any]:
        """Run every task and return results in submission order."""

    def worker_count(self) -> int:
        """How many tasks this backend genuinely runs at once.

        Callers that can shard one large work unit into independent
        pieces (e.g. :meth:`~repro.runtime.task.StackedTask.split`, the
        stack-chunk sharding of a vectorized cohort) size the shard
        count from this.  Serial-equivalent backends report 1.
        """
        return 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(Backend):
    """Run tasks one by one in the calling thread (the default)."""

    name = "serial"

    def run_tasks(self, tasks: Sequence[Any]) -> List[Any]:
        return [task.run() for task in tasks]


def _make_serial(max_workers: Optional[int] = None) -> Backend:
    if max_workers is not None:
        raise ValueError("the serial backend does not take a worker count")
    return SerialBackend()


def _make_pool(
    max_workers: Optional[int] = None, retries: Optional[int] = None
) -> Backend:
    """Shared pools: one warm :class:`PoolBackend` per configuration.

    ``backend="pool"`` at several call sites (a simulation, an ensemble,
    a protocol) must mean *the same* workers, or the pool's whole point —
    no per-call fork — is lost.  The cache key includes the retry budget:
    ``pool:8`` and ``pool:8:retries=2`` are different pools (sharing one
    would silently change the death budget under earlier call sites).
    Instances constructed directly are not cached; pass the instance
    around for private pools.
    """
    from .pool import PoolBackend

    key = (max_workers, retries)
    if key not in _POOLS:
        kwargs = {} if retries is None else {"max_task_retries": retries}
        _POOLS[key] = PoolBackend(max_workers=max_workers, **kwargs)
    return _POOLS[key]


_POOLS: dict = {}


def _make_cluster(
    max_workers: Optional[int] = None,
    retries: Optional[int] = None,
    lease: Optional[int] = None,
    capacity: Optional[int] = None,
    chaos: Optional[str] = None,
) -> Backend:
    """Shared clusters: one localhost cluster per spec configuration.

    Same sharing contract as :func:`_make_pool` — every call site naming
    ``cluster:4`` reuses one warm coordinator + agent set; the cache key
    includes the retry budget and lease timeout so differently-tuned
    specs get separate clusters.  Imported lazily: the cluster package
    depends on this module, not the other way round.
    """
    from ..cluster.backend import ClusterBackend

    key = (max_workers, retries, lease, capacity, chaos)
    if key not in _CLUSTERS:
        kwargs: dict = {}
        if retries is not None:
            kwargs["max_task_retries"] = retries
        if lease is not None:
            kwargs["lease_timeout"] = float(lease)
        if capacity is not None:
            kwargs["capacity"] = capacity
        if chaos is not None:
            kwargs["chaos"] = chaos
        _CLUSTERS[key] = ClusterBackend(max_workers=max_workers, **kwargs)
    return _CLUSTERS[key]


_CLUSTERS: dict = {}

_BACKENDS = {
    "serial": _make_serial,
    "pool": _make_pool,
    "cluster": _make_cluster,
}

#: Other spellings a spec may use, resolved by :func:`parse_backend_spec`.
#: The ``process`` family named the fork-per-call backend the pool
#: replaced; it now means the shared pool.
_ALIASES = {
    "process": "pool",
    "processes": "pool",
    "fork": "pool",
}

#: Environment variable consulted by :func:`get_backend` when no spec is
#: given — lets scripts and CI pick e.g. ``pool:8`` for a whole run
#: without touching any call site.
BACKEND_ENV_VAR = "REPRO_BACKEND"

BackendLike = Union[None, str, Backend]


#: Options a backend spec may carry after the worker count, per backend
#: name.  ``retries`` → the per-task worker/node-death budget
#: (``max_task_retries``); ``lease`` → the cluster's task-lease timeout
#: in seconds before a silent node's work is resubmitted; ``capacity``
#: → concurrent leases each cluster agent may hold (pipelined grants);
#: ``chaos`` → a seeded fault schedule (``repro.cluster.chaos`` grammar,
#: e.g. ``chaos=seed=7,drop=0.05``) armed on every agent connection.
_SPEC_OPTIONS = {
    "pool": {"retries"},
    "cluster": {"retries", "lease", "capacity", "chaos"},
}

#: Spec options whose values stay strings (everything else parses as int).
_STRING_OPTIONS = {"chaos"}


def parse_backend_spec(spec: str) -> tuple:
    """Split ``"name"`` / ``"name:N"`` / ``"name:N:key=value"`` into
    ``(name, workers-or-None, options-dict)``.

    ``pool:8:retries=2`` → ``("pool", 8, {"retries": 2})``: eight warm
    workers, each task surviving up to two worker deaths before the batch
    fails.  Alias spellings come back under their canonical name
    (``process:4`` → ``("pool", 4, {})``).  Validates eagerly — unknown
    names, malformed counts, ``"serial:N"`` and options the named
    backend does not support all raise here, so callers (the experiment
    CLI in particular) can reject a typo before any expensive setup runs.
    """
    segments = spec.split(":")
    name = segments[0].strip().lower()
    name = _ALIASES.get(name, name)
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown backend {spec!r}; available: "
            f"{sorted([*_BACKENDS, *_ALIASES])}, e.g. 'pool:4'"
        )
    workers: Optional[int] = None
    options: dict = {}
    allowed = _SPEC_OPTIONS.get(name, set())
    for segment in segments[1:]:
        segment = segment.strip()
        if "=" in segment:
            key, _, value = segment.partition("=")
            key = key.strip().lower()
            if key not in allowed:
                raise ValueError(
                    f"backend {name!r} does not support option {key!r} "
                    f"in spec {spec!r}; supported: {sorted(allowed) or 'none'}"
                )
            if key in options:
                raise ValueError(f"duplicate option {key!r} in spec {spec!r}")
            if key in _STRING_OPTIONS:
                if key == "chaos":
                    # Validate the schedule grammar eagerly, like every
                    # other spec error: a typo'd plan fails at parse time,
                    # not after the coordinator is already up.
                    from ..cluster.chaos import FaultPlan

                    try:
                        FaultPlan.parse(value)
                    except ValueError as exc:
                        raise ValueError(
                            f"bad chaos schedule in backend spec {spec!r}: {exc}"
                        ) from None
                options[key] = value
                continue
            try:
                options[key] = int(value)
            except ValueError:
                raise ValueError(
                    f"bad value for option {key!r} in backend spec "
                    f"{spec!r}; expected an integer"
                ) from None
            if key == "retries" and options[key] < 0:
                raise ValueError(
                    f"retries must be >= 0, got {options[key]}"
                )
            if key == "lease" and options[key] < 1:
                raise ValueError(
                    f"lease must be >= 1 (seconds), got {options[key]}"
                )
            if key == "capacity" and options[key] < 1:
                raise ValueError(
                    f"capacity must be >= 1, got {options[key]}"
                )
        else:
            if workers is not None:
                raise ValueError(
                    f"backend spec {spec!r} names two worker counts"
                )
            try:
                workers = int(segment)
            except ValueError:
                raise ValueError(
                    f"bad worker count in backend spec {spec!r}; "
                    "expected e.g. 'pool:8'"
                ) from None
            if workers < 1:
                raise ValueError(f"worker count must be >= 1, got {workers}")
            if name == "serial":
                raise ValueError(
                    "the serial backend does not take a worker count"
                )
    return name, workers, options


def get_backend(spec: BackendLike = None) -> Backend:
    """Resolve ``None`` / a spec string / an instance to a :class:`Backend`.

    ``None`` falls back to the ``REPRO_BACKEND`` environment variable if
    set, else the serial default (exact legacy behaviour).  Strings pick
    a stock backend by name with an optional worker count and options —
    ``"pool:8"``, ``"pool:4:retries=2"``.  Instances pass through
    untouched.
    """
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR) or None
        if spec is None:
            return SerialBackend()
    if isinstance(spec, Backend):
        return spec
    if isinstance(spec, str):
        name, workers, options = parse_backend_spec(spec)  # validates
        return _BACKENDS[name](workers, **options)
    raise TypeError(
        f"backend must be None, a name, or a Backend instance, got {type(spec)!r}"
    )
