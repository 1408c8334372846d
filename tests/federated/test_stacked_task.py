"""A stack is a list of tasks: ``StackedTask.split`` is a partition.

``fuse(tasks)`` wraps the scalar tasks themselves, so splitting a stack
across workers is slicing a list — and must behave like one (ROADMAP 4e):
for any generated cohort the chunks' members concatenate to the unsplit
members in order, none dropped or repeated; a chunk is named after its
members; the lifted basis is shared, not copied; and running the chunks,
running the whole stack and running every task on its own give the same
results bit for bit.  Chains (``ChainTask``) are one more kind under the
same property, over generated slice shapes and deletion sets.

Also here, because it is the same "one unit, one gate" point: an
unhashable model factory must not crash the vectorized path (the
per-factory architecture probe falls back to probing uncached), and the
async engine asks the gate the synchronous planner asks.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.data import FederatedDataset
from repro.federated import (
    AsyncRoundConfig,
    FedAvgAggregator,
    FederatedSimulation,
    SeededLatency,
)
from repro.federated.vectorized import arch_probe, fuse
from repro.nn.layers import Conv2d, Dropout, Flatten, Linear, Sequential
from repro.nn.models import MLP
from repro.runtime.codec import state_version
from repro.runtime.task import ChainStage, ChainTask, TrainTask, capture_rng
from repro.training import TrainConfig
from repro.unlearning import SisaConfig, SisaEnsemble

from ..conftest import generated, make_blob_federation, make_blobs


def factory():
    return MLP(16, 3, np.random.default_rng(42))


def other_state(seed):
    return MLP(16, 3, np.random.default_rng(seed)).state_dict()


@st.composite
def cohorts(draw):
    k = draw(st.integers(1, 12))
    batch_size = draw(st.sampled_from([4, 8]))
    top = draw(st.integers(1, 2)) * batch_size
    if draw(st.booleans()):
        sizes = [draw(st.integers(top - batch_size + 1, top))] * k
    else:  # ragged: equal step counts, unequal final batches
        sizes = [draw(st.integers(top - batch_size + 1, top)) for _ in range(k)]
    return {
        "sizes": sizes,
        "batch_size": batch_size,
        "n_chunks": draw(st.integers(-1, 2 * k)),
        # caller: the caller names the basis it broadcast (members hold
        #   equal-valued copies); stamped: one object, one version stamp;
        # own: every member its own state; fresh: no state at all.
        "basis": draw(st.sampled_from(["caller", "stamped", "own", "fresh"])),
        "codec": draw(st.sampled_from(["raw", "delta"])),
    }


def build(params):
    """(tasks, the basis to hand to ``fuse`` or None)."""
    sizes = params["sizes"]
    data = make_blobs(num_samples=sum(sizes), num_classes=3, shape=(1, 4, 4),
                      seed=3, separation=1.2, noise=1.0)
    config = TrainConfig(epochs=1, batch_size=params["batch_size"], learning_rate=0.1)
    shared = other_state(7)
    version = state_version(shared) if params["basis"] == "stamped" else None
    tasks, start = [], 0
    for index, size in enumerate(sizes):
        state = {
            "caller": {key: value.copy() for key, value in shared.items()},
            "stamped": shared,
            "own": other_state(100 + index),
            "fresh": None,
        }[params["basis"]]
        tasks.append(TrainTask(
            task_id=f"member-{index}",
            model_factory=factory,
            dataset=data,
            config=config,
            rng_state=capture_rng(np.random.default_rng(index)),
            model_state=state,
            indices=np.arange(start, start + size),
            codec=params["codec"],
            model_version=version,
        ))
        start += size
    return tasks, shared if params["basis"] == "caller" else None


def assert_same_bytes(state, other):
    assert state.keys() == other.keys()
    for key, value in other.items():
        assert state[key].dtype == value.dtype
        assert state[key].tobytes() == value.tobytes()


def assert_results_equal(got, want, bases):
    assert len(got) == len(want) == len(bases)
    for one, other, basis in zip(got, want, bases):
        assert one.task_id == other.task_id
        assert one.rng_state == other.rng_state
        assert one.history == other.history
        assert one.update_nbytes == other.update_nbytes
        assert one.residual is None and other.residual is None
        assert (one.state is None) == (other.state is None)
        assert (one.update is None) == (other.update is None)
        assert_same_bytes(one.resolve_state(basis), other.resolve_state(basis))


@generated(40)
@given(cohorts())
def test_split_is_a_partition_and_runs_like_its_members(params):
    tasks, caller_basis = build(params)
    assert TrainTask.stack_fallback_reason(
        tasks, arch_probe(factory).stackable
    ) in (None, "cohort has a single participant")
    stack = fuse(tasks, caller_basis)
    chunks = stack.split(params["n_chunks"])

    k = len(tasks)
    assert len(chunks) == max(1, min(params["n_chunks"], k))
    widths = [len(chunk.members) for chunk in chunks]
    assert max(widths) - min(widths) <= 1  # balanced across the workers
    flat = [member for chunk in chunks for member in chunk.members]
    assert len(flat) == k
    assert all(a is b for a, b in zip(flat, stack.members))
    assert stack.task_id == tuple(task.task_id for task in tasks)
    for chunk in chunks:
        assert chunk.task_id == tuple(member.task_id for member in chunk.members)
        assert chunk.model_state is stack.model_state
        assert chunk.model_version == stack.model_version

    # A lone member's own state is, trivially, the state every member loads.
    lifted = params["basis"] in ("caller", "stamped") or (
        params["basis"] == "own" and k == 1
    )
    assert (stack.model_state is not None) == lifted
    if lifted:  # the basis travels once: the members' copies are dropped
        assert all(member.model_state is None for member in stack.members)
        assert stack.model_version == tasks[0].model_version
    else:
        assert all(a is b for a, b in zip(stack.members, tasks))

    bases = [task.model_state for task in tasks]
    scalar = [task.run() for task in tasks]
    assert_results_equal(stack.run(), scalar, bases)
    assert_results_equal(
        [result for chunk in chunks for result in chunk.run()], scalar, bases
    )


# ----------------------------------------------------------------------
# A chain is one more stackable kind
# ----------------------------------------------------------------------
@st.composite
def chain_batches(draw):
    """K SISA-shaped chains: cumulative slice prefixes minus deletions."""
    k = draw(st.integers(1, 6))
    num_slices = draw(st.integers(1, 4))
    sizes = st.lists(st.integers(1, 10), min_size=num_slices, max_size=num_slices)
    # Mostly one slice shape for all chains (stages stay in step and
    # fuse); otherwise each chain its own (step counts diverge).
    shared = draw(sizes) if draw(st.integers(0, 3)) else None
    chains = []
    for _ in range(k):
        chains.append({
            "slice_sizes": shared or draw(sizes),
            "from_slice": draw(st.integers(0, num_slices - 1)),
            # none: nothing deleted (chains of equal sizes stay in step);
            # prefix: the first slices are gone entirely (checkpoint-only
            #   stages); all: a never-trained chain; some: a scattered
            #   deletion, so step counts diverge from the other chains'.
            "deleted": draw(st.sampled_from(["none", "prefix", "all", "some"])),
            "prefix": draw(st.integers(1, num_slices)),
            "seed": draw(st.integers(0, 2**16)),
        })
    return {
        "chains": chains,
        "batch_size": draw(st.sampled_from([4, 8])),
        "n_chunks": draw(st.integers(-1, 2 * k)),
    }


def build_chains(params, model_factory=factory):
    total = sum(sum(chain["slice_sizes"]) for chain in params["chains"])
    data = make_blobs(num_samples=total, num_classes=3, shape=(1, 4, 4),
                      seed=3, separation=1.2, noise=1.0)
    config = TrainConfig(epochs=1, batch_size=params["batch_size"], learning_rate=0.1)
    tasks, start = [], 0
    for index, chain in enumerate(params["chains"]):
        bounds = np.cumsum([start] + chain["slice_sizes"])
        slices = [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        start = int(bounds[-1])
        if chain["deleted"] == "none":
            deleted = np.array([], dtype=np.int64)
        elif chain["deleted"] == "all":
            deleted = np.concatenate(slices)
        elif chain["deleted"] == "prefix":
            deleted = np.concatenate(slices[: chain["prefix"]])
        else:
            everything = np.concatenate(slices)
            keep = np.random.default_rng(chain["seed"]).random(len(everything)) < 0.6
            deleted = everything[~keep]
        first = chain["from_slice"]
        stages = []
        for stage_id in range(first, len(slices)):
            prefix = np.concatenate(slices[: stage_id + 1])
            stages.append(ChainStage(stage_id, prefix[~np.isin(prefix, deleted)]))
        tasks.append(ChainTask(
            task_id=f"shard-{index}",
            model_factory=model_factory,
            dataset=data,
            stages=stages,
            config=config,
            rng_state=capture_rng(np.random.default_rng(index)),
            init_state=other_state(100 + index) if first > 0 else None,
        ))
    return tasks


def assert_chain_results_equal(got, want):
    assert len(got) == len(want)
    for one, other in zip(got, want):
        assert one.task_id == other.task_id
        assert one.steps == other.steps
        assert one.rng_state == other.rng_state
        assert one.histories == other.histories
        assert one.checkpoints.keys() == other.checkpoints.keys()
        assert_same_bytes(one.final_state, other.final_state)
        for stage, checkpoint in other.checkpoints.items():
            assert_same_bytes(one.checkpoints[stage], checkpoint)


@generated(40)
@given(chain_batches())
def test_chains_split_and_run_like_their_members(params):
    tasks = build_chains(params)
    k = len(tasks)
    assert ChainTask.stack_fallback_reason(
        tasks, arch_probe(factory).stackable
    ) == (None if k > 1 else "cohort has a single participant")
    stack = fuse(tasks)
    assert stack.model_state is None  # every chain resumes from its own state
    chunks = stack.split(params["n_chunks"])
    assert len(chunks) == max(1, min(params["n_chunks"], k))
    flat = [member for chunk in chunks for member in chunk.members]
    assert len(flat) == k and all(a is b for a, b in zip(flat, tasks))

    alone = [task.run() for task in tasks]
    assert all(result.fallback_reasons == [] for result in alone)
    for task, result in zip(tasks, alone):
        assert set(result.checkpoints) == {stage.stage_id for stage in task.stages}
        assert result.steps == sum(len(stage.indices) > 0 for stage in task.stages)
    whole = stack.run()
    assert_chain_results_equal(whole, alone)
    assert_chain_results_equal(
        [result for chunk in chunks for result in chunk.run()], alone
    )
    # A stage that ran member by member inside the stack says why.
    for result in whole:
        assert all(isinstance(reason, str) and reason for reason in result.fallback_reasons)
        assert len(set(result.fallback_reasons)) == len(result.fallback_reasons)


def test_chain_stage_failing_the_data_gate_names_its_reason():
    """Two chains whose step counts diverge at stage 1 train that stage
    one by one, and both results carry the gate's reason."""
    params = {
        "chains": [
            {"slice_sizes": [8, 9], "from_slice": 0, "deleted": "none",
             "prefix": 1, "seed": 0},
            {"slice_sizes": [8, 1], "from_slice": 0, "deleted": "none",
             "prefix": 1, "seed": 0},
        ],
        "batch_size": 8,
    }
    tasks = build_chains(params)
    results = fuse(tasks).run()
    assert_chain_results_equal(results, [task.run() for task in tasks])
    for result in results:
        assert len(result.fallback_reasons) == 1
        assert "step counts [2, 3]" in result.fallback_reasons[0]


def dropout_factory():
    rng = np.random.default_rng(42)
    return Sequential(
        Flatten(), Linear(16, 8, rng), Dropout(0.25, np.random.default_rng(7)),
        Linear(8, 3, rng),
    )


def test_dropout_chains_fall_back_with_the_recorded_reason():
    """Dropout stacks (a federated round may fuse it) but chains keep one
    dropout stream across stages, so they do not — and say so."""
    probe = arch_probe(dropout_factory)
    assert probe.stackable is None and "dropout" in probe.chain
    params = {
        "chains": [
            {"slice_sizes": [8, 8], "from_slice": 0, "deleted": "none",
             "prefix": 1, "seed": 0}
        ] * 2,
        "batch_size": 8,
    }
    reason = ChainTask.stack_fallback_reason(
        build_chains(params, dropout_factory), probe.stackable
    )
    assert reason == f"architecture not stackable: {probe.chain}"

    data = make_blobs(num_samples=120, num_classes=3, shape=(1, 4, 4), seed=1)
    config = SisaConfig(num_shards=3, num_slices=2, batch_size=10)
    ensembles = [
        SisaEnsemble(dropout_factory, data, config, seed=0, vectorize=flag).fit()
        for flag in (False, True)
    ]
    report = ensembles[1].vectorize_report()
    assert report["rounds_vectorized"] == 0 and report["rounds_fallback"] == 1
    assert report["fallback_reasons"] == {reason: 1}
    for a, b in zip(ensembles[0]._shards, ensembles[1]._shards):
        assert_states_equal(a.model.state_dict(), b.model.state_dict())
        assert a.rng_state == b.rng_state


# ----------------------------------------------------------------------
# One architecture probe per factory, hashable or not
# ----------------------------------------------------------------------
@dataclass
class UnhashableFactory:
    """A plain dataclass callable: ``eq=True`` and not frozen, so
    ``__hash__`` is None."""

    hidden: int = 16

    def __call__(self):
        return MLP(16, 3, np.random.default_rng(42), hidden=(self.hidden,))


def blob_sim(model_factory, vectorize, **kwargs):
    clients, test = make_blob_federation(4, per_client=24, test_size=48, seed=0)
    return FederatedSimulation(
        model_factory,
        FederatedDataset(client_datasets=clients, test_set=test),
        FedAvgAggregator(),
        TrainConfig(epochs=1, batch_size=8, learning_rate=0.1),
        vectorize=vectorize,
        **kwargs,
    )


def assert_states_equal(a, b):
    assert a.keys() == b.keys()
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


class TestUnhashableFactory:
    def test_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(UnhashableFactory())
        assert arch_probe(UnhashableFactory()) == (None, None, None)

    @pytest.mark.parametrize("async_mode", [False, True])
    def test_vectorized_round_runs_bit_identical(self, async_mode):
        kwargs = {}
        if async_mode:
            kwargs = {
                "async_config": AsyncRoundConfig(buffer_size=3, max_staleness=2),
                "latency_model": SeededLatency(low=0.5, high=1.5, seed=11),
            }
        reference = blob_sim(UnhashableFactory(), vectorize=False, **kwargs)
        reference.run_round(0)
        vectorized = blob_sim(UnhashableFactory(), vectorize=True, **kwargs)
        vectorized.run_round(0)
        assert_states_equal(
            vectorized.server.global_state, reference.server.global_state
        )
        report = vectorized.vectorize_report()
        assert report["rounds_vectorized"] == 1
        assert report["rounds_fallback"] == 0

    def test_sisa_chains_vectorize(self):
        data = make_blobs(num_samples=120, num_classes=3, shape=(1, 4, 4), seed=1)
        config = SisaConfig(num_shards=3, num_slices=2, batch_size=10)
        ensembles = [
            SisaEnsemble(UnhashableFactory(), data, config, seed=0, vectorize=flag).fit()
            for flag in (False, True)
        ]
        assert ensembles[1].vectorize_report()["rounds_vectorized"] == 1
        np.testing.assert_array_equal(
            ensembles[0].predict_proba(data.images),
            ensembles[1].predict_proba(data.images),
        )


def test_async_engine_asks_the_planners_gate():
    """A ragged cohort on a Conv2d architecture falls back with the
    ragged reason in async mode exactly as it does in sync mode."""
    def conv_factory():
        rng = np.random.default_rng(5)
        return Sequential(Conv2d(1, 3, 3, rng, padding=1), Flatten(), Linear(48, 3, rng))

    data = make_blobs(num_samples=110, num_classes=3, shape=(1, 4, 4), seed=0)
    bounds = np.cumsum([0, 24, 20, 18])
    fed = FederatedDataset(
        client_datasets=[
            data.subset(np.arange(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])
        ],
        test_set=data.subset(np.arange(62, 110)),
    )
    reasons = []
    for async_config in (None, AsyncRoundConfig(buffer_size=3)):
        sim = FederatedSimulation(
            conv_factory, fed, FedAvgAggregator(),
            TrainConfig(epochs=1, batch_size=8, learning_rate=0.1),
            async_config=async_config, vectorize=True,
        )
        sim.run_round(0)
        report = sim.vectorize_report()
        assert report["rounds_vectorized"] == 0
        reasons.append(list(report["fallback_reasons"]))
    assert reasons[0] == reasons[1]
    assert "ragged cohort" in reasons[0][0]
