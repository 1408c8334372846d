"""Co-scheduling the unlearning service inside a live federation run.

:meth:`UnlearningService.co_schedule` rides the async engine's
pre-round hooks, so deletion windows are polled/submitted at the top of
every aggregation event and retrain chains share the round loop (and,
in production, the backend workers) with client training.  The
``deletion_sla`` experiment's ``contention`` knob turns the same
machinery into a measurement: time-to-forget metered under training
load.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.data import FederatedDataset
from repro.experiments.deletion_sla import _make_policy, run_deletion_sla
from repro.experiments.scale import get_scale
from repro.experiments.spec import ExperimentSpec, get_scenario
from repro.federated import (
    AsyncRoundConfig,
    FedAvgAggregator,
    FederatedSimulation,
    SeededLatency,
)
from repro.nn.models import RegistryModelFactory
from repro.training import TrainConfig
from repro.unlearning import (
    BatchSizePolicy,
    ImmediatePolicy,
    PeriodicPolicy,
    RequestState,
    SisaConfig,
    SisaEnsemble,
    UnlearningService,
)

from ..conftest import make_blob_federation, make_blobs

FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4)
SISA = SisaConfig(num_shards=3, num_slices=2, epochs_per_slice=1, batch_size=8)
DATASET = make_blobs(num_samples=72, num_classes=3, shape=(1, 4, 4), seed=0)


def make_service(tmp_path):
    ensemble = SisaEnsemble(FACTORY, DATASET, SISA, seed=5).fit()
    return UnlearningService(
        ensemble, directory=str(tmp_path), policy=ImmediatePolicy(), seed=5
    )


def make_async_sim(seed=3):
    clients, test = make_blob_federation(
        num_clients=4, per_client=24, test_size=24, seed=seed
    )
    fed = FederatedDataset(client_datasets=clients, test_set=test)
    return FederatedSimulation(
        FACTORY,
        fed,
        FedAvgAggregator(),
        TrainConfig(epochs=1, batch_size=8, learning_rate=0.1),
        seed=seed,
        async_config=AsyncRoundConfig(buffer_size=2),
        latency_model=SeededLatency(seed=seed + 1),
    )


class TestCoSchedule:
    def test_hook_registers_ticks_and_detaches(self, tmp_path):
        service = make_service(tmp_path)
        beats = []
        original_tick = service.tick
        service.tick = lambda round_index: beats.append(round_index) or original_tick(
            round_index
        )
        engine = SimpleNamespace(pre_round_hooks=[])
        hook = service.co_schedule(engine)
        assert engine.pre_round_hooks == [hook]
        hook(0)
        hook(1)
        assert beats == [0, 1]
        engine.pre_round_hooks.remove(hook)  # documented detach path
        assert engine.pre_round_hooks == []
        service.close()

    def test_service_certifies_during_live_async_rounds(self, tmp_path):
        service = make_service(tmp_path)
        sim = make_async_sim()
        engine = sim.engine()
        service.co_schedule(engine)

        request = service.submit(client_id=0, indices=[3, 40], round_index=0)
        before = sim.server.global_state
        for round_index in range(3):
            engine.run_round(round_index)
        service.drain(3)

        # The deletion certified *while* federation rounds were training.
        assert request.state is RequestState.CERTIFIED
        assert request.certified_round is not None
        # And the federation genuinely progressed around it.
        changed = any(
            not np.array_equal(before[key], sim.server.global_state[key])
            for key in before
        )
        assert changed
        service.close()

    def test_co_scheduled_run_matches_standalone_shard_states(self, tmp_path):
        # Co-scheduling changes *when* ticks happen, not what a certified
        # window computes: same request stream → bit-identical shards.
        standalone = make_service(tmp_path / "standalone")
        standalone.submit(client_id=0, indices=[3, 40], round_index=0)
        standalone.tick(0)
        standalone.drain(1)

        contended = make_service(tmp_path / "contended")
        engine = make_async_sim().engine()
        contended.co_schedule(engine)
        contended.submit(client_id=0, indices=[3, 40], round_index=0)
        engine.run_round(0)
        contended.drain(1)

        for mine, theirs in zip(
            contended.ensemble._shards, standalone.ensemble._shards
        ):
            for key, value in theirs.model.state_dict().items():
                np.testing.assert_array_equal(mine.model.state_dict()[key], value)
        standalone.close()
        contended.close()


class TestDeletionSlaContention:
    def test_contended_run_certifies_and_stamps_headline(self):
        exp = ExperimentSpec(
            experiment_id="test:deletion-sla-contention",
            title="time-to-forget under training load",
            kind="deletion_sla",
            scenario=get_scenario("clean_deletion"),
            params={
                "num_requests": 2,
                "rate": 1.0,
                "policies": ("immediate",),
                "contention": True,
            },
        )
        result = run_deletion_sla(exp, get_scale("smoke"), seed=0)
        (row,) = result.rows
        assert row["requests"] == 2  # everything submitted certified
        assert row["p50_rounds"] <= row["p95_rounds"]
        headline = result.runtime["deletion_sla"]
        assert headline["contention"] is True
        assert headline["policy"] == "immediate"

    def test_uncontended_headline_says_so(self):
        exp = ExperimentSpec(
            experiment_id="test:deletion-sla-idle",
            title="time-to-forget on an idle system",
            kind="deletion_sla",
            scenario=get_scenario("clean_deletion"),
            params={"num_requests": 2, "rate": 1.0, "policies": ("immediate",)},
        )
        result = run_deletion_sla(exp, get_scale("smoke"), seed=0)
        assert result.runtime["deletion_sla"]["contention"] is False

    def test_no_certified_request_reports_zeros(self):
        # SlaMeter.report() has no percentiles until a request certifies.
        exp = ExperimentSpec(
            experiment_id="test:deletion-sla-empty",
            title="time-to-forget with no requests",
            kind="deletion_sla",
            scenario=get_scenario("clean_deletion"),
            params={"num_requests": 0, "policies": ("immediate",)},
        )
        result = run_deletion_sla(exp, get_scale("smoke"), seed=0)
        (row,) = result.rows
        assert row["requests"] == 0
        assert row["p50_rounds"] == row["p95_rounds"] == 0.0
        assert row["max_rounds"] == 0
        assert row["chains_per_req"] == 0.0


class TestPolicySpecs:
    @pytest.mark.parametrize(
        "spec, kind, knob",
        [
            ("immediate", ImmediatePolicy, None),
            (" Immediate", ImmediatePolicy, None),
            ("batch", BatchSizePolicy, ("min_requests", 2)),
            ("batch:5", BatchSizePolicy, ("min_requests", 5)),
            ("periodic", PeriodicPolicy, ("every_rounds", 3)),
            ("periodic:4", PeriodicPolicy, ("every_rounds", 4)),
        ],
    )
    def test_spec_builds_its_policy(self, spec, kind, knob):
        policy = _make_policy(spec)
        assert type(policy) is kind
        if knob is not None:
            assert getattr(policy, knob[0]) == knob[1]

    @pytest.mark.parametrize("spec", ["eager", "batch:0", "periodic:x"])
    def test_bad_spec_is_a_value_error(self, spec):
        with pytest.raises(ValueError):
            _make_policy(spec)
