"""FederatedSimulation round mechanics."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from types import SimpleNamespace

from repro.data import FederatedDataset
from repro.federated import (
    FederatedSimulation,
    FedAvgAggregator,
    RoundHistoryStore,
    RoundRecord,
    SimulationHistory,
    attach_history,
    make_aggregator,
)
from repro.nn.models import MLP
from repro.runtime import state_version
from repro.training import TrainConfig

from ..conftest import generated, make_blob_federation, make_blobs


def build_sim(num_clients=3, seed=0, epochs=2):
    clients, test = make_blob_federation(num_clients, per_client=30, test_size=60,
                                         seed=seed)
    fed = FederatedDataset(client_datasets=clients, test_set=test)
    factory = lambda: MLP(16, 3, np.random.default_rng(42))
    config = TrainConfig(epochs=epochs, batch_size=10, learning_rate=0.1)
    return FederatedSimulation(factory, fed, FedAvgAggregator(), config, seed=seed)


class TestRounds:
    def test_accuracy_improves_over_rounds(self):
        sim = build_sim()
        history = sim.run(5)
        assert history.final_accuracy > history.accuracies[0]
        assert history.final_accuracy > 0.5

    def test_round_records(self):
        sim = build_sim()
        history = sim.run(2)
        assert len(history) == 2
        assert history.rounds[0].round_index == 0
        assert 0.0 <= history.rounds[0].global_accuracy <= 1.0

    def test_client_metrics_recorded_on_request(self):
        sim = build_sim(num_clients=3)
        history = sim.run(1, record_client_metrics=True)
        assert len(history.rounds[0].client_accuracies) == 3

    def test_client_metrics_skipped_by_default(self):
        sim = build_sim()
        history = sim.run(1)
        assert history.rounds[0].client_accuracies == []

    def test_round_callback_invoked(self):
        sim = build_sim()
        seen = []
        sim.run(3, round_callback=lambda record: seen.append(record.round_index))
        assert seen == [0, 1, 2]

    def test_invalid_round_count(self):
        with pytest.raises(ValueError):
            build_sim().run(0)

    def test_global_model_detached_copy(self):
        sim = build_sim()
        sim.run(1)
        snapshot = sim.global_model()
        sim.run(1)
        after = sim.global_model()
        # at least one parameter should have moved
        diffs = [
            np.abs(pa.data - pb.data).max()
            for (_, pa), (_, pb) in zip(
                snapshot.named_parameters(), after.named_parameters()
            )
        ]
        assert max(diffs) > 0


class TestEveryClientTrains:
    def test_every_client_trains_every_round(self):
        sim = build_sim(num_clients=4, epochs=1)
        for round_index in range(2):
            before = [c.rng.bit_generator.state for c in sim.clients]
            sim.run_round(round_index)
            after = [c.rng.bit_generator.state for c in sim.clients]
            assert all(a != b for a, b in zip(after, before))

    def test_client_streams_are_the_seed_children(self):
        # Child i of a SeedSequence does not depend on how many children
        # are spawned, so a spare child never moves a client's stream.
        sim = build_sim(num_clients=3, seed=7)
        for count in (3, 4):
            children = np.random.SeedSequence(7).spawn(count)
            for client, child in zip(sim.clients, children):
                expected = np.random.default_rng(child).bit_generator.state
                assert client.rng.bit_generator.state == expected

    def test_history_records_every_client(self):
        sim = build_sim(num_clients=3, epochs=1)
        store = attach_history(sim, RoundHistoryStore())
        sim.run(2)
        assert [sorted(s.client_ids) for s in store.snapshots] == [[0, 1, 2]] * 2


class TestSynchronousSurface:
    """One round path: no async knobs, no engine, no async record fields."""

    def test_round_record_fields(self):
        assert [f.name for f in dataclasses.fields(RoundRecord)] == [
            "round_index", "global_loss", "global_accuracy",
            "client_accuracies", "bytes_down", "bytes_up",
        ]

    @pytest.mark.parametrize("kwarg", ["async_config", "latency_model"])
    def test_async_constructor_arguments_are_gone(self, kwarg):
        clients, test = make_blob_federation(2, per_client=10, test_size=10)
        fed = FederatedDataset(client_datasets=clients, test_set=test)
        with pytest.raises(TypeError, match=kwarg):
            FederatedSimulation(
                lambda: MLP(16, 3, np.random.default_rng(0)), fed,
                FedAvgAggregator(), TrainConfig(), **{kwarg: None},
            )

    @generated(10)
    @given(num_clients=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_a_round_is_the_fedavg_of_every_client_upload(self, num_clients, seed):
        sim = build_sim(num_clients=num_clients, seed=seed, epochs=1)
        sim.run_round(0)
        uploads = [client.upload() for client in sim.clients]
        total = sum(update.num_samples for update in uploads)
        for key, value in sim.server.global_state.items():
            expected = sum(
                (update.num_samples / total) * update.state[key] for update in uploads
            )
            np.testing.assert_allclose(value, expected, rtol=1e-12, atol=1e-12)


class TestSimulationHistory:
    def test_empty_history_has_no_final_accuracy(self):
        with pytest.raises(ValueError, match="no rounds"):
            SimulationHistory().final_accuracy


class TestBroadcastVersion:
    def test_skipped_where_no_transport_reads_it(self):
        assert build_sim().broadcast_version() is None

    def test_stamped_for_version_addressed_backends(self):
        sim = build_sim()
        pool_like = SimpleNamespace(pop_ticket_stats=None)
        assert sim.broadcast_version(pool_like) == state_version(
            sim.server.global_state
        )


class TestDeterminism:
    def test_same_seed_same_result(self):
        h1 = build_sim(seed=5).run(3)
        h2 = build_sim(seed=5).run(3)
        np.testing.assert_allclose(h1.accuracies, h2.accuracies)

    def test_different_seed_differs(self):
        h1 = build_sim(seed=5).run(3)
        h2 = build_sim(seed=6).run(3)
        assert h1.accuracies != h2.accuracies


class TestMakeAggregator:
    def test_fedavg(self):
        assert isinstance(make_aggregator("fedavg"), FedAvgAggregator)

    def test_fedavg_uniform(self):
        assert make_aggregator("fedavg_uniform").weighting == "uniform"

    def test_adaptive_requires_args(self):
        with pytest.raises(ValueError):
            make_aggregator("adaptive")

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_aggregator("krum")

    def test_empty_federation_rejected(self):
        fed = FederatedDataset(client_datasets=[], test_set=make_blobs())
        with pytest.raises(ValueError):
            FederatedSimulation(
                lambda: MLP(16, 3, np.random.default_rng(0)),
                fed, FedAvgAggregator(),
                TrainConfig(epochs=1),
                seed=0,
            )
