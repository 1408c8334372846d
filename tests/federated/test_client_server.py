"""Client deletion semantics and server broadcast/aggregate behaviour."""

import numpy as np
import pytest

from repro.federated import Client, FedAvgAggregator, Server
from repro.nn.models import MLP
from repro.training import TrainConfig

from ..conftest import make_blobs


def make_client(client_id=0, num_samples=30, seed=0):
    return Client(
        client_id=client_id,
        dataset=make_blobs(num_samples=num_samples, num_classes=3, shape=(1, 4, 4), seed=seed),
        model=MLP(16, 3, np.random.default_rng(seed)),
        rng=np.random.default_rng(seed + 1),
    )


class TestClientBasics:
    def test_empty_dataset_rejected(self):
        from repro.data import ArrayDataset
        with pytest.raises(ValueError):
            Client(0, ArrayDataset(np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=int), 3),
                   MLP(16, 3, np.random.default_rng(0)), np.random.default_rng(0))

    def test_receive_global_installs_weights(self):
        client = make_client()
        other = MLP(16, 3, np.random.default_rng(77))
        client.receive_global(other.state_dict())
        for (_, pa), (_, pb) in zip(
            client.model.named_parameters(), other.named_parameters()
        ):
            np.testing.assert_allclose(pa.data, pb.data)

    def test_upload_reports_active_size(self):
        client = make_client(num_samples=30)
        assert client.upload().num_samples == 30
        client.request_deletion(np.arange(5))
        assert client.upload().num_samples == 25

    def test_local_train_reduces_loss(self):
        client = make_client()
        config = TrainConfig(epochs=5, batch_size=10, learning_rate=0.2)
        history = client.local_train(config)
        assert history.losses[-1] < history.losses[0]


class TestDeletionRequests:
    def test_forget_and_retain_split(self):
        client = make_client(num_samples=20)
        client.request_deletion(np.array([0, 1, 2]))
        assert client.has_pending_deletion
        assert len(client.forget_indices) == 3
        assert len(client.retain_indices) == 17
        assert len(client.active_dataset) == 17

    def test_no_pending_deletion_defaults(self):
        client = make_client()
        assert not client.has_pending_deletion
        assert client.forget_indices is None
        assert len(client.active_dataset) == len(client.dataset)

    def test_finalize_drops_data(self):
        client = make_client(num_samples=20)
        client.request_deletion(np.array([0, 1]))
        client.finalize_deletion()
        assert len(client.dataset) == 18
        assert not client.has_pending_deletion

    def test_finalize_without_pending_is_noop(self):
        client = make_client(num_samples=20)
        client.finalize_deletion()
        assert len(client.dataset) == 20

    def test_duplicate_indices_deduplicated(self):
        client = make_client(num_samples=20)
        client.request_deletion(np.array([3, 3, 4]))
        assert len(client.forget_indices) == 2

    def test_validation(self):
        client = make_client(num_samples=10)
        with pytest.raises(ValueError):
            client.request_deletion(np.array([], dtype=int))
        with pytest.raises(ValueError):
            client.request_deletion(np.array([100]))
        with pytest.raises(ValueError):
            client.request_deletion(np.arange(10))  # entire dataset

    @pytest.mark.parametrize(
        "indices",
        [[2.5, 4.2], [True, False, True], [1.0, np.nan], [np.inf], ["3"]],
        ids=["fractional", "boolean-mask", "nan", "inf", "string"],
    )
    def test_indices_are_whole_numbers_never_truncated(self, indices):
        # Truncation used to file samples the caller never named: [2.5, 4.2]
        # as [2, 4], the mask [True, False, True] as samples [0, 1].
        client = make_client(num_samples=10)
        with pytest.raises(ValueError):
            client.request_deletion(indices)
        assert not client.has_pending_deletion


class TestServer:
    def test_initial_state_remembered(self):
        model = MLP(16, 3, np.random.default_rng(0))
        server = Server(model, FedAvgAggregator())
        initial = server.initial_state
        for p in model.parameters():
            p.data += 5.0
        server.reinitialize()
        for name, p in model.named_parameters():
            np.testing.assert_allclose(p.data, initial[name])

    def test_initial_state_is_copied(self):
        model = MLP(16, 3, np.random.default_rng(0))
        server = Server(model, FedAvgAggregator())
        state = server.initial_state
        state["net.layer0.weight"][:] = 0
        assert not np.allclose(server.initial_state["net.layer0.weight"], 0)

    def test_broadcast_synchronises_clients(self):
        model = MLP(16, 3, np.random.default_rng(0))
        server = Server(model, FedAvgAggregator())
        clients = [make_client(i, seed=i) for i in range(3)]
        server.broadcast(clients)
        reference = model.state_dict()
        for client in clients:
            for name, p in client.model.named_parameters():
                np.testing.assert_allclose(p.data, reference[name])

    def test_aggregate_installs_result(self):
        model = MLP(16, 3, np.random.default_rng(0))
        server = Server(model, FedAvgAggregator())
        clients = [make_client(i, seed=i) for i in range(2)]
        updates = [c.upload() for c in clients]
        new_state = server.aggregate(updates)
        for name, p in model.named_parameters():
            np.testing.assert_allclose(p.data, new_state[name])

    def test_evaluate_without_test_set_raises(self):
        server = Server(MLP(16, 3, np.random.default_rng(0)), FedAvgAggregator())
        with pytest.raises(ValueError):
            server.evaluate_global()
