"""Round-history retention for update-adjustment unlearning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated import (
    ClientUpdate,
    FedAvgAggregator,
    FederatedSimulation,
    RoundHistoryStore,
    attach_history,
    make_aggregator,
)
from repro.data.dataset import FederatedDataset
from repro.nn.models import MLP
from repro.training.config import TrainConfig

from ..conftest import make_blob_federation


def make_update(seed: int, client_id: int, num_samples: int = 10) -> ClientUpdate:
    rng = np.random.default_rng(seed)
    return ClientUpdate(
        state={"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(2,))},
        num_samples=num_samples,
        client_id=client_id,
    )


def global_state(seed: int = 99):
    rng = np.random.default_rng(seed)
    return {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(2,))}


class TestRecording:
    def test_stores_round_and_copies_state(self):
        store = RoundHistoryStore()
        update = make_update(0, client_id=0)
        before = global_state()
        assert store.record_round(0, before, [update])
        # Mutating the caller's arrays must not corrupt the snapshot.
        update.state["w"] += 100.0
        before["w"] += 100.0
        snapshot = store.snapshot_at(0)
        assert abs(snapshot.client_states[0]["w"]).max() < 50.0
        assert abs(snapshot.global_before["w"]).max() < 50.0

    def test_out_of_order_rejected(self):
        store = RoundHistoryStore()
        store.record_round(3, global_state(), [make_update(0, 0)])
        with pytest.raises(ValueError, match="out of order"):
            store.record_round(3, global_state(), [make_update(0, 0)])
        with pytest.raises(ValueError, match="out of order"):
            store.record_round(1, global_state(), [make_update(0, 0)])

    def test_duplicate_client_rejected(self):
        store = RoundHistoryStore()
        with pytest.raises(ValueError, match="duplicate client"):
            store.record_round(
                0, global_state(), [make_update(0, 7), make_update(1, 7)]
            )

    def test_empty_round_rejected(self):
        store = RoundHistoryStore()
        with pytest.raises(ValueError, match="no client updates"):
            store.record_round(0, global_state(), [])

    def test_retention_interval_skips_rounds(self):
        store = RoundHistoryStore(retention_interval=3)
        for round_index in range(7):
            stored = store.record_round(
                round_index, global_state(), [make_update(round_index, 0)]
            )
            assert stored == (round_index % 3 == 0)
        assert store.stored_round_indices == [0, 3, 6]

    def test_retention_interval_validation(self):
        with pytest.raises(ValueError):
            RoundHistoryStore(retention_interval=0)


class TestQueries:
    def _store_with_rounds(self):
        store = RoundHistoryStore()
        store.record_round(
            0, global_state(1), [make_update(0, 0), make_update(1, 1)]
        )
        store.record_round(1, global_state(2), [make_update(2, 0)])
        return store

    def test_client_update_is_delta(self):
        store = RoundHistoryStore()
        before = global_state()
        update = make_update(5, client_id=2)
        store.record_round(0, before, [update])
        delta = store.snapshot_at(0).client_update(2)
        np.testing.assert_allclose(delta["w"], update.state["w"] - before["w"])

    def test_missing_round_and_client_raise(self):
        store = self._store_with_rounds()
        with pytest.raises(KeyError):
            store.snapshot_at(42)
        with pytest.raises(KeyError):
            store.snapshot_at(1).client_update(1)

    def test_rounds_with_client(self):
        store = self._store_with_rounds()
        assert [s.round_index for s in store.rounds_with_client(0)] == [0, 1]
        assert [s.round_index for s in store.rounds_with_client(1)] == [0]
        assert store.rounds_with_client(9) == []

    def test_storage_report_counts_bytes(self):
        store = self._store_with_rounds()
        report = store.storage_report()
        assert report.num_rounds_stored == 2
        assert report.num_client_states == 3
        per_state = 3 * 2 * 8 + 2 * 8  # w float64 + b float64
        assert report.bytes_client_states == 3 * per_state
        assert report.bytes_global_states == 2 * per_state
        assert report.total_bytes == report.bytes_client_states + report.bytes_global_states

    def test_clear(self):
        store = self._store_with_rounds()
        store.clear()
        assert len(store) == 0


class TestAttachToSimulation:
    def test_records_every_round_of_a_real_simulation(self):
        clients, test = make_blob_federation(
            num_clients=3, per_client=12, test_size=12
        )
        fed = FederatedDataset(client_datasets=clients, test_set=test)
        factory = lambda: MLP(16, 3, np.random.default_rng(0))
        sim = FederatedSimulation(
            model_factory=factory,
            fed_data=fed,
            aggregator=FedAvgAggregator(),
            train_config=TrainConfig(epochs=1, batch_size=6, learning_rate=0.05),
            seed=0,
        )
        store = attach_history(sim, RoundHistoryStore())
        sim.run(3)
        assert len(store) == 3
        for snapshot in store.snapshots:
            assert snapshot.client_ids == [0, 1, 2]
            assert snapshot.global_after is not None
        # The recorded client states are what went into aggregation: the
        # size-weighted mean must equal the recorded post-round global.
        last = store.snapshot_at(2)
        sizes = [last.client_sizes[c] for c in last.client_ids]
        total = sum(sizes)
        for key in last.global_after:
            expected = sum(
                (size / total) * last.client_states[cid][key]
                for cid, size in zip(last.client_ids, sizes)
            )
            np.testing.assert_allclose(last.global_after[key], expected, rtol=1e-10)


def blob_simulation(aggregator="fedavg", codec="raw", vectorize=False):
    clients, test = make_blob_federation(num_clients=3, per_client=12, test_size=12)
    fed = FederatedDataset(client_datasets=clients, test_set=test)
    factory = lambda: MLP(16, 3, np.random.default_rng(0))
    return FederatedSimulation(
        model_factory=factory,
        fed_data=fed,
        aggregator=make_aggregator(aggregator, test_set=test, model_factory=factory),
        train_config=TrainConfig(epochs=1, batch_size=6, learning_rate=0.05),
        seed=0,
        codec=codec,
        vectorize=vectorize,
    )


class TestAttachedRounds:
    """Every round is synchronous, so the store records every client's
    upload, and one round's ``global_after`` is the next one's
    ``global_before``."""

    @pytest.mark.parametrize("aggregator", ["fedavg", "fedavg_uniform", "adaptive"])
    def test_every_client_every_round_with_chained_globals(self, aggregator):
        sim = blob_simulation(aggregator)
        store = attach_history(sim, RoundHistoryStore())
        initial = sim.server.global_state
        sim.run(3)
        assert store.stored_round_indices == [0, 1, 2]
        previous = initial
        for snapshot in store.snapshots:
            assert snapshot.client_ids == [0, 1, 2]
            for key in previous:
                np.testing.assert_array_equal(snapshot.global_before[key], previous[key])
            previous = snapshot.global_after
        for key, value in sim.server.global_state.items():
            np.testing.assert_array_equal(previous[key], value)

    @pytest.mark.parametrize("codec", ["raw", "delta", "quant:8"])
    @pytest.mark.parametrize("vectorize", [False, True])
    def test_attaching_history_never_changes_a_round(self, codec, vectorize):
        plain = blob_simulation(codec=codec, vectorize=vectorize)
        recorded = blob_simulation(codec=codec, vectorize=vectorize)
        attach_history(recorded, RoundHistoryStore())
        assert recorded.run(2).accuracies == plain.run(2).accuracies
        for key, value in plain.server.global_state.items():
            np.testing.assert_array_equal(recorded.server.global_state[key], value)
        for a, b in zip(plain.clients, recorded.clients):
            assert a.rng.bit_generator.state == b.rng.bit_generator.state


class TestProperties:
    @given(interval=st.integers(1, 5), num_rounds=st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_property_retention_stores_exactly_multiples(self, interval, num_rounds):
        store = RoundHistoryStore(retention_interval=interval)
        for round_index in range(num_rounds):
            store.record_round(
                round_index, global_state(), [make_update(round_index, 0)]
            )
        assert store.stored_round_indices == [
            r for r in range(num_rounds) if r % interval == 0
        ]
        report = store.storage_report()
        assert report.num_rounds_stored == len(store.stored_round_indices)
