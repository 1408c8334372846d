"""Round-history retention for update-adjustment unlearning."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

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

from ..conftest import generated, make_blob_federation


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
        store.record_round(0, before, [update])
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


    def test_global_after_is_copied_and_optional(self):
        store = RoundHistoryStore()
        after = global_state(5)
        store.record_round(0, global_state(), [make_update(0, 0)], global_after=after)
        store.record_round(1, global_state(), [make_update(1, 0)])
        after["w"] += 100.0
        assert abs(store.snapshot_at(0).global_after["w"]).max() < 50.0
        assert store.snapshot_at(1).global_after is None

    def test_sample_counts_are_recorded_per_client(self):
        store = RoundHistoryStore()
        store.record_round(
            0, global_state(), [make_update(0, 4, num_samples=7), make_update(1, 2, 30)]
        )
        snapshot = store.snapshot_at(0)
        assert snapshot.client_sizes == {4: 7, 2: 30}
        assert snapshot.client_ids == [2, 4]

    def test_every_round_is_kept_whatever_the_gaps(self):
        store = RoundHistoryStore()
        for round_index in (0, 1, 4, 5, 11):
            assert store.record_round(round_index, global_state(), [make_update(0, 0)]) is None
        assert store.stored_round_indices == [0, 1, 4, 5, 11]
        assert len(store) == 5

    def test_a_failed_record_stores_nothing(self):
        store = RoundHistoryStore()
        store.record_round(2, global_state(), [make_update(0, 0)])
        for bad in ([], [make_update(0, 1), make_update(1, 1)]):
            with pytest.raises(ValueError):
                store.record_round(3, global_state(), bad)
        assert store.stored_round_indices == [2]
        store.record_round(3, global_state(), [make_update(0, 0)])  # 3 still free
        assert store.stored_round_indices == [2, 3]

    def test_clear_restarts_the_ordering(self):
        store = RoundHistoryStore()
        store.record_round(5, global_state(), [make_update(0, 0)])
        store.clear()
        store.record_round(0, global_state(), [make_update(0, 0)])
        assert store.stored_round_indices == [0]


class TestProperties:
    @generated(50)
    @given(
        gaps=st.lists(st.integers(1, 5), min_size=1, max_size=12),
        clients=st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
    )
    def test_property_every_recorded_round_is_stored(self, gaps, clients):
        store = RoundHistoryStore()
        indices = list(np.cumsum(gaps) - 1)
        for round_index in indices:
            store.record_round(
                int(round_index),
                global_state(),
                [make_update(c, c) for c in clients],
            )
        assert store.stored_round_indices == indices
        report = store.storage_report()
        assert report.num_rounds_stored == len(indices)
        assert report.num_client_states == len(indices) * len(clients)
        for client in clients:
            assert len(store.rounds_with_client(client)) == len(indices)


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

    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, np.float16, np.int64], ids=lambda d: d.__name__
    )
    def test_storage_report_counts_the_actual_dtype(self, dtype):
        store = RoundHistoryStore()
        state = {"w": np.zeros((5, 3), dtype=dtype), "b": np.zeros(3, dtype=dtype)}
        update = ClientUpdate(state=state, num_samples=1, client_id=0)
        store.record_round(0, state, [update], global_after=state)
        per_state = 18 * np.dtype(dtype).itemsize
        report = store.storage_report()
        assert report.bytes_client_states == per_state
        assert report.bytes_global_states == 2 * per_state  # before + after

    def test_snapshots_list_is_a_copy(self):
        store = self._store_with_rounds()
        store.snapshots.clear()
        assert len(store) == 2 and store.stored_round_indices == [0, 1]

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

    @pytest.mark.parametrize("codec", ["raw", "delta"])
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

    @pytest.mark.parametrize("aggregator", ["fedavg", "fedavg_uniform", "adaptive"])
    def test_delta_rounds_record_the_same_history_as_raw(self, aggregator):
        """Uploads are stored decoded: a ``delta`` federation retains
        bit-for-bit the history a ``raw`` one does."""
        stores = []
        for codec in ("raw", "delta"):
            sim = blob_simulation(aggregator, codec=codec)
            stores.append(attach_history(sim, RoundHistoryStore()))
            sim.run(2)
        raw, delta = stores
        assert delta.stored_round_indices == raw.stored_round_indices == [0, 1]
        for a, b in zip(raw.snapshots, delta.snapshots):
            assert a.client_sizes == b.client_sizes
            for cid in a.client_ids:
                for key, value in a.client_states[cid].items():
                    assert b.client_states[cid][key].tobytes() == value.tobytes()
            for key, value in a.global_after.items():
                assert b.global_after[key].tobytes() == value.tobytes()
