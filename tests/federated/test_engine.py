"""The event-driven round engine: determinism, folding, stragglers.

The engine's contract has three legs:

* the synchronous path is untouched — a simulation without an
  ``AsyncRoundConfig`` never builds an engine and its records carry only
  the historical fields;
* async runs are a pure function of (seed, latency model): identical
  across repetitions and across backends, because events are consumed in
  virtual-arrival order, never real completion order;
* the moving parts behave as specified — buffer folds, staleness
  discounts/discards, straggler drops, history retention and transport
  accounting of exactly what was dispatched and folded.
"""

import numpy as np
import pytest

from repro.data import FederatedDataset
from repro.federated import (
    AsyncRoundConfig,
    BufferedAggregator,
    BufferedUpdate,
    ConstantLatency,
    FedAvgAggregator,
    FederatedSimulation,
    RoundHistoryStore,
    SeededLatency,
    attach_history,
    state_math,
)
from repro.nn.models import RegistryModelFactory
from repro.runtime import PoolBackend, dense_nbytes
from repro.training import TrainConfig

from ..conftest import make_blob_federation

FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4)


def build_sim(
    num_clients=5,
    seed=0,
    async_config=None,
    latency_model=None,
    backend=None,
    epochs=1,
):
    clients, test = make_blob_federation(
        num_clients, per_client=24, test_size=48, seed=seed
    )
    fed = FederatedDataset(client_datasets=clients, test_set=test)
    config = TrainConfig(epochs=epochs, batch_size=8, learning_rate=0.1)
    return FederatedSimulation(
        FACTORY, fed, FedAvgAggregator(), config, seed=seed, backend=backend,
        async_config=async_config, latency_model=latency_model,
    )


ASYNC = AsyncRoundConfig(buffer_size=3, max_staleness=2, straggler_timeout=2.5)
LATENCY = SeededLatency(low=0.5, high=1.5, seed=11, slow_every=3, slow_factor=4.0)


def async_sim(backend=None, seed=0):
    return build_sim(
        num_clients=6, seed=seed, async_config=ASYNC, latency_model=LATENCY,
        backend=backend,
    )


def assert_histories_identical(a, b):
    for r1, r2 in zip(a.rounds, b.rounds):
        assert r1.global_loss == r2.global_loss
        assert r1.global_accuracy == r2.global_accuracy
        assert r1.applied_clients == r2.applied_clients
        assert r1.staleness == r2.staleness
        assert r1.dropped_clients == r2.dropped_clients
        assert r1.stale_discarded == r2.stale_discarded
        assert r1.sim_time == r2.sim_time


class TestSyncPathUntouched:
    def test_no_engine_without_async_config(self):
        sim = build_sim()
        sim.run(2)
        assert sim._engine is None
        with pytest.raises(ValueError, match="not configured for async"):
            sim.engine()

    def test_sync_records_have_default_async_fields(self):
        record = build_sim().run_round(0)
        assert record.applied_clients == []
        assert record.staleness == []
        assert record.dropped_clients == []
        assert record.stale_discarded == []
        assert record.sim_time == 0.0
        assert record.version == 0


class TestAsyncDeterminism:
    def test_identical_across_runs(self):
        assert_histories_identical(async_sim().run(4), async_sim().run(4))

    def test_identical_across_backends(self):
        serial_history = async_sim().run(4)
        pool = PoolBackend(max_workers=2)
        try:
            pool_history = async_sim(backend=pool).run(4)
        finally:
            pool.close()
        assert_histories_identical(serial_history, pool_history)

    def test_seed_changes_results(self):
        h0, h9 = async_sim(seed=0).run(3), async_sim(seed=9).run(3)
        assert [r.global_loss for r in h0.rounds] != [
            r.global_loss for r in h9.rounds
        ]


class TestFoldSemantics:
    def test_full_cohort_constant_latency_matches_sync_fedavg(self):
        """buffer=cohort + equal latencies + staleness 0 ≡ FedAvg."""
        sync = build_sim(seed=3)
        sync_record = sync.run_round(0)
        buffered = build_sim(
            seed=3, async_config=AsyncRoundConfig(buffer_size=0),
            latency_model=ConstantLatency(),
        )
        async_record = buffered.run_round(0)
        sync_state = sync.server.global_state
        async_state = buffered.server.global_state
        for key in sync_state:
            np.testing.assert_allclose(
                sync_state[key], async_state[key], rtol=1e-10, atol=1e-12
            )
        assert async_record.staleness == [0] * len(buffered.clients)

    def test_buffer_size_bounds_fold(self):
        sim = build_sim(
            num_clients=5,
            async_config=AsyncRoundConfig(buffer_size=2),
            latency_model=ConstantLatency(),
        )
        record = sim.run_round(0)
        assert len(record.applied_clients) == 2
        assert len(sim.engine().in_flight_clients) == 3

    def test_leftovers_fold_with_staleness(self):
        sim = build_sim(
            num_clients=5,
            async_config=AsyncRoundConfig(buffer_size=2, max_staleness=5),
            latency_model=ConstantLatency(),
        )
        sim.run_round(0)
        second = sim.run_round(1)
        # Round 1 folds leftovers from round 0's cohort: staleness 1.
        assert 1 in second.staleness

    def test_max_staleness_discards(self):
        # Client 2 is moderately slow: its update arrives a few folds late
        # (slow enough to exceed max_staleness, fast enough that its
        # arrival eventually precedes the fresh cohort's and gets popped).
        slow = SeededLatency(low=0.9, high=1.1, seed=0, slow_every=3,
                             slow_factor=3.5)
        sim = build_sim(
            num_clients=3,
            async_config=AsyncRoundConfig(buffer_size=2, max_staleness=1),
            latency_model=slow,
        )
        discarded = []
        for round_index in range(12):
            discarded += sim.run_round(round_index).stale_discarded
        assert 2 in discarded
        assert sim.engine().total_stale_discarded >= 1

    def test_version_advances_per_fold(self):
        sim = build_sim(async_config=AsyncRoundConfig(),
                        latency_model=ConstantLatency())
        history = sim.run(3)
        assert [r.version for r in history.rounds] == [1, 2, 3]

    def test_abandoned_inflight_cleared_after_run(self):
        sim = build_sim(
            num_clients=5, async_config=AsyncRoundConfig(buffer_size=2),
            latency_model=ConstantLatency(),
        )
        sim.run(2)
        assert sim.engine().in_flight_clients == []


class TestStragglers:
    def test_timeout_drops_and_redispatches(self):
        # slow_every=2 → clients 1, 3, 5 always exceed the timeout.
        slow = SeededLatency(low=0.5, high=1.0, seed=2, slow_every=2,
                             slow_factor=10.0)
        sim = build_sim(
            num_clients=6,
            async_config=AsyncRoundConfig(buffer_size=2, straggler_timeout=2.0),
            latency_model=slow,
        )
        history = sim.run(4)
        dropped = [c for r in history.rounds for c in r.dropped_clients]
        assert sorted(history.rounds[0].dropped_clients) == [1, 3, 5]
        assert all(c in (1, 3, 5) for c in dropped)
        # A dropped client is dispatched again whenever it is idle.
        assert dropped.count(1) > 1
        assert sim.engine().total_dropped == len(dropped)

    def test_all_dropped_raises(self):
        slow = SeededLatency(low=5.0, high=6.0, seed=0)
        sim = build_sim(
            num_clients=3,
            async_config=AsyncRoundConfig(straggler_timeout=1.0),
            latency_model=slow,
        )
        with pytest.raises(RuntimeError, match="drops every"):
            sim.run_round(0)


class TestLatencyModels:
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_constant_latency_must_be_positive(self, value):
        with pytest.raises(ValueError, match="positive"):
            ConstantLatency(value)

    def test_seeded_latency_is_a_pure_function(self):
        model = SeededLatency(seed=4)
        draws = [model.sample(client, index) for client in range(3) for index in range(3)]
        again = [model.sample(client, index) for client in range(3) for index in range(3)]
        assert draws == again
        assert len(set(draws)) == len(draws)

    def test_seeded_latency_stays_in_range(self):
        model = SeededLatency(low=0.5, high=1.5, seed=1)
        draws = [model.sample(client, index) for client in range(4) for index in range(25)]
        assert all(0.5 <= latency < 1.5 for latency in draws)

    def test_chronic_stragglers_are_slowed_by_the_factor(self):
        plain = SeededLatency(seed=2)
        slow = SeededLatency(seed=2, slow_every=3, slow_factor=4.0)
        assert slow.sample(2, 5) == 4.0 * plain.sample(2, 5)  # client 2 is the 3rd
        assert slow.sample(1, 5) == plain.sample(1, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"low": 0.0},
            {"low": 2.0, "high": 1.0},
            {"slow_every": -1},
            {"slow_factor": 0.5},
        ],
    )
    def test_seeded_latency_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SeededLatency(**kwargs)


class TestAsyncRoundConfig:
    @pytest.mark.parametrize("kwargs", [{"max_staleness": -1}, {"staleness_exponent": -0.1}])
    def test_rejects_negative_knobs(self, kwargs):
        with pytest.raises(ValueError):
            AsyncRoundConfig(**kwargs)

    def test_to_dict_round_trips(self):
        config = AsyncRoundConfig(buffer_size=3, max_staleness=2,
                                  straggler_timeout=2.5, staleness_exponent=1.0)
        assert AsyncRoundConfig(**config.to_dict()) == config


class TestBufferedAggregator:
    def _update(self, client_id, delta_value, n=10, staleness=0):
        delta = {"w": np.full(3, float(delta_value))}
        return BufferedUpdate(
            client_id=client_id, delta=delta, num_samples=n,
            staleness=staleness, state=delta,
        )

    def test_zero_staleness_size_weighting_is_fedavg_delta(self):
        aggregator = BufferedAggregator(weighting="size")
        folded = aggregator.fold(
            {"w": np.zeros(3)},
            [self._update(0, 1.0, n=30), self._update(1, 4.0, n=10)],
        )
        np.testing.assert_allclose(folded["w"], np.full(3, 1.75))

    def test_staleness_downweights(self):
        aggregator = BufferedAggregator(weighting="uniform",
                                        staleness_exponent=0.5)
        fresh_only = aggregator.fold(
            {"w": np.zeros(3)}, [self._update(0, 1.0)]
        )
        with_stale = aggregator.fold(
            {"w": np.zeros(3)},
            [self._update(0, 1.0), self._update(1, 0.0, staleness=8)],
        )
        # The stale zero-delta pulls the fold toward zero, but less than a
        # fresh zero-delta would (weight 1/3 instead of 1/2).
        assert 0.5 < float(with_stale["w"][0]) < float(fresh_only["w"][0])

    def test_staleness_weight_monotonic(self):
        aggregator = BufferedAggregator()
        weights = [aggregator.staleness_weight(s) for s in range(5)]
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0

    def test_exponent_zero_disables_discount(self):
        aggregator = BufferedAggregator(staleness_exponent=0.0)
        assert aggregator.staleness_weight(100) == 1.0

    def test_empty_fold_rejected(self):
        with pytest.raises(ValueError, match="no buffered updates"):
            BufferedAggregator().fold({"w": np.zeros(2)}, [])

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            BufferedAggregator(weighting="magic")
        with pytest.raises(ValueError):
            BufferedAggregator(staleness_exponent=-1.0)
        with pytest.raises(ValueError):
            AsyncRoundConfig(buffer_size=-1)
        with pytest.raises(ValueError):
            AsyncRoundConfig(straggler_timeout=-0.5)


class TestUnsupportedAggregators:
    def test_adaptive_aggregator_rejected_in_async_mode(self):
        from repro.federated import AdaptiveWeightAggregator

        clients, test = make_blob_federation(3, per_client=24, test_size=48)
        from repro.data import FederatedDataset as FD

        fed = FD(client_datasets=clients, test_set=test)
        sim = FederatedSimulation(
            FACTORY, fed, AdaptiveWeightAggregator(test, FACTORY),
            TrainConfig(epochs=1, batch_size=8, learning_rate=0.1),
            async_config=AsyncRoundConfig(), latency_model=ConstantLatency(),
        )
        with pytest.raises(ValueError, match="FedAvg-family"):
            sim.run_round(0)


class TestRetentionAndMetering:
    def test_history_records_folded_clients_only(self):
        sim = build_sim(
            num_clients=5, async_config=AsyncRoundConfig(buffer_size=2),
            latency_model=ConstantLatency(),
        )
        store = attach_history(sim, RoundHistoryStore())
        sim.run_round(0)
        snapshot = store.snapshot_at(0)
        assert len(snapshot.client_ids) == 2

    def test_history_replay_matches_folded_delta(self):
        """The retained uploads reconstruct exactly what was folded."""
        sim = build_sim(
            num_clients=4, async_config=AsyncRoundConfig(),
            latency_model=ConstantLatency(),
        )
        store = attach_history(sim, RoundHistoryStore())
        sim.run_round(0)
        snapshot = store.snapshot_at(0)
        deltas = [
            snapshot.client_update(cid) for cid in snapshot.client_ids
        ]
        sizes = [snapshot.client_sizes[cid] for cid in snapshot.client_ids]
        weights = [s / sum(sizes) for s in sizes]
        reconstructed = state_math.add(
            snapshot.global_before, state_math.weighted_sum(deltas, weights)
        )
        installed = sim.server.global_state
        for key in installed:
            np.testing.assert_allclose(reconstructed[key], installed[key])

    def test_transport_counts_dispatches_and_folds_not_cohort(self):
        sim = build_sim(
            num_clients=5, async_config=AsyncRoundConfig(buffer_size=2),
            latency_model=ConstantLatency(),
        )
        record = sim.run_round(0)
        per_state = dense_nbytes(sim.server.global_state)
        assert record.bytes_down == 5 * per_state  # 5 dispatches
        assert record.bytes_up == 2 * per_state  # 2 folded uploads
        assert sim.engine().total_dispatched == 5

    def test_provenance_facts(self):
        sim = async_sim()
        sim.run(3)
        provenance = sim.engine().provenance()
        assert provenance["engine"] == "async"
        assert provenance["folds"] == 3
        assert provenance["latency_model"] == "SeededLatency"
        assert provenance["dispatched"] >= 3
