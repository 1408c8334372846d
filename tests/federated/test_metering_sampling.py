"""Cost metering and client-participation sampling."""

import numpy as np
import pytest

from repro.data.dataset import FederatedDataset
from repro.federated import (
    CostMeter,
    DropoutInjector,
    FedAvgAggregator,
    FederatedSimulation,
    FullParticipation,
    MeteredSimulationProxy,
    ParticipationLog,
    UniformSampler,
    WeightedSampler,
    state_bytes,
)
from repro.nn.models import MLP
from repro.training.config import TrainConfig

from ..conftest import make_blob_federation


class TestStateBytes:
    def test_prices_float32_wire_format(self):
        state = {"w": np.zeros((10, 10)), "b": np.zeros(10)}
        assert state_bytes(state) == (100 + 10) * 4


class TestCostMeter:
    def test_accumulates_and_reports(self):
        meter = CostMeter("run")
        meter.record_upload(100)
        meter.record_download(50)
        meter.record_training(num_samples=200, epochs=3)
        meter.record_round()
        report = meter.report()
        assert report.upload_bytes == 100
        assert report.download_bytes == 50
        assert report.total_bytes == 150
        assert report.samples_processed == 600
        assert report.local_epochs == 3
        assert report.rounds == 1
        assert set(report.as_dict()) >= {"total_bytes", "samples_processed"}

    def test_broadcast_multiplies_by_clients(self):
        meter = CostMeter()
        state = {"w": np.zeros(25)}
        meter.record_broadcast(state, num_clients=4)
        assert meter.download_bytes == 25 * 4 * 4

    def test_time_block_measures(self):
        meter = CostMeter()
        with meter.time_block():
            sum(range(10000))
        assert meter.wall_clock_seconds > 0.0

    def test_merge(self):
        a, b = CostMeter(), CostMeter()
        a.record_upload(10)
        b.record_upload(20)
        b.record_round()
        a.merge(b)
        assert a.upload_bytes == 30
        assert a.rounds == 1

    def test_negative_rejected(self):
        meter = CostMeter()
        with pytest.raises(ValueError):
            meter.record_upload(-1)
        with pytest.raises(ValueError):
            meter.record_training(-5, 1)
        with pytest.raises(ValueError):
            meter.record_broadcast({"w": np.zeros(2)}, -1)


class TestMeteredSimulation:
    def test_meters_a_real_run(self):
        clients, test = make_blob_federation(num_clients=3, per_client=10, test_size=9)
        fed = FederatedDataset(client_datasets=clients, test_set=test)
        factory = lambda: MLP(16, 3, np.random.default_rng(0))
        sim = FederatedSimulation(
            factory, fed, FedAvgAggregator(),
            TrainConfig(epochs=2, batch_size=5, learning_rate=0.05), seed=0,
        )
        metered = MeteredSimulationProxy(sim)
        metered.run(2)
        report = metered.meter.report()
        per_state = state_bytes(factory().state_dict())
        assert report.rounds == 2
        assert report.download_bytes == per_state * 3 * 2
        assert report.upload_bytes == per_state * 3 * 2
        assert report.samples_processed == 3 * 10 * 2 * 2  # clients×data×epochs×rounds
        assert report.wall_clock_seconds > 0.0

    def test_sampled_run_charges_participants_only(self):
        """2 of 4 clients a round: two broadcasts, two uploads and two
        clients' local epochs per round — not the whole federation's."""
        clients, test = make_blob_federation(num_clients=4, per_client=15, test_size=12)
        fed = FederatedDataset(client_datasets=clients, test_set=test)
        factory = lambda: MLP(16, 3, np.random.default_rng(0))
        sim = FederatedSimulation(
            factory, fed, FedAvgAggregator(),
            TrainConfig(epochs=2, batch_size=5, learning_rate=0.05), seed=0,
            sampler=UniformSampler(num_selected=2),
        )
        metered = MeteredSimulationProxy(sim)
        metered.run(3)
        report = metered.meter.report()
        per_state = state_bytes(factory().state_dict())
        assert report.rounds == 3
        assert report.download_bytes == per_state * 2 * 3
        assert report.upload_bytes == per_state * 2 * 3
        assert report.local_epochs == 2 * 2 * 3  # participants×epochs×rounds
        assert report.samples_processed == 2 * 15 * 2 * 3

    def test_invalid_rounds(self):
        metered = MeteredSimulationProxy(simulation=None)
        with pytest.raises(ValueError):
            metered.run(0)


class TestSamplers:
    def test_full_participation(self, rng):
        sampler = FullParticipation()
        assert sampler.sample([3, 1, 2], 0, rng) == [1, 2, 3]
        with pytest.raises(ValueError):
            sampler.sample([], 0, rng)
        with pytest.raises(ValueError):
            sampler.sample([1, 1], 0, rng)

    def test_uniform_sampler_size_and_membership(self, rng):
        sampler = UniformSampler(num_selected=3)
        chosen = sampler.sample(list(range(10)), 0, rng)
        assert len(chosen) == 3
        assert len(set(chosen)) == 3
        assert all(c in range(10) for c in chosen)

    def test_uniform_sampler_validation(self, rng):
        with pytest.raises(ValueError):
            UniformSampler(0)
        with pytest.raises(ValueError):
            UniformSampler(5).sample([0, 1], 0, rng)

    def test_weighted_sampler_prefers_large_clients(self):
        rng = np.random.default_rng(0)
        sampler = WeightedSampler(num_selected=1, sizes=[1, 1, 100])
        picks = [sampler.sample([0, 1, 2], r, rng)[0] for r in range(200)]
        assert picks.count(2) > 150

    def test_weighted_sampler_validation(self, rng):
        with pytest.raises(ValueError):
            WeightedSampler(1, sizes=[0, 5])
        with pytest.raises(ValueError):
            WeightedSampler(1, sizes=[5]).sample([0, 1], 0, rng)
        with pytest.raises(ValueError):
            WeightedSampler(3, sizes=[5, 5]).sample([0, 1], 0, rng)


class TestDropoutInjector:
    def test_no_dropout_is_identity(self, rng):
        injector = DropoutInjector(FullParticipation(), dropout_rate=0.0)
        assert injector.sample([0, 1, 2], 0, rng) == [0, 1, 2]

    def test_dropout_removes_some_clients_on_average(self):
        rng = np.random.default_rng(1)
        injector = DropoutInjector(FullParticipation(), dropout_rate=0.4)
        survivor_counts = [
            len(injector.sample(list(range(10)), r, rng)) for r in range(100)
        ]
        mean_survivors = np.mean(survivor_counts)
        assert 4.0 < mean_survivors < 8.0
        assert all(count >= 1 for count in survivor_counts)

    def test_min_survivors_enforced(self):
        rng = np.random.default_rng(2)
        injector = DropoutInjector(
            FullParticipation(), dropout_rate=0.95, min_survivors=2
        )
        for round_index in range(20):
            assert len(injector.sample([0, 1, 2, 3], round_index, rng)) >= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            DropoutInjector(FullParticipation(), dropout_rate=1.0)
        with pytest.raises(ValueError):
            DropoutInjector(FullParticipation(), dropout_rate=0.5, min_survivors=0)


class TestParticipationLog:
    def test_rates(self):
        log = ParticipationLog(
            selected=[[0, 1, 2], [0, 1, 2], [0, 1, 2]],
            survived=[[0, 1], [0], [0, 2]],
        )
        assert log.num_rounds == 3
        assert log.participation_rate(0) == pytest.approx(1.0)
        assert log.participation_rate(1) == pytest.approx(1 / 3)
        assert log.participation_rate(9) == 0.0

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            ParticipationLog(selected=[], survived=[]).participation_rate(0)
