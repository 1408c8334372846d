"""Client-vectorized rounds: parity, fallback and accounting.

The contract of :mod:`repro.federated.vectorized`:

* ``vectorize=True`` on an eligible cohort is **bit-identical** to the
  per-client path — global states, client models, client RNG streams,
  round accuracies and (on lazy backends) per-round byte counts — on
  every backend, under every codec;
* ineligible cohorts fall back per client with a recorded reason,
  logged once per distinct reason — never silently;
* ``vectorize_report()`` tallies what actually happened.
"""

import logging

import numpy as np
import pytest

from repro.data import FederatedDataset
from repro.federated import FedAvgAggregator, FederatedSimulation
from repro.nn.layers import BatchNorm2d, Conv2d, Flatten, Linear, Sequential
from repro.nn.models import RegistryModelFactory
from repro.runtime import PoolBackend
from repro.training import TrainConfig

from ..conftest import make_blob_federation, make_blobs

FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4)
ROUNDS = 3


def build_sim(vectorize=False, codec="raw", backend=None, seed=0, shared=False,
              config=None, factory=FACTORY, client_sizes=None):
    if client_sizes is None:
        clients, test = make_blob_federation(5, per_client=24, test_size=48,
                                             seed=seed)
    else:
        total = sum(client_sizes) + 48
        ds = make_blobs(num_samples=total, num_classes=3, shape=(1, 4, 4),
                        seed=seed, separation=1.2, noise=1.0)
        clients, start = [], 0
        for size in client_sizes:
            clients.append(ds.subset(np.arange(start, start + size)))
            start += size
        test = ds.subset(np.arange(start, total))
    fed = FederatedDataset(client_datasets=clients, test_set=test)
    if shared:
        fed = fed.share()
    if config is None:
        config = TrainConfig(epochs=1, batch_size=8, learning_rate=0.1)
    return FederatedSimulation(
        factory, fed, FedAvgAggregator(), config, seed=seed, backend=backend,
        codec=codec, vectorize=vectorize,
    )


def run_sim(**kwargs):
    backend = kwargs.get("backend")
    sim = build_sim(**kwargs)
    history = sim.run(ROUNDS)
    state = sim.server.global_state
    if hasattr(backend, "close"):
        backend.close()
    return sim, history, state


def assert_states_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        assert a[key].dtype == b[key].dtype
        np.testing.assert_array_equal(a[key], b[key])


class TestSyncParity:
    def test_bit_identical_to_per_client_path(self):
        per_client, ref_history, ref_state = run_sim(vectorize=False)
        vectorized, history, state = run_sim(vectorize=True)
        assert history.accuracies == ref_history.accuracies
        assert_states_equal(state, ref_state)
        for a, b in zip(per_client.clients, vectorized.clients):
            assert_states_equal(a.model.state_dict(), b.model.state_dict())
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
        report = vectorized.vectorize_report()
        assert report["rounds_vectorized"] == ROUNDS
        assert report["rounds_fallback"] == 0

    def test_bit_identical_across_backends(self):
        _, ref_history, ref_state = run_sim(vectorize=False)
        for backend_factory, shared in (
            (lambda: "serial", False),
            (lambda: "pool:2", False),
            (lambda: PoolBackend(max_workers=2), True),
        ):
            _, history, state = run_sim(
                vectorize=True, backend=backend_factory(), shared=shared
            )
            assert history.accuracies == ref_history.accuracies
            assert_states_equal(state, ref_state)

    def test_round_record_bytes_identical_on_lazy_backends(self):
        # Vectorization fuses host-side execution only: the simulated
        # federation still broadcast to every member and received every
        # member's return, so the per-round byte accounting is unchanged.
        _, ref_history, _ = run_sim(vectorize=False)
        _, history, _ = run_sim(vectorize=True)
        for ref, got in zip(ref_history.rounds, history.rounds):
            assert got.bytes_down == ref.bytes_down
            assert got.bytes_up == ref.bytes_up

    @pytest.mark.parametrize("codec", ["delta"])
    def test_codecs_match_their_per_client_twin(self, codec):
        _, ref_history, ref_state = run_sim(vectorize=False, codec=codec)
        _, history, state = run_sim(vectorize=True, codec=codec)
        assert history.accuracies == ref_history.accuracies
        assert_states_equal(state, ref_state)


class TestMomentumParity:
    """Momentum carried across the steps of two epochs runs per slice on
    the stack, bit-identical to each member training alone."""

    def test_momentum_bit_identical(self):
        config = TrainConfig(epochs=2, batch_size=8, learning_rate=0.1,
                             momentum=0.9)
        per_client, ref_history, ref_state = run_sim(
            vectorize=False, config=config
        )
        vectorized, history, state = run_sim(vectorize=True, config=config)
        assert history.accuracies == ref_history.accuracies
        assert_states_equal(state, ref_state)
        for a, b in zip(per_client.clients, vectorized.clients):
            assert_states_equal(a.model.state_dict(), b.model.state_dict())
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
        report = vectorized.vectorize_report()
        assert report["rounds_vectorized"] == ROUNDS
        assert report["fallback_reasons"] == {}


class TestRaggedParity:
    """Unequal member dataset sizes no longer force a fallback when the
    per-member step counts still agree: the final short batches are
    zero-padded and every padded row is excluded from forward GEMMs,
    loss, and gradients."""

    # batch_size=8 -> 3 steps each, final batches of 8/4/2 rows.
    SIZES = [24, 20, 18]

    def test_ragged_cohort_vectorizes_bit_identical(self):
        per_client, ref_history, ref_state = run_sim(
            vectorize=False, client_sizes=self.SIZES
        )
        vectorized, history, state = run_sim(
            vectorize=True, client_sizes=self.SIZES
        )
        assert history.accuracies == ref_history.accuracies
        assert_states_equal(state, ref_state)
        for a, b in zip(per_client.clients, vectorized.clients):
            assert_states_equal(a.model.state_dict(), b.model.state_dict())
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
        report = vectorized.vectorize_report()
        assert report["rounds_vectorized"] == ROUNDS
        assert report["rounds_fallback"] == 0

    def test_ragged_with_momentum_and_codec(self):
        config = TrainConfig(epochs=1, batch_size=8, learning_rate=0.1,
                             momentum=0.9)
        _, ref_history, ref_state = run_sim(
            vectorize=False, client_sizes=self.SIZES, config=config,
            codec="delta",
        )
        _, history, state = run_sim(
            vectorize=True, client_sizes=self.SIZES, config=config,
            codec="delta",
        )
        assert history.accuracies == ref_history.accuracies
        assert_states_equal(state, ref_state)


class TestStackChunkSharding:
    """Vectorized rounds shard the stacked task across backend workers;
    the reassembled results stay bit-identical and the chunk fan-out is
    tallied in the report."""

    def test_single_worker_backends_run_one_chunk(self):
        sim, _, _ = run_sim(vectorize=True)
        assert sim.vectorize_report()["chunks"] == {1: ROUNDS}

    def test_pool_backend_splits_and_stays_bit_identical(self):
        _, ref_history, ref_state = run_sim(vectorize=False)
        sim, history, state = run_sim(
            vectorize=True, backend=PoolBackend(max_workers=2), shared=True
        )
        assert history.accuracies == ref_history.accuracies
        assert_states_equal(state, ref_state)
        assert sim.vectorize_report()["chunks"] == {2: ROUNDS}

    def test_chunked_ragged_cohort_bit_identical(self):
        sizes = [24, 20, 18, 17, 23]  # all 3 steps at batch_size=8
        _, ref_history, ref_state = run_sim(
            vectorize=False, client_sizes=sizes
        )
        sim, history, state = run_sim(
            vectorize=True, client_sizes=sizes,
            backend=PoolBackend(max_workers=4), shared=True,
        )
        assert history.accuracies == ref_history.accuracies
        assert_states_equal(state, ref_state)
        assert sim.vectorize_report()["chunks"] == {4: ROUNDS}

    @pytest.mark.parametrize("codec", ["delta"])
    def test_chunked_codecs_match_per_client_twin(self, codec):
        _, ref_history, ref_state = run_sim(vectorize=False, codec=codec)
        _, history, state = run_sim(
            vectorize=True, codec=codec,
            backend=PoolBackend(max_workers=2), shared=True,
        )
        assert history.accuracies == ref_history.accuracies
        assert_states_equal(state, ref_state)


class TestFallback:
    def test_single_participant_falls_back(self):
        clients, test = make_blob_federation(1, per_client=24, test_size=48)
        fed = FederatedDataset(client_datasets=clients, test_set=test)
        sim = FederatedSimulation(
            FACTORY, fed, FedAvgAggregator(),
            TrainConfig(epochs=1, batch_size=8, learning_rate=0.1),
            vectorize=True,
        )
        sim.run(1)
        report = sim.vectorize_report()
        assert report["rounds_vectorized"] == 0
        assert report["rounds_fallback"] == 1
        assert "single participant" in str(report["fallback_reasons"])

    def test_unequal_dataset_sizes_fall_back(self):
        sim, _, _ = run_sim(vectorize=True, client_sizes=[24, 24, 16])
        report = sim.vectorize_report()
        assert report["rounds_vectorized"] == 0
        assert report["rounds_fallback"] == ROUNDS
        assert "sizes differ" in str(report["fallback_reasons"])

    def test_conv_architecture_falls_back_on_ragged_cohorts_only(self):
        # Conv2d weight gradients contract over batch rows x spatial
        # positions, so zero-padded rows would change the reduction
        # extent: ragged cohorts must fall back with a recorded reason,
        # while equal-size cohorts still vectorize the same arch.
        def factory():
            rng = np.random.default_rng(5)
            return Sequential(
                Conv2d(1, 3, 3, rng, padding=1), Flatten(), Linear(48, 3, rng),
            )

        sim, _, _ = run_sim(vectorize=True, factory=factory,
                            client_sizes=[24, 20, 18])
        report = sim.vectorize_report()
        assert report["rounds_vectorized"] == 0
        assert "ragged cohort" in str(report["fallback_reasons"])
        assert "Conv2d" in str(report["fallback_reasons"])

        _, ref_history, ref_state = run_sim(vectorize=False, factory=factory,
                                            client_sizes=[24, 20, 18])
        _, history, state = run_sim(vectorize=True, factory=factory,
                                    client_sizes=[24, 20, 18])
        assert history.accuracies == ref_history.accuracies
        assert_states_equal(state, ref_state)

        sim, _, _ = run_sim(vectorize=True, factory=factory)
        assert sim.vectorize_report()["rounds_vectorized"] == ROUNDS

    def test_unstackable_architecture_falls_back(self):
        def factory():
            rng = np.random.default_rng(5)
            return Sequential(
                Conv2d(1, 3, 3, rng, padding=1), BatchNorm2d(3),
                Flatten(), Linear(48, 3, rng),
            )

        sim, _, _ = run_sim(vectorize=True, factory=factory)
        report = sim.vectorize_report()
        assert report["rounds_vectorized"] == 0
        assert "not stackable" in str(report["fallback_reasons"])

    def test_fallback_logged_once_per_distinct_reason(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.federated.simulation"):
            sim, _, _ = run_sim(vectorize=True, client_sizes=[24, 24, 16])
        warnings = [
            record for record in caplog.records
            if "fell back" in record.getMessage()
        ]
        assert len(warnings) == 1  # three rounds, one distinct reason
        assert sim.vectorize_report()["rounds_fallback"] == ROUNDS

    def test_fallback_rounds_still_bit_identical(self):
        _, ref_history, ref_state = run_sim(
            vectorize=False, client_sizes=[24, 24, 16]
        )
        _, history, state = run_sim(vectorize=True, client_sizes=[24, 24, 16])
        assert history.accuracies == ref_history.accuracies
        assert_states_equal(state, ref_state)


class TestReport:
    def test_off_by_default_and_unrequested(self):
        sim, _, _ = run_sim()
        report = sim.vectorize_report()
        assert report == {
            "requested": False,
            "rounds_vectorized": 0,
            "rounds_fallback": 0,
            "fallback_reasons": {},
            "chunks": {},
        }

    def test_transport_report_totals_match_round_records(self):
        _, history, _ = run_sim(vectorize=True)
        sim, history, _ = run_sim(vectorize=True)
        report = sim.transport_report()
        assert report["bytes_down"] == sum(r.bytes_down for r in history.rounds)
        assert report["bytes_up"] == sum(r.bytes_up for r in history.rounds)
