"""Update-codec parity across backends and deletion overlap.

The transport contract of the zero-redundancy layer:

* ``raw`` and ``delta`` are **bit-identical** to the historical pipeline
  on every backend (serial / pool), and while an
  :class:`UnlearningService` overlaps federation rounds on a shared pool;
* per-round byte counts land in :class:`RoundRecord` and cumulative
  totals in :meth:`FederatedSimulation.transport_report`.
"""

import tempfile

import numpy as np

from repro.data import FederatedDataset
from repro.federated import FedAvgAggregator, FederatedSimulation
from repro.nn.models import RegistryModelFactory
from repro.runtime import PoolBackend
from repro.training import TrainConfig
from repro.unlearning import (
    BatchSizePolicy,
    SisaConfig,
    SisaEnsemble,
    UnlearningService,
)

from ..conftest import make_blob_federation, make_blobs

FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4)
ROUNDS = 4


def build_sim(codec="raw", backend=None, seed=0, shared=False):
    clients, test = make_blob_federation(5, per_client=24, test_size=48, seed=seed)
    fed = FederatedDataset(client_datasets=clients, test_set=test)
    if shared:
        fed = fed.share()
    config = TrainConfig(epochs=1, batch_size=8, learning_rate=0.1)
    return FederatedSimulation(
        FACTORY, fed, FedAvgAggregator(), config, seed=seed, backend=backend,
        codec=codec,
    )


def global_state(sim):
    return sim.server.global_state


def assert_states_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


def run_history(codec, backend=None, shared=False):
    sim = build_sim(codec=codec, backend=backend, shared=shared)
    history = sim.run(ROUNDS)
    state = global_state(sim)
    report = sim.transport_report()
    if hasattr(backend, "close"):
        backend.close()
    return history, state, report


class TestSyncParity:
    def test_raw_unchanged_and_delta_bit_identical_across_backends(self):
        reference_history, reference_state, _ = run_history("raw")
        for codec in ("raw", "delta"):
            for backend_factory in (
                lambda: "serial",
                lambda: "pool:2",
                lambda: PoolBackend(max_workers=2),
            ):
                history, state, _ = run_history(codec, backend_factory())
                assert history.accuracies == reference_history.accuracies
                assert_states_equal(state, reference_state)

    def test_client_models_and_rngs_match_after_delta_rounds(self):
        raw = build_sim("raw")
        raw.run(ROUNDS)
        delta = build_sim("delta")
        delta.run(ROUNDS)
        for a, b in zip(raw.clients, delta.clients):
            assert_states_equal(a.model.state_dict(), b.model.state_dict())
            assert a.rng.bit_generator.state == b.rng.bit_generator.state


class TestByteAccounting:
    def test_round_records_and_report_are_consistent(self):
        history, _, report = run_history("delta")
        assert all(r.bytes_down > 0 and r.bytes_up > 0 for r in history.rounds)
        assert report["bytes_down"] == sum(r.bytes_down for r in history.rounds)
        assert report["bytes_up"] == sum(r.bytes_up for r in history.rounds)
        assert report["bytes_total"] == report["bytes_down"] + report["bytes_up"]

    def test_delta_uplink_cheaper_than_raw_on_serial_accounting(self):
        _, _, raw_report = run_history("raw")
        _, _, delta_report = run_history("delta")
        assert delta_report["bytes_up"] < raw_report["bytes_up"]

    def test_bytes_up_uniform_across_backends(self):
        # Uplink is the encoded return payload on every backend — pool
        # framing overhead never leaks into the per-round counts.
        _, _, serial_report = run_history("delta")
        pool = PoolBackend(max_workers=2)
        _, _, pool_report = run_history("delta", pool, shared=True)
        assert pool_report["bytes_up"] == serial_report["bytes_up"]

    def test_pool_broadcast_cache_shrinks_downlink(self):
        _, _, serial_report = run_history("delta")
        pool = PoolBackend(max_workers=1)
        _, _, pool_report = run_history("delta", pool, shared=True)
        # 5 clients × 4 rounds on one worker: 1 full + 3 deltas + 16 refs.
        assert pool_report["broadcast_ref"] >= 12
        assert pool_report["broadcast_full"] == 1
        assert pool_report["bytes_down"] < serial_report["bytes_down"] / 2


class TestDeletionServiceOverlap:
    """Federation rounds under ``delta`` while an UnlearningService retrains
    SISA shards on the *same* pool: both must stay bit-identical to their
    isolated serial/raw counterparts (chain init states interleave with
    federation broadcasts in the worker caches)."""

    SISA = SisaConfig(num_shards=3, num_slices=2, epochs_per_slice=1, batch_size=8)
    REQUESTS = {1: [3, 40], 2: [41, 70]}

    def run_overlapped(self, codec, backend):
        dataset = make_blobs(num_samples=72, num_classes=3, shape=(1, 4, 4), seed=0)
        ensemble = SisaEnsemble(
            FACTORY, dataset, self.SISA, seed=5, backend=backend
        ).fit()
        sim = build_sim(codec=codec, backend=backend,
                        shared=not isinstance(backend, str))
        records = []
        with tempfile.TemporaryDirectory() as directory, UnlearningService(
            ensemble, directory, policy=BatchSizePolicy(2)
        ) as service:
            for round_index in range(ROUNDS):
                service.poll(round_index)
                for index in self.REQUESTS.get(round_index, []):
                    service.submit(
                        client_id=0, indices=[index], round_index=round_index
                    )
                service.maybe_submit(round_index)
                records.append(sim.run_round(round_index))
            service.drain(ROUNDS)
            while service.manager.num_pending:
                service.maybe_submit(ROUNDS)
                service.drain(ROUNDS)
        return sim, ensemble, records

    def shard_states(self, ensemble):
        return [shard.model.state_dict() for shard in ensemble._shards]

    def test_delta_overlap_bit_identical_to_raw_serial(self):
        serial_sim, serial_ensemble, _ = self.run_overlapped("raw", "serial")
        pool = PoolBackend(max_workers=2)
        try:
            pool_sim, pool_ensemble, records = self.run_overlapped("delta", pool)
        finally:
            pool.close()
        assert_states_equal(global_state(serial_sim), global_state(pool_sim))
        for a, b in zip(
            self.shard_states(serial_ensemble), self.shard_states(pool_ensemble)
        ):
            assert_states_equal(a, b)
        assert all(r.bytes_down > 0 for r in records)
