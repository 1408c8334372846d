"""ClusterBackend ≡ PoolBackend ≡ serial for whole federated runs.

The acceptance bar for the cluster subsystem: swapping the in-process
worker pool for TCP node agents is purely a transport change.
Federations under raw and delta update codecs must land
bit-identical global models — including when a node agent is SIGKILLed
mid-run and its leased tasks are resubmitted to a respawned agent.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.cluster import ClusterBackend
from repro.data import FederatedDataset
from repro.federated import FedAvgAggregator, FederatedSimulation
from repro.nn.models import RegistryModelFactory
from repro.runtime import PoolBackend
from repro.training import TrainConfig

from ..conftest import make_blob_federation

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

pytestmark = pytest.mark.skipif(
    not HAS_FORK, reason="cluster tests spawn local agents via fork"
)

FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4)
CONFIG = TrainConfig(epochs=1, batch_size=8, learning_rate=0.1)


def assert_states_equal(a, b):
    assert sorted(a) == sorted(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


def make_sim(backend=None, seed=3, codec="raw"):
    clients, test = make_blob_federation(
        num_clients=4, per_client=24, test_size=24, seed=seed
    )
    fed = FederatedDataset(client_datasets=clients, test_set=test)
    return FederatedSimulation(
        FACTORY,
        fed,
        FedAvgAggregator(),
        CONFIG,
        seed=seed,
        backend=backend,
        codec=codec,
    )


@pytest.fixture
def cluster():
    backend = ClusterBackend(max_workers=2)
    yield backend
    backend.close()


@pytest.fixture
def pool():
    backend = PoolBackend(max_workers=2)
    yield backend
    backend.close()


class TestSyncParity:
    @pytest.mark.parametrize("codec", ["raw", "delta"])
    def test_cluster_matches_pool_bitwise(self, cluster, pool, codec):
        sim_cluster = make_sim(backend=cluster, codec=codec)
        sim_pool = make_sim(backend=pool, codec=codec)
        h_cluster = sim_cluster.run(3)
        h_pool = sim_pool.run(3)
        assert h_cluster.accuracies == h_pool.accuracies
        assert_states_equal(
            sim_cluster.server.global_state, sim_pool.server.global_state
        )
        for a, b in zip(sim_cluster.clients, sim_pool.clients):
            assert_states_equal(a.model.state_dict(), b.model.state_dict())
            assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_cluster_matches_serial_bitwise(self, cluster):
        sim_cluster = make_sim(backend=cluster)
        sim_serial = make_sim(backend=None)
        sim_cluster.run(2)
        sim_serial.run(2)
        assert_states_equal(
            sim_cluster.server.global_state, sim_serial.server.global_state
        )

    def test_broadcast_cache_engaged_across_rounds(self, cluster):
        sim = make_sim(backend=cluster)
        sim.run(3)
        totals = cluster.transport_stats
        # Two agents → at most two full sends per distinct global state;
        # the rest of each cohort rides refs.
        assert totals.broadcast_ref > 0
        assert totals.broadcast_full >= 1


class TestDeathMidRunParity:
    def test_sigkilled_agent_mid_run_still_bitwise_identical(self, cluster):
        # Baseline: the same federation end-to-end on serial.
        sim_serial = make_sim(backend=None)
        for round_index in range(4):
            sim_serial.run_round(round_index)

        sim_cluster = make_sim(backend=cluster)
        for round_index in range(4):
            if round_index == 2:
                # Kill one of the two node agents between dispatches; its
                # leased tasks expire/EOF and are resubmitted, and the
                # backend respawns a cold replacement.
                os.kill(cluster.agent_pids()[0], signal.SIGKILL)
            sim_cluster.run_round(round_index)

        assert_states_equal(
            sim_cluster.server.global_state, sim_serial.server.global_state
        )
        for a, b in zip(sim_cluster.clients, sim_serial.clients):
            assert_states_equal(a.model.state_dict(), b.model.state_dict())
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
