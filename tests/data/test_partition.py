"""Partitioning invariants: coverage, disjointness, skew properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (
    make_federated,
    partition_heterogeneous,
    partition_iid,
    partition_shards,
)

from ..conftest import make_blobs


def assert_exact_partition(parts, total):
    """Parts must be disjoint and jointly cover range(total)."""
    merged = np.concatenate(parts)
    assert len(merged) == total
    assert len(np.unique(merged)) == total
    assert merged.min() == 0 and merged.max() == total - 1


PARTITIONERS = [partition_iid, partition_heterogeneous]


class TestPartitionInvariants:
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("num_clients", [1, 2, 5, 7])
    def test_exact_partition(self, rng, partitioner, num_clients):
        ds = make_blobs(num_samples=101, num_classes=5)
        parts = partitioner(ds, num_clients, rng)
        assert len(parts) == num_clients
        assert_exact_partition(parts, len(ds))

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_no_empty_clients(self, rng, partitioner):
        ds = make_blobs(num_samples=60, num_classes=3)
        parts = partitioner(ds, 6, rng)
        assert all(len(p) > 0 for p in parts)

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_too_many_clients_raises(self, rng, partitioner):
        ds = make_blobs(num_samples=4)
        with pytest.raises(ValueError):
            partitioner(ds, 10, rng)

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_non_positive_clients_raises(self, rng, partitioner):
        with pytest.raises(ValueError, match="positive"):
            partitioner(make_blobs(num_samples=10), 0, rng)

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_same_seed_same_partition(self, partitioner):
        ds = make_blobs(num_samples=90, num_classes=3)
        first = partitioner(ds, 4, np.random.default_rng(9))
        second = partitioner(ds, 4, np.random.default_rng(9))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestIID:
    def test_near_equal_sizes(self, rng):
        ds = make_blobs(num_samples=100)
        parts = partition_iid(ds, 3, rng)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1


class TestHeterogeneous:
    def test_produces_size_variance(self):
        ds = make_blobs(num_samples=400, num_classes=4)
        variances = []
        for seed in range(5):
            parts = partition_heterogeneous(ds, 5, np.random.default_rng(seed))
            variances.append(np.var([len(p) for p in parts]))
        assert np.mean(variances) > 100

    @staticmethod
    def mean_top_class_share(ds, parts):
        return np.mean([
            np.bincount(ds.labels[p], minlength=ds.num_classes).max() / len(p)
            for p in parts
        ])

    def test_skews_label_mixes(self):
        """Each client's samples concentrate on fewer classes than under
        an iid split of the same data."""
        ds = make_blobs(num_samples=600, num_classes=4)
        share = {
            partitioner: np.mean([
                self.mean_top_class_share(ds, partitioner(ds, 5, np.random.default_rng(seed)))
                for seed in range(8)
            ])
            for partitioner in PARTITIONERS
        }
        assert share[partition_heterogeneous] > share[partition_iid] + 0.2

    def test_starved_clients_are_refilled(self):
        """With 12 clients over 40 samples of 2 classes, the Dirichlet draws
        leave clients empty on every seed here; a donor hands each one a
        sample, and the split stays exact."""
        ds = make_blobs(num_samples=40, num_classes=2)
        for seed in range(10):
            parts = partition_heterogeneous(ds, 12, np.random.default_rng(seed))
            assert all(len(p) > 0 for p in parts)
            assert_exact_partition(parts, len(ds))


class TestShards:
    @pytest.mark.parametrize("tau", [1, 3, 6])
    def test_exact_partition(self, rng, tau):
        parts = partition_shards(60, tau, rng)
        assert_exact_partition(parts, 60)
        assert len(parts) == tau

    def test_more_shards_than_samples_raises(self, rng):
        with pytest.raises(ValueError):
            partition_shards(3, 10, rng)


class TestMakeFederated:
    def test_builds_clients(self, rng):
        train = make_blobs(num_samples=60)
        test = make_blobs(num_samples=20, seed=1)
        fed = make_federated(train, test, 4, rng)
        assert fed.num_clients == 4
        assert sum(fed.sizes()) == 60
        assert fed.test_set is test

    def test_default_strategy_is_iid(self):
        train = make_blobs(num_samples=50)
        fed = make_federated(train, make_blobs(), 3, np.random.default_rng(4))
        parts = partition_iid(train, 3, np.random.default_rng(4))
        for client, part in zip(fed.client_datasets, parts):
            np.testing.assert_array_equal(client.labels, train.labels[part])
            np.testing.assert_array_equal(client.images, train.images[part])

    def test_unknown_strategy(self, rng):
        with pytest.raises(ValueError):
            make_federated(make_blobs(), make_blobs(), 2, rng, strategy="magic")

    @pytest.mark.parametrize("strategy", ["iid", "heterogeneous"])
    def test_strategy_selects_the_partitioner(self, strategy):
        train = make_blobs(num_samples=100)
        fed = make_federated(train, make_blobs(), 4, np.random.default_rng(3),
                             strategy=strategy)
        partitioner = {"iid": partition_iid, "heterogeneous": partition_heterogeneous}
        parts = partitioner[strategy](train, 4, np.random.default_rng(3))
        for client, part in zip(fed.client_datasets, parts):
            np.testing.assert_array_equal(client.labels, train.labels[part])


@settings(max_examples=30, deadline=None)
@given(
    num_samples=st.integers(10, 200),
    num_clients=st.integers(1, 8),
    seed=st.integers(0, 1000),
)
def test_property_iid_partition_is_exact(num_samples, num_clients, seed):
    if num_samples < num_clients:
        return
    ds = make_blobs(num_samples=num_samples, num_classes=2, seed=seed)
    parts = partition_iid(ds, num_clients, np.random.default_rng(seed))
    assert_exact_partition(parts, num_samples)


@settings(max_examples=30, deadline=None)
@given(
    num_samples=st.integers(10, 150),
    tau=st.integers(1, 9),
    seed=st.integers(0, 1000),
)
def test_property_shard_partition_is_exact(num_samples, tau, seed):
    if num_samples < tau:
        return
    parts = partition_shards(num_samples, tau, np.random.default_rng(seed))
    assert_exact_partition(parts, num_samples)
