"""DataLoader batching semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import DataLoader

from ..conftest import make_blobs


class TestBatching:
    def test_batch_count(self):
        ds = make_blobs(num_samples=25)
        loader = DataLoader(ds, batch_size=10)
        assert len(loader) == 3
        sizes = [len(y) for _, y in loader]
        assert sizes == [10, 10, 5]

    def test_covers_all_samples_in_order(self):
        ds = make_blobs(num_samples=12)
        loader = DataLoader(ds, batch_size=5)
        labels = np.concatenate([y for _, y in loader])
        np.testing.assert_array_equal(labels, ds.labels)

    def test_images_align_with_labels(self):
        ds = make_blobs(num_samples=9)
        loader = DataLoader(ds, batch_size=4)
        for images, labels in loader:
            for img, lbl in zip(images, labels):
                idx = np.where(np.isclose(ds.images, img).all(axis=(1, 2, 3)))[0]
                assert any(ds.labels[i] == lbl for i in idx)


class TestShuffling:
    def test_shuffle_requires_rng(self):
        with pytest.raises(ValueError):
            DataLoader(make_blobs(), batch_size=4, shuffle=True)

    def test_shuffle_changes_order(self):
        ds = make_blobs(num_samples=50, num_classes=5)
        loader = DataLoader(ds, batch_size=50, shuffle=True,
                            rng=np.random.default_rng(0))
        (_, labels), = list(loader)
        assert not np.array_equal(labels, ds.labels)
        assert sorted(labels.tolist()) == sorted(ds.labels.tolist())

    def test_epochs_reshuffle(self):
        ds = make_blobs(num_samples=40, num_classes=4)
        loader = DataLoader(ds, batch_size=40, shuffle=True,
                            rng=np.random.default_rng(1))
        (_, first), = list(loader)
        (_, second), = list(loader)
        assert not np.array_equal(first, second)

    def test_deterministic_given_seed(self):
        ds = make_blobs(num_samples=30)
        orders = []
        for _ in range(2):
            loader = DataLoader(ds, batch_size=30, shuffle=True,
                                rng=np.random.default_rng(9))
            (_, labels), = list(loader)
            orders.append(labels)
        np.testing.assert_array_equal(orders[0], orders[1])


class TestValidation:
    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            DataLoader(make_blobs(), batch_size=0)


def _reference_batches(dataset, batch_size, shuffle, rng):
    """``DataLoader.__iter__`` as it was before batches exposed their indices."""
    n = len(dataset)
    order = rng.permutation(n) if shuffle else np.arange(n)
    for start in range(0, n, batch_size):
        batch = order[start : start + batch_size]
        yield dataset.images[batch], dataset.labels[batch]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    batch_size=st.integers(1, 45),
    shuffle=st.booleans(),
    seed=st.integers(0, 1000),
)
def test_indexed_iteration_partitions_the_epoch(n, batch_size, shuffle, seed):
    """``iter_indexed`` yields every sample exactly once per epoch, its
    images are the dataset rows at the yielded indices, and it draws from
    the generator exactly as plain iteration does: same batches, same
    state afterwards."""
    ds = make_blobs(num_samples=n, num_classes=3)
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    indexed = DataLoader(ds, batch_size, shuffle=shuffle, rng=rngs[0])
    plain = DataLoader(ds, batch_size, shuffle=shuffle, rng=rngs[1])
    for _ in range(2):  # two epochs: the reshuffle is part of the contract
        batches = list(indexed.iter_indexed())
        assert len(batches) == len(indexed)
        seen = np.concatenate([idx for idx, _, _ in batches])
        assert len(seen) == n and len(np.unique(seen)) == n
        if not shuffle:
            np.testing.assert_array_equal(seen, np.arange(n))
        plain_batches = list(plain)
        reference = list(_reference_batches(ds, batch_size, shuffle, rngs[2]))
        assert len(reference) == len(plain_batches) == len(batches)
        for (idx, images, labels), (x, y), (ref_x, ref_y) in zip(
            batches, plain_batches, reference
        ):
            np.testing.assert_array_equal(images, ds.images[idx])
            np.testing.assert_array_equal(labels, ds.labels[idx])
            np.testing.assert_array_equal(images, x)
            np.testing.assert_array_equal(labels, y)
            np.testing.assert_array_equal(images, ref_x)
            np.testing.assert_array_equal(labels, ref_y)
        states = [rng.bit_generator.state for rng in rngs]
        assert states[0] == states[1] == states[2]
