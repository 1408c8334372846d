"""ArrayDataset / FederatedDataset container semantics."""

import numpy as np
import pytest

from repro.data import ArrayDataset, FederatedDataset

from ..conftest import make_blobs


class TestValidation:
    def test_rejects_3d_images(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((4, 8, 8)), np.zeros(4, dtype=int), 2)

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((4, 1, 8, 8)), np.zeros(3, dtype=int), 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((2, 1, 4, 4)), np.array([0, 5]), 2)

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((2, 1, 4, 4)), np.array([0, -1]), 2)

    def test_rejects_2d_labels(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((2, 1, 4, 4)), np.zeros((2, 1), dtype=int), 2)

    def test_rejects_nonpositive_classes(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((2, 1, 4, 4)), np.zeros(2, dtype=int), 0)

    @pytest.mark.parametrize(
        "labels",
        [[0.0, 1.7, 2.9, 0.2], [0.0, 1.0, np.nan, 0.0], [True, False, True, False],
         ["0", "1", "2", "0"]],
        ids=["fractional", "nan", "boolean", "string"],
    )
    def test_labels_are_whole_numbers_never_truncated(self, labels):
        # [0.0, 1.7, 2.9, 0.2] used to become the labels [0, 1, 2, 0].
        with pytest.raises(ValueError, match="labels"):
            ArrayDataset(np.zeros((4, 1, 4, 4)), labels, 3)

    def test_integral_float_labels_are_integers(self):
        dataset = ArrayDataset(np.zeros((3, 1, 4, 4)), [2.0, 0.0, 1.0], 3)
        assert dataset.labels.dtype == np.int64
        assert dataset.labels.tolist() == [2, 0, 1]


class TestProperties:
    def test_basic_properties(self):
        ds = make_blobs(num_samples=30, num_classes=3, shape=(1, 8, 8))
        assert len(ds) == 30
        assert ds.in_channels == 1
        assert ds.image_size == 8
        assert ds.input_dim == 64

    def test_class_counts(self):
        ds = make_blobs(num_samples=30, num_classes=3)
        np.testing.assert_array_equal(ds.class_counts(), [10, 10, 10])


class TestSubsetRemoveSplit:
    def test_subset_selects(self):
        ds = make_blobs(num_samples=10)
        sub = ds.subset([0, 5, 9])
        assert len(sub) == 3
        np.testing.assert_allclose(sub.images[1], ds.images[5])

    def test_subset_is_a_copy(self):
        ds = make_blobs(num_samples=10)
        sub = ds.subset([0])
        sub.images[0] = 0.0
        assert not np.allclose(ds.images[0], 0.0)

    def test_remove_drops(self):
        ds = make_blobs(num_samples=10)
        rest = ds.remove([0, 1, 2])
        assert len(rest) == 7
        np.testing.assert_allclose(rest.images[0], ds.images[3])

    def test_split_partitions_exactly(self):
        ds = make_blobs(num_samples=12)
        forget, retain = ds.split([1, 4, 7])
        assert len(forget) == 3
        assert len(retain) == 9
        total = np.concatenate([forget.labels, retain.labels])
        assert sorted(total.tolist()) == sorted(ds.labels.tolist())

    def test_concat_roundtrip_count(self):
        ds = make_blobs(num_samples=10)
        forget, retain = ds.split([0, 1])
        merged = forget.concat(retain)
        assert len(merged) == len(ds)

    def test_concat_class_mismatch_raises(self):
        a = make_blobs(num_samples=6, num_classes=2)
        b = make_blobs(num_samples=6, num_classes=3)
        with pytest.raises(ValueError):
            a.concat(b)

    def test_shuffled_preserves_pairs(self, rng):
        ds = make_blobs(num_samples=20, num_classes=4)
        shuffled = ds.shuffled(rng)
        # every (image, label) pair must still exist
        for i in range(len(shuffled)):
            matches = np.where(
                np.isclose(ds.images, shuffled.images[i]).all(axis=(1, 2, 3))
            )[0]
            assert any(ds.labels[m] == shuffled.labels[i] for m in matches)


class TestFederatedDataset:
    def test_sizes_and_variance(self):
        clients = [make_blobs(num_samples=n) for n in (10, 20, 30)]
        fed = FederatedDataset(client_datasets=clients, test_set=make_blobs())
        np.testing.assert_array_equal(fed.sizes(), [10, 20, 30])
        np.testing.assert_allclose(fed.size_variance(), np.var([10, 20, 30]))

    def test_iteration_and_access(self):
        clients = [make_blobs(num_samples=6), make_blobs(num_samples=9)]
        fed = FederatedDataset(client_datasets=clients, test_set=make_blobs())
        assert fed.num_clients == 2
        assert len(fed.client(1)) == 9
        assert [len(c) for c in fed] == [6, 9]
