"""Shared-memory datasets.

The contract of :meth:`ArrayDataset.share`: in-process behaviour is
indistinguishable from the plain dataset (training is bit-identical),
but pickling transports a by-reference handle whose size is independent
of the data — the property the pooling backend's zero-copy fan-out rests
on.  Images are float64, shared or not.
"""

import pickle

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset, FederatedDataset, SharedArrayDataset
from repro.nn.models import RegistryModelFactory
from repro.runtime import SerialBackend, TrainTask, capture_rng
from repro.training import TrainConfig
from repro.training.trainer import train

from ..conftest import make_blobs

FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4)
CONFIG = TrainConfig(epochs=2, batch_size=8, learning_rate=0.05)


class TestImagesAreFloat64:
    def test_default_stays_float64(self):
        dataset = make_blobs(num_samples=12, shape=(1, 4, 4))
        assert dataset.images.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.float16, np.float32, np.float64])
    def test_intake_coerces_values_exactly(self, dtype):
        raw = np.arange(48).reshape(3, 1, 4, 4).astype(dtype)
        dataset = ArrayDataset(images=raw, labels=[0, 1, 2], num_classes=3)
        assert dataset.images.dtype == np.float64
        np.testing.assert_array_equal(dataset.images, raw.astype(np.float64))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.float16, np.float32, np.float64])
    def test_shared_intake_coerces_values_exactly(self, dtype):
        raw = np.arange(48).reshape(3, 1, 4, 4).astype(dtype)
        shared = SharedArrayDataset.from_arrays(raw, np.array([0, 1, 2]), 3)
        try:
            assert shared.images.dtype == np.float64
            np.testing.assert_array_equal(shared.images, raw.astype(np.float64))
        finally:
            shared.close()

    def test_derivations_stay_float64(self):
        blobs = make_blobs(num_samples=12, shape=(1, 4, 4))
        dataset = ArrayDataset(images=blobs.images.astype(np.float32),
                               labels=blobs.labels, num_classes=blobs.num_classes)
        shared = dataset.share()
        try:
            derived = [
                dataset.subset([0, 2]), dataset.remove([1]), dataset.concat(dataset),
                dataset.shuffled(np.random.default_rng(0)), shared, shared.subset([3]),
                pickle.loads(pickle.dumps(shared)),
            ]
            for other in derived:
                assert other.images.dtype == np.float64
            derived[-1].close()
        finally:
            shared.close()

    def test_float32_images_train_as_their_float64_values(self):
        """The upcast happens once, at intake: a dataset handed float32
        images trains bit-identically to one handed the same values in
        float64."""
        blobs = make_blobs(num_samples=24, shape=(1, 4, 4))
        low = blobs.images.astype(np.float32)
        states = []
        for images in (low, low.astype(np.float64)):
            model = FACTORY()
            train(model, ArrayDataset(images=images, labels=blobs.labels, num_classes=3),
                  CONFIG, np.random.default_rng(0))
            states.append(model.state_dict())
        for key, value in states[0].items():
            assert value.dtype == np.float64
            np.testing.assert_array_equal(value, states[1][key])


class TestKeepIndices:
    def test_subset_of_keep_indices_equals_remove(self):
        dataset = make_blobs(num_samples=20, shape=(1, 4, 4))
        removed = [0, 3, 7, 19]
        via_indices = dataset.subset(dataset.keep_indices(removed))
        via_remove = dataset.remove(removed)
        np.testing.assert_array_equal(via_indices.images, via_remove.images)
        np.testing.assert_array_equal(via_indices.labels, via_remove.labels)


class TestSharedArrayDataset:
    def test_share_preserves_values_and_behaviour(self):
        dataset = make_blobs(num_samples=30, shape=(1, 4, 4))
        shared = dataset.share()
        try:
            assert isinstance(shared, SharedArrayDataset)
            assert shared.is_owner
            np.testing.assert_array_equal(shared.images, dataset.images)
            np.testing.assert_array_equal(shared.labels, dataset.labels)
            assert len(shared) == len(dataset)
            np.testing.assert_array_equal(
                shared.class_counts(), dataset.class_counts()
            )
        finally:
            shared.close()

    def test_pickle_is_by_reference(self):
        dataset = make_blobs(num_samples=200, shape=(1, 8, 8))
        shared = dataset.share()
        try:
            payload = pickle.dumps(shared)
            # The whole point: a handle, not the (N*C*H*W)*8-byte array.
            assert len(payload) < 1024 < dataset.images.nbytes
            # Two block names, the image shape, the label count, the class
            # count and the name; images are always float64, so no dtype.
            _, handle = shared.__reduce__()
            assert handle == (
                shared._blocks[0].name, (200, 1, 8, 8), shared._blocks[1].name,
                200, dataset.num_classes, dataset.name,
            )
            assert b"<f8" not in payload
            restored = pickle.loads(payload)
            try:
                assert isinstance(restored, SharedArrayDataset)
                assert not restored.is_owner
                assert restored.images.dtype == np.float64
                assert restored.labels.dtype == np.int64
                assert (restored.num_classes, restored.name) == (
                    dataset.num_classes, dataset.name
                )
                np.testing.assert_array_equal(restored.images, dataset.images)
                np.testing.assert_array_equal(restored.labels, dataset.labels)
            finally:
                restored.close()
        finally:
            shared.close()

    def test_deepcopy_is_independent(self):
        import copy

        shared = make_blobs(num_samples=12, shape=(1, 4, 4)).share()
        clone = copy.deepcopy(shared)
        try:
            assert clone.is_owner  # its own block, not an attachment
            clone.images[...] = 123.0
            assert not (shared.images == 123.0).any()
        finally:
            clone.close()
            shared.close()

    def test_share_of_shared_is_identity(self):
        shared = make_blobs(num_samples=12, shape=(1, 4, 4)).share()
        try:
            assert shared.share() is shared
        finally:
            shared.close()

    def test_subset_returns_private_copy(self):
        shared = make_blobs(num_samples=12, shape=(1, 4, 4)).share()
        try:
            subset = shared.subset(range(6))
            assert type(subset) is ArrayDataset
            # A private copy: mutating it leaves the shared block alone.
            subset.images[...] = 0.0
            assert shared.images.any()
        finally:
            shared.close()

    def test_dtype_preserved_through_share(self):
        rng = np.random.default_rng(0)
        images = rng.normal(size=(12, 1, 4, 4)).astype(np.float32)
        labels = np.arange(12) % 3
        for shared in (
            ArrayDataset(images=images, labels=labels, num_classes=3).share(),
            SharedArrayDataset.from_arrays(images, labels, 3),
        ):
            try:
                assert shared.images.dtype == np.float64
                restored = pickle.loads(pickle.dumps(shared))
                try:
                    assert restored.images.dtype == np.float64
                    np.testing.assert_array_equal(restored.images, shared.images)
                finally:
                    restored.close()
            finally:
                shared.close()

    def test_training_is_bit_identical_on_shared_data(self):
        dataset = make_blobs(num_samples=24, shape=(1, 4, 4))
        shared = dataset.share()
        try:
            plain_task = TrainTask(
                task_id=0,
                model_factory=FACTORY,
                dataset=dataset,
                config=CONFIG,
                rng_state=capture_rng(np.random.default_rng(5)),
            )
            shared_task = TrainTask(
                task_id=0,
                model_factory=FACTORY,
                dataset=shared,
                config=CONFIG,
                rng_state=capture_rng(np.random.default_rng(5)),
            )
            a, b = SerialBackend().run_tasks([plain_task, shared_task])
            assert a.rng_state == b.rng_state
            for key in a.state:
                np.testing.assert_array_equal(a.state[key], b.state[key])
        finally:
            shared.close()

    def test_task_with_indices_defers_the_subset(self):
        dataset = make_blobs(num_samples=24, shape=(1, 4, 4))
        keep = dataset.keep_indices([0, 1, 2, 3])
        via_indices = TrainTask(
            task_id=0,
            model_factory=FACTORY,
            dataset=dataset,
            config=CONFIG,
            rng_state=capture_rng(np.random.default_rng(5)),
            indices=keep,
        ).run()
        via_subset = TrainTask(
            task_id=0,
            model_factory=FACTORY,
            dataset=dataset.subset(keep),
            config=CONFIG,
            rng_state=capture_rng(np.random.default_rng(5)),
        ).run()
        assert via_indices.rng_state == via_subset.rng_state
        for key in via_indices.state:
            np.testing.assert_array_equal(
                via_indices.state[key], via_subset.state[key]
            )

    def test_federated_share(self):
        clients = [make_blobs(num_samples=12, shape=(1, 4, 4), seed=s) for s in range(3)]
        fed = FederatedDataset(
            client_datasets=clients,
            test_set=make_blobs(num_samples=12, shape=(1, 4, 4), seed=9),
        )
        shared = fed.share()
        try:
            assert shared.num_clients == 3
            for original, copy in zip(fed, shared):
                assert isinstance(copy, SharedArrayDataset)
                np.testing.assert_array_equal(original.images, copy.images)
            # The test set is evaluated parent-side only — it must NOT
            # pay for a shared-memory copy.
            assert type(shared.test_set) is ArrayDataset
        finally:
            for dataset in shared.client_datasets:
                dataset.close()

    def test_close_unlinks_block(self):
        shared = make_blobs(num_samples=12, shape=(1, 4, 4)).share()
        names = [block.name for block in shared._blocks]
        shared.close()
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
