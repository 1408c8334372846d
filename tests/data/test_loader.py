"""DataLoader batching semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import DataLoader
from repro.training import TrainConfig

from ..conftest import make_blobs
from ..reference_loops import reference_lockstep_epochs


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
    @pytest.mark.parametrize(
        "batch_size", [0, 2.5, float("inf"), float("nan"), True, 4.0, "4"]
    )
    def test_rejects_non_positive_integral_batch(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            DataLoader(make_blobs(), batch_size=batch_size)

    def test_accepts_numpy_integer_batch(self):
        loader = DataLoader(make_blobs(num_samples=10), batch_size=np.int64(4))
        assert [len(y) for _, y in loader] == [4, 4, 2]

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            DataLoader(make_blobs().subset([]), batch_size=4)

    def test_rejects_empty_member_by_index(self):
        members = [make_blobs(num_samples=8), make_blobs().subset([])]
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(ValueError, match="member 1"):
            DataLoader(members, batch_size=4, shuffle=True, rng=rngs)

    def test_rejects_unequal_step_counts(self):
        members = [make_blobs(num_samples=8), make_blobs(num_samples=9)]
        with pytest.raises(ValueError, match="step counts"):
            DataLoader(members, batch_size=4)

    def test_rejects_unequal_sample_shapes(self):
        members = [make_blobs(num_samples=8, shape=(1, 4, 4)),
                   make_blobs(num_samples=8, shape=(1, 2, 8))]
        with pytest.raises(ValueError, match="sample shape"):
            DataLoader(members, batch_size=4)

    def test_k_form_needs_one_generator_per_member(self):
        members = [make_blobs(num_samples=8)] * 2
        with pytest.raises(ValueError, match="generators"):
            DataLoader(members, batch_size=4, shuffle=True, rng=[np.random.default_rng(0)])
        with pytest.raises(ValueError, match="rng"):
            DataLoader(members, batch_size=4, shuffle=True, rng=[np.random.default_rng(0), None])


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


@st.composite
def lockstep_cohorts(draw):
    """K member sizes that share a step count at a batch size in 1..n,
    either all equal or ragged within the final batch, plus epochs."""
    members = draw(st.integers(1, 6))
    first = draw(st.integers(1, 30))
    batch_size = draw(st.integers(1, first))
    steps = -(-first // batch_size)
    sizes = [first] * members
    if draw(st.booleans()):  # ragged: any size with the same step count
        least = (steps - 1) * batch_size + 1
        sizes[1:] = [draw(st.integers(least, steps * batch_size)) for _ in sizes[1:]]
    return sizes, batch_size, draw(st.integers(1, 3))


@settings(max_examples=80, deadline=None)
@given(cohort=lockstep_cohorts(), seed=st.integers(0, 2**16))
def test_k_form_iterates_each_member_as_it_would_alone(cohort, seed):
    """Per member, the K-form yields exactly the ``(indices, images,
    labels)`` of a lone loader over that member on a twin generator and
    of the zip-of-loaders it replaced; every sample appears once per
    epoch per member; every generator ends where its twins do.  Steps
    where all members have the same row count come stacked, a ragged
    final step as per-member lists."""
    sizes, batch_size, epochs = cohort
    members = [
        make_blobs(num_samples=size, num_classes=3, seed=seed + index)
        for index, size in enumerate(sizes)
    ]

    def generators():
        return [np.random.default_rng([seed, index]) for index in range(len(sizes))]

    rngs, lone_rngs, reference_rngs = generators(), generators(), generators()
    loader = DataLoader(members, batch_size, shuffle=True, rng=rngs)
    lones = [
        DataLoader(member, batch_size, shuffle=True, rng=rng)
        for member, rng in zip(members, lone_rngs)
    ]
    config = TrainConfig(epochs=epochs, batch_size=batch_size)
    reference = reference_lockstep_epochs(members, reference_rngs, config)
    for reference_steps in reference:
        steps = list(loader.iter_indexed())
        assert len(steps) == len(loader) == len(reference_steps)
        for position, (indices, images, labels) in enumerate(steps):
            if len(set(sizes)) > 1 and position == len(steps) - 1:
                assert isinstance(images, list)
            else:
                assert images.shape[:2] == labels.shape == indices.shape
                assert images.shape[0] == len(sizes)
        for index, (member, lone) in enumerate(zip(members, lones)):
            mine = [tuple(zip(*step))[index] for step in steps]
            alone = list(lone.iter_indexed())
            theirs = [step[index] for step in reference_steps]
            assert len(mine) == len(alone) == len(theirs)
            for triples in zip(mine, alone, theirs):
                for arrays in zip(*triples):
                    for other in arrays[1:]:
                        assert other.dtype == arrays[0].dtype
                        np.testing.assert_array_equal(other, arrays[0])
            seen = np.concatenate([indices for indices, _, _ in mine])
            counts = np.bincount(seen, minlength=len(member))
            assert len(seen) == len(member) and (counts == 1).all()
            for indices, images, labels in mine:
                np.testing.assert_array_equal(images, member.images[indices])
                np.testing.assert_array_equal(labels, member.labels[indices])
        for mine, alone, theirs in zip(rngs, lone_rngs, reference_rngs):
            assert mine.bit_generator.state == alone.bit_generator.state
            assert mine.bit_generator.state == theirs.bit_generator.state


def test_k_form_draws_in_member_order():
    """Members sharing one generator see the draws the zip-of-loaders
    gave them: member 0's permutation first, at the epoch's first step."""
    members = [make_blobs(num_samples=size, seed=size) for size in (7, 9, 8)]
    shared, twin = np.random.default_rng(5), np.random.default_rng(5)
    loader = DataLoader(members, 3, shuffle=True, rng=[shared] * 3)
    assert shared.bit_generator.state == twin.bit_generator.state  # building draws nothing
    config = TrainConfig(epochs=2, batch_size=3)
    for reference_steps in reference_lockstep_epochs(members, [twin] * 3, config):
        for step, reference_step in zip(loader.iter_indexed(), reference_steps):
            for mine, theirs in zip(zip(*step), reference_step):
                for array, other in zip(mine, theirs):
                    np.testing.assert_array_equal(array, other)
        assert shared.bit_generator.state == twin.bit_generator.state
