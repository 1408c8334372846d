"""Mini-batch iteration over :class:`~repro.data.dataset.ArrayDataset`."""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from .dataset import ArrayDataset


class DataLoader:
    """Yield ``(images, labels)`` mini-batches from one dataset, or from K
    datasets in lockstep.

    Parameters
    ----------
    dataset:
        Source dataset, or a list of K member datasets (the *K-form*).
        Members must share their sample shape and take the same
        number of steps; their sizes may differ within the final batch.
    batch_size:
        Number of samples per batch; the final batch may be smaller.
    shuffle:
        Reshuffle sample order at the start of every epoch.
    rng:
        Generator used for shuffling (required when ``shuffle=True`` so
        experiments stay deterministic); for the K-form, a list of one
        generator per member.

    The K-form iterates each member exactly as a lone loader over it on
    its own generator would: same indices, same rows, same draws.  Every
    member draws its epoch permutation when the epoch's first step is
    requested, in member order.  A step whose members all have the same
    row count is yielded stacked — ``(K, B)`` indices and labels and
    ``(K, B, ...)`` images, gathered by one fancy index each from copies
    of the members' arrays concatenated once per loader — while a ragged
    final step (unequal member sizes) yields lists of the members' own
    rows.  Either way ``zip(indices, images, labels)`` walks the members.
    """

    def __init__(
        self,
        dataset: Union[ArrayDataset, Sequence[ArrayDataset]],
        batch_size: int,
        shuffle: bool = False,
        rng: Union[None, np.random.Generator, Sequence[np.random.Generator]] = None,
    ) -> None:
        if isinstance(batch_size, bool) or not isinstance(batch_size, (int, np.integer)):
            raise ValueError(f"batch_size must be an integer, got {batch_size!r}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        lone = isinstance(dataset, ArrayDataset)
        members = [dataset] if lone else list(dataset)
        rngs = [rng] * len(members) if lone or rng is None else list(rng)
        if not members:
            raise ValueError("no datasets to load")
        if len(rngs) != len(members):
            raise ValueError(f"{len(members)} datasets but {len(rngs)} generators")
        if shuffle and any(generator is None for generator in rngs):
            raise ValueError("shuffle=True requires an rng for determinism")
        for index, member in enumerate(members):
            if len(member) == 0:
                raise ValueError(
                    "dataset is empty" if lone else f"member {index}'s dataset is empty"
                )
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng
        self._members = members
        self._rngs = rngs
        self._steps = -(-len(members[0]) // batch_size)
        if lone:
            return
        sizes = [len(member) for member in members]
        counts = {-(-size // batch_size) for size in sizes}
        if len(counts) != 1:
            raise ValueError(
                f"member step counts differ (dataset sizes beyond "
                f"final-batch padding): {sorted(counts)}"
            )
        samples = {member.images.shape[1:] for member in members}
        if len(samples) != 1:
            raise ValueError(f"members differ in sample shape: {sorted(samples)}")
        # Equal step counts leave only the final step with unequal rows.
        self._ragged = len(set(sizes)) > 1
        self._stacked_rows = (self._steps - 1) * batch_size if self._ragged else sizes[0]
        self._offsets = np.cumsum([0] + sizes[:-1])[:, None]
        self._images = np.concatenate([member.images for member in members])
        self._labels = np.concatenate([member.labels for member in members])

    def __len__(self) -> int:
        return self._steps

    def _order(self, index: int) -> np.ndarray:
        n = len(self._members[index])
        return self._rngs[index].permutation(n) if self.shuffle else np.arange(n)

    def iter_indexed(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(indices, images, labels)`` per batch, where ``indices``
        are the batch's sample positions in the dataset (``images`` is
        ``dataset.images[indices]``) — for callers that keep per-sample
        arrays aligned with the dataset.  The K-form yields them per
        member, stacked or as lists (see the class docstring).
        """
        if isinstance(self.dataset, ArrayDataset):
            return self._iter_lone()
        return self._iter_members()

    def _iter_lone(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        order = self._order(0)
        for start in range(0, len(order), self.batch_size):
            batch = order[start : start + self.batch_size]
            yield batch, self.dataset.images[batch], self.dataset.labels[batch]

    def _iter_members(self) -> Iterator[Tuple[Union[np.ndarray, List[np.ndarray]], ...]]:
        orders = [self._order(index) for index in range(len(self._members))]
        indices = np.stack([order[: self._stacked_rows] for order in orders])
        rows = indices + self._offsets
        for start in range(0, self._stacked_rows, self.batch_size):
            stop = start + self.batch_size
            batch = rows[:, start:stop]
            yield indices[:, start:stop], self._images[batch], self._labels[batch]
        if self._ragged:
            tails = [order[self._stacked_rows :] for order in orders]
            yield (
                tails,
                [member.images[tail] for member, tail in zip(self._members, tails)],
                [member.labels[tail] for member, tail in zip(self._members, tails)],
            )

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for _, images, labels in self.iter_indexed():
            yield images, labels
