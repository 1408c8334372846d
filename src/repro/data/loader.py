"""Mini-batch iteration over :class:`~repro.data.dataset.ArrayDataset`."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from .dataset import ArrayDataset


class DataLoader:
    """Yield ``(images, labels)`` mini-batches from a dataset.

    Parameters
    ----------
    dataset:
        Source dataset.
    batch_size:
        Number of samples per batch; the final batch may be smaller.
    shuffle:
        Reshuffle sample order at the start of every epoch.
    rng:
        Generator used for shuffling (required when ``shuffle=True`` so
        experiments stay deterministic).
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int,
        shuffle: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if shuffle and rng is None:
            raise ValueError("shuffle=True requires an rng for determinism")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def iter_indexed(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(indices, images, labels)`` per batch, where ``indices``
        are the batch's sample positions in the dataset (``images`` is
        ``dataset.images[indices]``) — for callers that keep per-sample
        arrays aligned with the dataset.
        """
        n = len(self.dataset)
        order = self.rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            batch = order[start : start + self.batch_size]
            yield batch, self.dataset.images[batch], self.dataset.labels[batch]

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for _, images, labels in self.iter_indexed():
            yield images, labels
