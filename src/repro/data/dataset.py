"""In-memory labelled image dataset container.

Everything downstream (loaders, partitioners, the FL simulator, the
backdoor tooling) works on :class:`ArrayDataset`: a ``(N, C, H, W)`` image
array plus integer labels, with cheap index-based views.

Images are float64.  :meth:`ArrayDataset.share` re-houses the arrays in
POSIX shared memory (:class:`SharedArrayDataset`).  A shared dataset
behaves identically in-process, but pickles as a tiny by-reference
handle, so fanning tasks out to a persistent worker pool
(:class:`~repro.runtime.pool.PoolBackend`) ships shard/client/slice
*index selections* instead of array copies: fan-out memory stays
O(data), not O(workers × data).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Iterator, Sequence, Tuple

import numpy as np


def _whole_numbers(values, what: str) -> np.ndarray:
    """``values`` as an ``int64`` array of the same shape.

    Only whole numbers pass: integer arrays, and floats that are finite
    and integral (``3.0``).  A fractional or non-finite float, a string,
    a boolean or any other object raises :class:`ValueError` rather than
    being truncated into a value the caller never named.
    """
    array = np.asarray(values)
    if array.size == 0:
        return np.zeros(array.shape, dtype=np.int64)
    if array.dtype.kind == "f":
        if not np.all(np.isfinite(array)) or np.any(array != np.trunc(array)):
            raise ValueError(f"{what} must be whole numbers, got {values!r}")
        if np.abs(array).max() >= 2.0**63:
            raise ValueError(f"{what} exceed the int64 range: {values!r}")
    elif array.dtype.kind == "u":
        if array.max() > np.iinfo(np.int64).max:
            raise ValueError(f"{what} exceed the int64 range: {values!r}")
    elif array.dtype.kind != "i":
        raise ValueError(f"{what} must be integers, got {values!r}")
    return array.astype(np.int64, copy=False)


def sample_indices(indices) -> np.ndarray:
    """``indices`` as sorted, unique ``int64`` sample indices.

    The one intake rule for naming samples to delete, whoever names them
    (a federated client, a SISA ensemble, the deletion service):
    whole numbers only, nothing truncated.  Range checks against a
    dataset are the caller's.
    """
    return np.unique(_whole_numbers(indices, "indices"))


@dataclass
class ArrayDataset:
    """Images and labels held as NumPy arrays.

    Attributes
    ----------
    images:
        Array of shape ``(N, C, H, W)``, stored as float64.
    labels:
        Integer array of shape ``(N,)`` with values in ``[0, num_classes)``
        (integral floats are taken as integers; any other value raises).
    num_classes:
        Total number of label classes (α in the paper's notation).
    name:
        Human-readable dataset name (for reports).
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = ""

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = _whole_numbers(self.labels, "labels")
        if self.images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got shape {self.images.shape}")
        if self.labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {self.labels.shape}")
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"image/label count mismatch: {len(self.images)} vs {len(self.labels)}"
            )
        if self.num_classes <= 0:
            raise ValueError(f"num_classes must be positive, got {self.num_classes}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def in_channels(self) -> int:
        return self.images.shape[1]

    @property
    def image_size(self) -> int:
        return self.images.shape[2]

    @property
    def input_dim(self) -> int:
        """Flattened per-sample dimension (e.g. 784 for MNIST)."""
        return int(np.prod(self.images.shape[1:]))

    def subset(self, indices: Sequence[int]) -> "ArrayDataset":
        """Return a new dataset containing only ``indices`` (copies data)."""
        indices = np.asarray(indices, dtype=np.int64)
        return ArrayDataset(
            images=self.images[indices].copy(),
            labels=self.labels[indices].copy(),
            num_classes=self.num_classes,
            name=self.name,
        )

    def remove(self, indices: Sequence[int]) -> "ArrayDataset":
        """Return a new dataset with ``indices`` removed (set difference).

        Defined as ``subset(keep_indices(indices))`` so the equivalence
        the runtime tasks rely on (a deferred index selection trains on
        exactly the arrays a materialised removal would) holds by
        construction.
        """
        return self.subset(self.keep_indices(indices))

    def keep_indices(self, removed: Sequence[int]) -> np.ndarray:
        """Indices surviving the removal of ``removed`` (order preserved).

        ``subset(keep_indices(r))`` equals ``remove(r)`` array-for-array;
        carrying the indices instead of the materialised subset is what
        lets runtime tasks defer the copy to the worker that trains on it.
        """
        mask = np.ones(len(self), dtype=bool)
        mask[np.asarray(removed, dtype=np.int64)] = False
        return np.flatnonzero(mask)

    def split(self, indices: Sequence[int]) -> Tuple["ArrayDataset", "ArrayDataset"]:
        """Split into (selected, remainder) — the paper's (D_f, D_r)."""
        return self.subset(indices), self.remove(indices)

    def concat(self, other: "ArrayDataset") -> "ArrayDataset":
        """Concatenate two datasets with matching class spaces."""
        if other.num_classes != self.num_classes:
            raise ValueError("cannot concat datasets with different num_classes")
        return ArrayDataset(
            images=np.concatenate([self.images, other.images]),
            labels=np.concatenate([self.labels, other.labels]),
            num_classes=self.num_classes,
            name=self.name,
        )

    def shuffled(self, rng: np.random.Generator) -> "ArrayDataset":
        """Return a shuffled copy."""
        order = rng.permutation(len(self))
        return self.subset(order)

    def class_counts(self) -> np.ndarray:
        """Per-class sample counts, shape ``(num_classes,)``."""
        return np.bincount(self.labels, minlength=self.num_classes)

    def share(self) -> "SharedArrayDataset":
        """Return a copy of this dataset backed by POSIX shared memory.

        The shared copy behaves exactly like the original (same values,
        same dtype, trains bit-identically) but pickles by *reference* —
        a few hundred bytes naming the memory block — instead of by
        value.  Use it when fanning work out through a pickling backend
        (:class:`~repro.runtime.pool.PoolBackend`): every worker attaches
        to the one block rather than receiving its own copy.

        The creating process owns the block and unlinks it when the
        shared dataset is garbage collected (or :meth:`SharedArrayDataset.close`
        is called explicitly); attached processes never unlink.
        """
        return SharedArrayDataset.from_arrays(
            self.images, self.labels, self.num_classes, self.name
        )


def _release_shared(blocks: Tuple[shared_memory.SharedMemory, ...], owner: bool) -> None:
    """Finalizer body for a :class:`SharedArrayDataset`'s memory blocks."""
    for block in blocks:
        try:
            block.close()
        except BufferError:
            # An ndarray view extracted from the dataset outlives it; the
            # mapping stays until the process exits, which is safe —
            # unlink below still removes the name.
            pass
        except (FileNotFoundError, OSError):
            pass
        if owner:
            try:
                block.unlink()
            except (FileNotFoundError, OSError):
                pass


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block by name.

    Attaching re-registers the name with the resource tracker (CPython
    < 3.13), but every process in one ``multiprocessing`` tree shares a
    single tracker whose cache is a set — the re-registration collapses
    into the creator's entry and the creator's ``unlink()`` retires it
    exactly once.  (Explicitly unregistering here would instead clobber
    the owner's registration from a forked worker.)
    """
    return shared_memory.SharedMemory(name=name)


def _attach_shared_dataset(
    image_block_name: str,
    image_shape: tuple,
    label_block_name: str,
    label_count: int,
    num_classes: int,
    name: str,
) -> "SharedArrayDataset":
    """Unpickling target: rebuild a shared dataset as an attachment."""
    image_block = _attach_block(image_block_name)
    label_block = _attach_block(label_block_name)
    images = np.ndarray(image_shape, dtype=np.float64, buffer=image_block.buf)
    labels = np.ndarray((label_count,), dtype=np.int64, buffer=label_block.buf)
    dataset = SharedArrayDataset(
        images=images,
        labels=labels,
        num_classes=num_classes,
        name=name,
    )
    dataset._adopt((image_block, label_block), owner=False)
    return dataset


class SharedArrayDataset(ArrayDataset):
    """An :class:`ArrayDataset` whose arrays live in shared memory.

    Construct via :meth:`ArrayDataset.share` (or :meth:`from_arrays`).
    Identical in-process behaviour; cross-process pickling is O(1) in the
    data size.  Derived datasets (:meth:`subset` etc.) are ordinary
    private-memory :class:`ArrayDataset` copies — exactly what a worker
    wants when materialising its slice of the shared base.

    Platform note: the worker-side attach bookkeeping assumes the
    ``fork`` start method (one resource tracker shared down the process
    tree — see :func:`_attach_block`).  On spawn-only platforms
    (Windows), each worker runs its own tracker, which may reclaim
    parent-owned blocks when the worker exits; prefer plain datasets
    with a pooling backend there.
    """

    @classmethod
    def from_arrays(
        cls,
        images: np.ndarray,
        labels: np.ndarray,
        num_classes: int,
        name: str = "",
    ) -> "SharedArrayDataset":
        images = np.ascontiguousarray(images, dtype=np.float64)
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        image_block = shared_memory.SharedMemory(create=True, size=images.nbytes)
        label_block = shared_memory.SharedMemory(create=True, size=max(1, labels.nbytes))
        image_view = np.ndarray(images.shape, dtype=np.float64, buffer=image_block.buf)
        image_view[...] = images
        label_view = np.ndarray(labels.shape, dtype=np.int64, buffer=label_block.buf)
        label_view[...] = labels
        dataset = cls(
            images=image_view,
            labels=label_view,
            num_classes=num_classes,
            name=name,
        )
        dataset._adopt((image_block, label_block), owner=True)
        return dataset

    def _adopt(self, blocks: Tuple[shared_memory.SharedMemory, ...], owner: bool) -> None:
        self._blocks = blocks
        self._owner = owner
        self._finalizer = weakref.finalize(self, _release_shared, blocks, owner)

    def close(self) -> None:
        """Detach now (and unlink, if this process created the block)."""
        self._finalizer()

    @property
    def is_owner(self) -> bool:
        """Whether this process created (and will unlink) the memory."""
        return self._owner

    def share(self) -> "SharedArrayDataset":
        """Already shared — no second copy."""
        return self

    def __deepcopy__(self, memo) -> "SharedArrayDataset":
        """A genuinely independent copy (fresh shared block, owned).

        Without this, ``deepcopy`` would fall back to ``__reduce__`` and
        re-attach the *same* memory — a "copy" whose writes corrupt the
        original.
        """
        return SharedArrayDataset.from_arrays(
            np.array(self.images), np.array(self.labels), self.num_classes, self.name
        )

    def __reduce__(self):
        # By-reference transport for live cross-process fan-out ONLY: the
        # handle names a block that must still exist (and stay linked) at
        # unpickling time.  Persisting this pickle to disk and loading it
        # after the owner unlinks raises FileNotFoundError — serialise
        # a plain subset/copy for storage instead.
        return (
            _attach_shared_dataset,
            (
                self._blocks[0].name,
                self.images.shape,
                self._blocks[1].name,
                len(self.labels),
                self.num_classes,
                self.name,
            ),
        )


@dataclass
class FederatedDataset:
    """A test set plus one local :class:`ArrayDataset` per client."""

    client_datasets: list = field(default_factory=list)
    test_set: ArrayDataset = None  # type: ignore[assignment]

    @property
    def num_clients(self) -> int:
        return len(self.client_datasets)

    def __iter__(self) -> Iterator[ArrayDataset]:
        return iter(self.client_datasets)

    def client(self, index: int) -> ArrayDataset:
        return self.client_datasets[index]

    def sizes(self) -> np.ndarray:
        """Local dataset sizes per client."""
        return np.array([len(d) for d in self.client_datasets])

    def size_variance(self) -> float:
        """Variance of local dataset sizes (Table XII heterogeneity metric)."""
        return float(np.var(self.sizes()))

    def share(self) -> "FederatedDataset":
        """Shared-memory copies of every client dataset.

        With the per-client data in shared memory, a round's worth of
        train tasks pickles as index selections + block names — the
        fan-out cost no longer scales with the data.  The test set stays
        a plain :class:`ArrayDataset`: evaluation runs parent-side only,
        so sharing it would buy nothing and cost a full extra copy.
        """
        return FederatedDataset(
            client_datasets=[dataset.share() for dataset in self.client_datasets],
            test_set=self.test_set,
        )
