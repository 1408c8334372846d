"""Client and shard partitioning strategies for the FL simulation.

* :func:`partition_iid` — the paper's default: "we uniformly assigned the
  data from the four training datasets to all clients".
* :func:`partition_heterogeneous` — the heterogeneity setting of Fig. 8 /
  Table XII: "data is randomly assigned to each user", skewing both the
  sizes and the label mixes of the local datasets.
* :func:`partition_shards` — τ-way sharding of one client's local data
  (Fig. 2 of the paper; SISA-style).
"""

from __future__ import annotations

from typing import List

import numpy as np

from .dataset import ArrayDataset, FederatedDataset

#: Dirichlet concentrations of :func:`partition_heterogeneous`: the label
#: mix of each class across clients, and the clients' target sizes.
LABEL_ALPHA = 0.3
SIZE_CONCENTRATION = 0.5


def _validate(num_items: int, num_parts: int) -> None:
    if num_parts <= 0:
        raise ValueError(f"number of parts must be positive, got {num_parts}")
    if num_items < num_parts:
        raise ValueError(f"cannot split {num_items} items into {num_parts} parts")


def partition_iid(
    dataset: ArrayDataset, num_clients: int, rng: np.random.Generator
) -> List[np.ndarray]:
    """Shuffle and split indices into ``num_clients`` near-equal parts."""
    _validate(len(dataset), num_clients)
    order = rng.permutation(len(dataset))
    return [np.sort(part) for part in np.array_split(order, num_clients)]


def partition_heterogeneous(
    dataset: ArrayDataset, num_clients: int, rng: np.random.Generator
) -> List[np.ndarray]:
    """Combined size + label skew — the paper's Fig. 8 / Table XII setting.

    The paper constructs heterogeneity by "randomly assigning" data to
    users, which simultaneously skews local dataset *sizes* (quantified by
    the size variance of Table XII) and local *label mixes* (which is what
    makes quality-aware aggregation outperform plain FedAvg). We model both:
    target size proportions are drawn from a Dirichlet, then each class is
    split across clients by a Dirichlet biased toward those sizes.
    """
    _validate(len(dataset), num_clients)
    size_props = rng.dirichlet(np.full(num_clients, SIZE_CONCENTRATION))
    client_indices: List[List[int]] = [[] for _ in range(num_clients)]
    for cls in range(dataset.num_classes):
        cls_idx = np.flatnonzero(dataset.labels == cls)
        if cls_idx.size == 0:
            continue
        rng.shuffle(cls_idx)
        alpha_vec = LABEL_ALPHA * num_clients * size_props + 1e-8
        proportions = rng.dirichlet(alpha_vec)
        cuts = (np.cumsum(proportions)[:-1] * cls_idx.size).astype(int)
        for client, part in enumerate(np.split(cls_idx, cuts)):
            client_indices[client].extend(part.tolist())
    for client in range(num_clients):
        if not client_indices[client]:
            donor = max(range(num_clients), key=lambda c: len(client_indices[c]))
            client_indices[client].append(client_indices[donor].pop())
    return [np.sort(np.array(idx, dtype=np.int64)) for idx in client_indices]


def make_federated(
    train: ArrayDataset,
    test: ArrayDataset,
    num_clients: int,
    rng: np.random.Generator,
    strategy: str = "iid",
) -> FederatedDataset:
    """Partition ``train`` across clients and bundle with the shared test set."""
    strategies = {"iid": partition_iid, "heterogeneous": partition_heterogeneous}
    if strategy not in strategies:
        raise ValueError(f"unknown strategy {strategy!r}; available: {sorted(strategies)}")
    parts = strategies[strategy](train, num_clients, rng)
    return FederatedDataset(
        client_datasets=[train.subset(part) for part in parts],
        test_set=test,
    )


def partition_shards(
    num_samples: int, num_shards: int, rng: np.random.Generator
) -> List[np.ndarray]:
    """Split one client's local indices into τ shards (paper Fig. 2).

    Returns index arrays *into the client's local dataset* (0..N-1).
    """
    _validate(num_samples, num_shards)
    order = rng.permutation(num_samples)
    return [np.sort(part) for part in np.array_split(order, num_shards)]
