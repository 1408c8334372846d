"""``repro.data`` — datasets, loaders, partitioning and backdoor tooling."""

from .backdoor import (
    BackdoorAttack,
    TriggerPattern,
    select_attack_target,
    select_poison_indices,
)
from .dataset import ArrayDataset, FederatedDataset, SharedArrayDataset
from .loader import DataLoader
from .partition import (
    partition_heterogeneous,
    make_federated,
    partition_iid,
    partition_shards,
)
from .synthetic import (
    DATASET_FACTORIES,
    PAPER_SPLITS,
    SPECS,
    SyntheticSpec,
    make_dataset,
    synthetic_cifar10,
    synthetic_cifar100,
    synthetic_fmnist,
    synthetic_mnist,
)

__all__ = [
    "ArrayDataset",
    "FederatedDataset",
    "SharedArrayDataset",
    "DataLoader",
    "TriggerPattern",
    "BackdoorAttack",
    "select_poison_indices",
    "select_attack_target",
    "partition_iid",
    "partition_shards",
    "make_federated",
    "SyntheticSpec",
    "SPECS",
    "PAPER_SPLITS",
    "DATASET_FACTORIES",
    "make_dataset",
    "synthetic_mnist",
    "synthetic_fmnist",
    "synthetic_cifar10",
    "synthetic_cifar100",
]
