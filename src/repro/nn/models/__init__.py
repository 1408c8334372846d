"""Model zoo matching the architectures used in the paper's evaluation.

* :class:`LeNet5` — MNIST / Fashion-MNIST (2 conv, 2 max-pool, 2 FC).
* :class:`ModifiedLeNet5` — CIFAR-10 (2 conv, 2 max-pool, 3 FC).
* :func:`resnet` — CIFAR-style residual networks of depth ``6n + 2``
  (the registry builds depths 8, 20, 32 and 56; the paper uses 32 and 56).
* :class:`MLP` — generic baseline for tests and examples.
* :func:`build_model` — string-keyed factory used by the experiment harness.
"""

from .lenet import LeNet5, ModifiedLeNet5
from .mlp import MLP
from .resnet import ResNet, resnet
from .registry import MODEL_BUILDERS, RegistryModelFactory, build_model

__all__ = [
    "LeNet5",
    "ModifiedLeNet5",
    "MLP",
    "ResNet",
    "resnet",
    "MODEL_BUILDERS",
    "RegistryModelFactory",
    "build_model",
]
