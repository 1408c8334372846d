"""LeNet-5 variants as described in the paper's experimental setup.

"The model for MNIST and FMNIST is a traditional LeNet-5 model [...]
consists of 2 convolutional layers, 2 max pool layers, and 2 fully
connected layers", while "the models for CIFAR-10 are a modified LeNet-5
consisting of 2 convolutional layers, 2 max pool layers, and 3 fully
connected layers".
"""

from __future__ import annotations

import numpy as np

from ..layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from ..module import Module
from ..tensor import Tensor


class LeNet5(Module):
    """Traditional LeNet-5 for 1x28x28 inputs (MNIST / FMNIST).

    conv(1→6, 5x5) → pool2 → conv(6→16, 5x5) → pool2 → fc(256→120) → fc(120→classes)
    """

    stackable = True

    def __init__(self, num_classes: int, rng: np.random.Generator, in_channels: int = 1,
                 image_size: int = 28) -> None:
        super().__init__()
        self.num_classes = num_classes
        after_conv1 = (image_size - 4) // 2
        after_conv2 = (after_conv1 - 4) // 2
        if after_conv2 <= 0:
            raise ValueError(f"image size {image_size} too small for LeNet-5")
        flat = 16 * after_conv2 * after_conv2
        self.features = Sequential(
            Conv2d(in_channels, 6, kernel_size=5, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(6, 16, kernel_size=5, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
        )
        self.classifier = Sequential(
            Linear(flat, 120, rng=rng),
            ReLU(),
            Linear(120, num_classes, rng=rng),
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.features(x))


class ModifiedLeNet5(Module):
    """Modified LeNet-5 for 3x32x32 inputs (CIFAR-10): three FC layers.

    conv(3→6, 5x5) → pool2 → conv(6→16, 5x5) → pool2 →
    fc(400→120) → fc(120→84) → fc(84→classes)
    """

    stackable = True

    def __init__(self, num_classes: int, rng: np.random.Generator, in_channels: int = 3,
                 image_size: int = 32) -> None:
        super().__init__()
        self.num_classes = num_classes
        after_conv1 = (image_size - 4) // 2
        after_conv2 = (after_conv1 - 4) // 2
        if after_conv2 <= 0:
            raise ValueError(f"image size {image_size} too small for modified LeNet-5")
        flat = 16 * after_conv2 * after_conv2
        self.features = Sequential(
            Conv2d(in_channels, 6, kernel_size=5, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(6, 16, kernel_size=5, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
        )
        self.classifier = Sequential(
            Linear(flat, 120, rng=rng),
            ReLU(),
            Linear(120, 84, rng=rng),
            ReLU(),
            Linear(84, num_classes, rng=rng),
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.features(x))
