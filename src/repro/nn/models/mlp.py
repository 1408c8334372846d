"""A configurable multi-layer perceptron for tests, examples and smoke runs."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..layers import Linear, ReLU, Sequential
from ..module import Module
from ..tensor import Tensor


class MLP(Module):
    """Fully connected classifier over flattened inputs.

    Parameters
    ----------
    in_features:
        Flattened input dimension (e.g. 784 for 28x28 grayscale images).
    num_classes:
        Output dimension.
    hidden:
        Sizes of the hidden layers, each followed by ReLU.
    """

    stackable = True

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        rng: np.random.Generator,
        hidden: Sequence[int] = (64,),
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.num_classes = num_classes
        layers = []
        previous = in_features
        for width in hidden:
            layers.append(Linear(previous, width, rng=rng))
            layers.append(ReLU())
            previous = width
        layers.append(Linear(previous, num_classes, rng=rng))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        # Image batches flatten; an already flat (N, F) input — (K, N, F)
        # in a stack — passes through.
        if x.ndim > self.stack_axes + 2:
            x = x.flatten(start_dim=self.stack_axes + 1)
        return self.net(x)
