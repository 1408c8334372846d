"""Standard neural-network layers used by the paper's model zoo.

Each layer has one ``forward``, and that one runs a lone model or a
stack of K (:mod:`repro.nn.vmap`): in a stack the parameters, the input
and the output carry a leading axis of size :attr:`Module.stack`, slice
``k`` being member ``k``.  A layer reads ``stack_axes`` only where its
axes depend on it (``Flatten``) and ``row_counts`` only where a ragged,
zero-padded step needs it: ``Linear`` issues true-row GEMMs, ``Conv2d``
re-zeroes the padded rows its bias made nonzero.  A class that can do
this says so with ``stackable = True``; ``BatchNorm2d`` cannot (batch
statistics and running buffers are per-replica state a stack would have
to fork).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor


class ReLU(Module):
    """Rectified linear unit."""

    stackable = True

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Flatten(Module):
    """Flatten all dimensions after the batch dimension (in a stack: after
    the stack *and* batch dimensions)."""

    stackable = True

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=self.stack_axes + 1)


class Linear(Module):
    """Fully connected layer ``y = x @ W.T + b``.

    Lone or stacked it is :func:`~repro.nn.functional.linear`, the stack
    axis being the batch axis of its GEMMs; only a stack's ragged step
    leaves it, for the true-row GEMMs of
    :func:`~repro.nn.functional._ragged_linear`.
    """

    stackable = True

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        if bias:
            self.bias: Optional[Parameter] = Parameter(
                init.bias_uniform((out_features,), in_features, rng)
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        rows = self.row_counts
        if rows is not None and F._is_ragged(rows, x.shape[1]):
            return F._ragged_linear(x, self.weight, self.bias, rows)
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Conv2d(Module):
    """2-D convolution layer (cross-correlation, as in PyTorch)."""

    stackable = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            self.bias: Optional[Parameter] = Parameter(
                init.bias_uniform((out_channels,), fan_in, rng)
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)
        return F._mask_padded_rows(out, self.row_counts)

    def __repr__(self) -> str:
        return (
            f"Conv2d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class MaxPool2d(Module):
    """Non-overlapping max pooling."""

    stackable = True

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size)

    def __repr__(self) -> str:
        return f"MaxPool2d(k={self.kernel_size})"


class BatchNorm2d(Module):
    """Batch normalisation over ``(N, H, W)`` per channel.

    Uses batch statistics during training (tracked into running buffers with
    exponential moving average) and the running statistics in eval mode.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", init.zeros((num_features,)))
        self.register_buffer("running_var", init.ones((num_features,)))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects 4-D input, got shape {x.shape}")
        axes = (0, 2, 3)
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            m = self.momentum
            self._set_buffer(
                "running_mean", (1 - m) * self.running_mean + m * mean.data.reshape(-1)
            )
            self._set_buffer(
                "running_var", (1 - m) * self.running_var + m * var.data.reshape(-1)
            )
        else:
            mean = Tensor(self.running_mean.reshape(1, -1, 1, 1))
            var = Tensor(self.running_var.reshape(1, -1, 1, 1))
        x_hat = (x - mean) / ((var + self.eps) ** 0.5)
        gamma = self.gamma.reshape(1, -1, 1, 1)
        beta = self.beta.reshape(1, -1, 1, 1)
        return x_hat * gamma + beta

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class Sequential(Module):
    """Chain of sub-modules applied in order."""

    stackable = True

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._modules.values():
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def __len__(self) -> int:
        return len(self._modules)
