"""CIFAR-style residual networks (He et al., CVPR 2016).

The paper evaluates ResNet32 on CIFAR-10 and ResNet56 on CIFAR-100. These
are the classic 6n+2 CIFAR variants: an initial 3x3 conv to 16 channels,
three stages of ``n`` basic blocks at widths (16, 32, 64) with stride-2
downsampling between stages, global average pooling, and a linear head.

Every depth of the family is built by :func:`resnet`; the benchmark
presets use shallow depths (ResNet8) for CPU runtime.
"""

from __future__ import annotations

import numpy as np

from .. import functional as F
from ..layers import BatchNorm2d, Conv2d, Linear, Sequential
from ..module import Module
from ..tensor import Tensor


class BasicBlock(Module):
    """Two 3x3 convolutions with a residual shortcut."""

    def __init__(self, in_channels: int, out_channels: int, stride: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.conv1 = Conv2d(in_channels, out_channels, 3, rng=rng, stride=stride,
                            padding=1, bias=False)
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, rng=rng, stride=1,
                            padding=1, bias=False)
        self.bn2 = BatchNorm2d(out_channels)
        self.has_projection = stride != 1 or in_channels != out_channels
        if self.has_projection:
            self.proj_conv = Conv2d(in_channels, out_channels, 1, rng=rng,
                                    stride=stride, bias=False)
            self.proj_bn = BatchNorm2d(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out))
        shortcut = self.proj_bn(self.proj_conv(x)) if self.has_projection else x
        return (out + shortcut).relu()


class ResNet(Module):
    """CIFAR ResNet of depth ``6n + 2`` with configurable base width."""

    def __init__(
        self,
        depth: int,
        num_classes: int,
        rng: np.random.Generator,
        in_channels: int = 3,
        base_width: int = 16,
    ) -> None:
        super().__init__()
        n, remainder = divmod(depth - 2, 6)
        if remainder or n < 1:
            raise ValueError(f"CIFAR ResNet depth must be 6n+2 with n >= 1, got {depth}")
        self.depth = depth
        self.num_classes = num_classes
        widths = (base_width, base_width * 2, base_width * 4)

        self.stem_conv = Conv2d(in_channels, widths[0], 3, rng=rng, padding=1, bias=False)
        self.stem_bn = BatchNorm2d(widths[0])
        self.stage1 = self._make_stage(widths[0], widths[0], n, stride=1, rng=rng)
        self.stage2 = self._make_stage(widths[0], widths[1], n, stride=2, rng=rng)
        self.stage3 = self._make_stage(widths[1], widths[2], n, stride=2, rng=rng)
        self.head = Linear(widths[2], num_classes, rng=rng)

    @staticmethod
    def _make_stage(in_channels: int, out_channels: int, blocks: int, stride: int,
                    rng: np.random.Generator) -> Sequential:
        layers = [BasicBlock(in_channels, out_channels, stride, rng)]
        layers.extend(
            BasicBlock(out_channels, out_channels, 1, rng) for _ in range(blocks - 1)
        )
        return Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        out = self.stem_bn(self.stem_conv(x)).relu()
        out = self.stage1(out)
        out = self.stage2(out)
        out = self.stage3(out)
        out = F.global_avg_pool2d(out)
        return self.head(out)


def resnet(depth: int, num_classes: int, rng: np.random.Generator,
           in_channels: int = 3, base_width: int = 16) -> ResNet:
    """Build a CIFAR ResNet of the requested depth (6n+2, n >= 1)."""
    return ResNet(depth, num_classes, rng, in_channels=in_channels, base_width=base_width)
