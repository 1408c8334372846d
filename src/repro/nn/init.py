"""Parameter initialisation schemes.

All initialisers take an explicit :class:`numpy.random.Generator` so that
every experiment in the reproduction is deterministic given its seed.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute (fan_in, fan_out) for dense and convolutional weights."""
    if len(shape) == 2:  # (out_features, in_features)
        fan_out, fan_in = shape
    elif len(shape) == 4:  # (out_channels, in_channels, kh, kw)
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        raise ValueError(f"unsupported weight shape for fan computation: {shape}")
    return fan_in, fan_out


def kaiming_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He-uniform init, suited to ReLU networks (LeNet / ResNet here)."""
    fan_in, _ = _fan_in_out(shape)
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def bias_uniform(shape: Tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """PyTorch-style bias init: uniform in ±1/sqrt(fan_in)."""
    bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (biases, batch-norm shifts)."""
    return np.zeros(shape, dtype=np.float64)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    """All-one initialisation (batch-norm scales)."""
    return np.ones(shape, dtype=np.float64)
