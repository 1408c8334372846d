"""``repro.nn`` — a compact NumPy deep-learning framework.

This package replaces PyTorch as the paper's training substrate. It
provides reverse-mode autodiff (:mod:`repro.nn.tensor`), layers,
optimizers, losses and the paper's model zoo.
"""

from . import functional
from . import init
from . import losses
from . import models
from . import vmap
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GroupNorm,
    LayerNorm,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from .module import Module, Parameter
from .optim import (
    SGD,
    Adam,
    AdamW,
    CosineAnnealingLR,
    Optimizer,
    RMSprop,
    StepLR,
    clip_grad_norm,
)
from .vmap import StackedModel, VmapUnsupported, stack_modules
from .serialization import load_model, load_state_dict, save_model, save_state_dict
from .tensor import Tensor, concatenate, ensure_tensor, is_grad_enabled, no_grad, stack, where

__all__ = [
    "Tensor",
    "Parameter",
    "Module",
    "no_grad",
    "is_grad_enabled",
    "ensure_tensor",
    "concatenate",
    "stack",
    "where",
    "functional",
    "losses",
    "init",
    "models",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "BatchNorm2d",
    "GroupNorm",
    "LayerNorm",
    "ReLU",
    "Dropout",
    "Flatten",
    "Identity",
    "Sequential",
    "vmap",
    "StackedModel",
    "VmapUnsupported",
    "stack_modules",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "RMSprop",
    "StepLR",
    "CosineAnnealingLR",
    "clip_grad_norm",
    "save_model",
    "load_model",
    "save_state_dict",
    "load_state_dict",
]
