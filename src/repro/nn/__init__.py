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
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from .module import Module, Parameter
from .optim import SGD, Optimizer
from .vmap import StackedModel, VmapUnsupported, stack_modules
from .serialization import load_state_dict, save_state_dict
from .tensor import Tensor, ensure_tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "Parameter",
    "Module",
    "no_grad",
    "is_grad_enabled",
    "ensure_tensor",
    "functional",
    "losses",
    "init",
    "models",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "BatchNorm2d",
    "ReLU",
    "Flatten",
    "Sequential",
    "vmap",
    "StackedModel",
    "VmapUnsupported",
    "stack_modules",
    "Optimizer",
    "SGD",
    "save_state_dict",
    "load_state_dict",
]
