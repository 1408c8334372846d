"""The :class:`Module` base class: parameter registry and state dicts.

Mirrors the subset of ``torch.nn.Module`` semantics the reproduction needs:

* automatic registration of :class:`Parameter` attributes and sub-modules
  via ``__setattr__``;
* :meth:`Module.parameters` / :meth:`Module.named_parameters` traversal;
* :meth:`Module.state_dict` / :meth:`Module.load_state_dict` for
  checkpointing, shard arithmetic and federated aggregation — state dicts
  are plain ``{name: numpy array}`` mappings, the lingua franca of the
  whole code base;
* train/eval mode toggling (consumed by dropout and batch norm);
* the stack axis (:attr:`Module.stack`, :attr:`Module.row_counts`): K
  structurally identical models run as one module whose parameters hold
  ``(K, ...)`` data — :func:`repro.nn.vmap.stack_modules` builds it, the
  layers' own ``forward`` runs it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by modules."""

    def __init__(self, data) -> None:
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=True)


class Module:
    """Base class for all neural-network layers and models."""

    #: A class sets this to ``True`` when its ``forward`` honours
    #: :attr:`stack`; :func:`repro.nn.vmap.stack_modules` reads it off the
    #: class itself, so a subclass (whose ``forward`` may differ) declares
    #: it again or is refused.
    stackable = False
    #: ``None`` on a lone model; K on a module built by ``stack_modules``,
    #: whose every parameter, input and output carries a leading axis of
    #: size K (slice ``k`` being member ``k``).
    stack: Optional[int] = None
    #: The true row count of each slice during a ragged (zero-padded)
    #: step, set by ``StackedModel.set_row_counts``; ``None`` otherwise.
    row_counts: Optional[List[int]] = None

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. BN running stats)."""
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Overwrite a registered buffer, keeping attribute and dict in sync.

        The new value is cast to the buffer's *current* dtype, so a module
        moved to float32 via :meth:`astype` stays float32 through state
        loads while the float64 default is untouched bit for bit.
        """
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = np.asarray(value, dtype=self._buffers[name].dtype)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for module_name, module in self.named_modules(prefix):
            for param_name, param in module._parameters.items():
                full = f"{module_name}.{param_name}" if module_name else param_name
                yield full, param

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for module_name, module in self.named_modules(prefix):
            for buf_name, buf in module._buffers.items():
                full = f"{module_name}.{buf_name}" if module_name else buf_name
                yield full, buf

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Mode and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    # Dtype
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """The floating dtype of the module's parameters (float64 unless
        moved with :meth:`astype`)."""
        for _, param in self.named_parameters():
            return param.data.dtype
        return np.dtype(np.float64)

    def astype(self, dtype) -> "Module":
        """Cast every parameter, gradient and floating buffer in place.

        Lets models follow :class:`~repro.data.dataset.ArrayDataset`'s
        opt-in ``dtype``: a float32 dataset trains a float32 model, so the
        im2col/matmul hot path stays in float32 instead of upcasting at
        the first parameter contraction.  Optimizer state follows
        automatically — momentum/Adam accumulators are built with
        ``zeros_like(param.data)`` on first use — and
        :meth:`load_state_dict` / :meth:`_set_buffer` preserve the cast
        across state loads.  Integer buffers (step counters and the like)
        are left alone.
        """
        dtype = np.dtype(dtype)
        if not np.issubdtype(dtype, np.floating):
            raise ValueError(f"astype needs a floating dtype, got {dtype}")
        for module in self.modules():
            for param in module._parameters.values():
                param.data = param.data.astype(dtype, copy=False)
                if param.grad is not None:
                    param.grad = param.grad.astype(dtype, copy=False)
            for name, buf in module._buffers.items():
                if np.issubdtype(buf.dtype, np.floating):
                    module._buffers[name] = buf.astype(dtype, copy=False)
                    object.__setattr__(module, name, module._buffers[name])
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # State dicts
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copied ``{name: array}`` snapshot of params and buffers."""
        state: Dict[str, np.ndarray] = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load a snapshot produced by :meth:`state_dict` (strict matching)."""
        params = dict(self.named_parameters())
        buffer_owners: Dict[str, Tuple[Module, str]] = {}
        for module_name, module in self.named_modules():
            for buf_name in module._buffers:
                full = f"{module_name}.{buf_name}" if module_name else buf_name
                buffer_owners[full] = (module, buf_name)

        expected = set(params) | set(buffer_owners)
        provided = set(state)
        if expected != provided:
            missing = sorted(expected - provided)
            unexpected = sorted(provided - expected)
            raise KeyError(f"state dict mismatch: missing={missing}, unexpected={unexpected}")

        for name, value in state.items():
            if name in params:
                # Cast to the parameter's current dtype: float64 models
                # load exactly as before, float32 models (astype) stay
                # float32 through broadcast/aggregate round-trips.
                value = np.asarray(value, dtype=params[name].data.dtype)
                if params[name].data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name!r}: "
                        f"{params[name].data.shape} vs {value.shape}"
                    )
                params[name].data = value.copy()
            else:
                module, buf_name = buffer_owners[name]
                module._set_buffer(buf_name, np.asarray(value).copy())

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    @property
    def stack_axes(self) -> int:
        """Leading axes ahead of the batch axis: 1 in a stack, else 0."""
        return 0 if self.stack is None else 1

    def __repr__(self) -> str:
        child_lines = [f"  ({name}): {module!r}" for name, module in self._modules.items()]
        if not child_lines:
            return f"{type(self).__name__}()"
        body = "\n".join(child_lines).replace("\n", "\n  ")
        return f"{type(self).__name__}(\n  {body}\n)"
