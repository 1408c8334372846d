"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the foundation of the ``repro.nn`` deep-learning substrate.
It provides a :class:`Tensor` that records a dynamic computation graph as
operations are applied and can backpropagate gradients through it with
:meth:`Tensor.backward`.

The design mirrors the familiar PyTorch semantics at a much smaller scale:

* every op produces a new :class:`Tensor` holding references to its parents
  and a closure that propagates the output gradient to them;
* gradients accumulate additively in ``Tensor.grad`` (a raw ``numpy``
  array), so a tensor used twice receives the sum of both contributions;
* broadcasting is fully supported — gradients are "unbroadcast" (summed)
  back to each parent's original shape;
* :func:`no_grad` disables graph construction for inference-only code.

**Gradient ownership.**  ``Tensor.grad`` is always an array the tensor
alone owns: ``+=`` on the second accumulation, ``clip_grad_norm`` and the
optimizers write into it.  A backward closure is therefore one of two
kinds, decided where it is written.  A *fresh* closure has just computed
its gradient array and keeps no other reference (``grad * mask``, a GEMM
result, a zero-filled scatter buffer): it calls
``_accumulate(array, owned=True)`` and the first accumulation adopts the
array.  A *pass-through* closure hands on the output node's own buffer or
a view of it (``__add__`` when nothing was broadcast, ``reshape``,
``transpose``, ``pad2d``, ``concatenate``, ``stack``, a seed the caller of
``backward`` supplied): it calls ``_accumulate(array)`` and gets the
defensive copy, because two tensors must never share a buffer.  Adoption
further requires the array to be writeable, of the tensor's dtype **and
C-contiguous**: reductions such as ``clip_grad_norm``'s sum of squares run
in memory order, so a strided gradient (a lone linear layer's
``swapaxes`` weight gradient, ``_col2im``'s channel-major ``dx``) would
change the last bit of a clipped step; such arrays keep the copy, which
also makes them contiguous (as does the cast of a gradient of another
dtype), so every ``.grad`` is C-contiguous.
``tests/nn/test_autograd_ownership.py`` checks the classification against
an always-copy engine on generated graphs.

Only float64/float32 arrays are expected; integer tensors may be used as
indices or labels but must not require gradients.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

Scalar = Union[int, float, np.floating, np.integer]
ArrayLike = Union[Scalar, Sequence, np.ndarray, "Tensor"]

# Thread-local so callers that train or evaluate on several threads can
# enter/leave no_grad() independently without racing on a shared flag.
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables computation-graph construction.

    Use around evaluation code to avoid the memory and time overhead of
    recording backward closures::

        with no_grad():
            logits = model(x)
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded in the graph."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, the chain rule requires summing the gradient
    over every broadcast dimension.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if dtype is not None and arr.dtype != dtype:
        arr = arr.astype(dtype)
    elif arr.dtype == object:
        raise TypeError(f"cannot build a Tensor from object array: {value!r}")
    return arr


def ensure_tensor(value: ArrayLike) -> "Tensor":
    """Coerce ``value`` to a :class:`Tensor` (no-op if it already is one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(_as_array(value, dtype=np.float64))


class Tensor:
    """A NumPy array plus the bookkeeping needed for reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array (or nested sequence / scalar) holding the tensor's values.
    requires_grad:
        If True, gradients will be accumulated into :attr:`grad` when
        :meth:`backward` is called on a downstream scalar.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: tuple = (),
        _backward_fn: Optional[Callable[[np.ndarray], None]] = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._parents = _parents if self.requires_grad else ()
        self._backward_fn = _backward_fn if self.requires_grad else None

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self.data.item()

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a graph-free deep copy of this tensor's values."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction / backward pass
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op output tensor, recording the graph edge if enabled."""
        parents = tuple(parents)
        needs_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
        if needs_grad:
            return Tensor(data, requires_grad=True, _parents=parents, _backward_fn=backward_fn)
        return Tensor(data)

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        ``owned=True`` is the backward closure's statement that it has
        just computed ``grad`` and keeps no other reference to it; the
        first accumulation then adopts the array instead of copying it
        (the ownership rule in the module docstring).
        """
        if self.grad is not None:
            self.grad += grad
        elif grad.dtype != self.data.dtype:
            self.grad = grad.astype(self.data.dtype, order="C")
        elif owned and grad.flags.c_contiguous and grad.flags.writeable:
            self.grad = grad
        else:
            self.grad = grad.copy()

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ``1.0`` which requires this tensor to be a scalar.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        default_seed = grad is None
        if default_seed:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar backward()")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(f"grad shape {grad.shape} != tensor shape {self.data.shape}")

        # Topological order over the reachable subgraph.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        # The default seed was made here; a supplied one is the caller's.
        self._accumulate(grad, owned=default_seed)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic (broadcasting-aware)
    # ------------------------------------------------------------------
    def _operand(self, other: ArrayLike) -> "Tensor":
        """``other`` as a tensor; a Python scalar beside a floating tensor
        takes that tensor's dtype, so ``x + eps`` keeps float32 float32."""
        if isinstance(other, (int, float)) and self.data.dtype.kind == "f":
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return ensure_tensor(other)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data + other.data

        def backward_fn(grad: np.ndarray) -> None:
            # Pass-through: ``grad`` is the output node's own buffer unless
            # undoing a broadcast summed it into a new array.
            for operand in (self, other):
                if operand.requires_grad:
                    reduced = _unbroadcast(grad, operand.shape)
                    operand._accumulate(reduced, owned=reduced is not grad)

        return Tensor._make(out_data, (self, other), backward_fn)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad, owned=True)

        return Tensor._make(-self.data, (self,), backward_fn)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._operand(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._operand(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data * other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward_fn)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data / other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad * self.data / (other.data ** 2), other.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward_fn)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._operand(other) / self

    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1), owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data @ other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.outer(grad, other.data).reshape(self.shape)
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(grad_self, self.shape), owned=True)
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.outer(self.data, grad).reshape(other.shape)
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(grad_other, other.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward_fn)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data, owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data, owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data), owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2), owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign, owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward_fn(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy(), owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward_fn(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = out_data
            g = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(out_data, axis=axis)
                g = np.expand_dims(grad, axis=axis)
            mask = self.data == expanded
            # Split the gradient among ties so the total is conserved.
            counts = mask.sum(axis=axis if axis is not None else None, keepdims=True)
            self._accumulate(mask * g / counts, owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.shape

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward_fn)

    def flatten(self, start_dim: int = 1) -> "Tensor":
        # Explicit trailing size: -1 is ambiguous for an empty batch.
        return self.reshape(self.shape[:start_dim] + (math.prod(self.shape[start_dim:]),))

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                # The inverse permutation is backward's business: under
                # no_grad, or when no gradient arrives, it is never needed.
                self._accumulate(grad.transpose(np.argsort(axes)))

        return Tensor._make(out_data, (self,), backward_fn)

    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data
        out_data = self.data[index]

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full, owned=True)

        return Tensor._make(np.array(out_data, copy=True), (self,), backward_fn)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions symmetrically."""
        if padding == 0:
            return self
        pad_width = [(0, 0)] * (self.ndim - 2) + [(padding, padding), (padding, padding)]
        out_data = np.pad(self.data, pad_width)
        slices = tuple(
            slice(None) if i < self.ndim - 2 else slice(padding, -padding)
            for i in range(self.ndim)
        )

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad[slices])

        return Tensor._make(out_data, (self,), backward_fn)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tensors, backward_fn)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward_fn(grad: np.ndarray) -> None:
        parts = np.split(grad, len(tensors), axis=axis)
        for tensor, part in zip(tensors, parts):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(part, axis=axis))

    return Tensor._make(out_data, tensors, backward_fn)


def where(condition: ArrayLike, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise select ``a`` where ``condition`` else ``b``."""
    cond = _as_array(condition).astype(bool)
    a = ensure_tensor(a)
    b = ensure_tensor(b)
    out_data = np.where(cond, a.data, b.data)

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * cond, a.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~cond, b.shape), owned=True)

    return Tensor._make(out_data, (a, b), backward_fn)
