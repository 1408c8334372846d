"""vmap-style stacking of K homogeneous models into one batched graph.

Every client in a federated round runs the *same* network on different
data.  :func:`stack_modules` takes K structurally identical models and
builds one :class:`StackedModel` whose parameters carry a leading stack
axis of size K, so a round-step becomes a handful of batched NumPy/BLAS
calls instead of K python-dispatched graphs.  The per-slice float
operations and their order are kept identical to the per-client layers —
stacked elementwise ops, per-slice GEMMs (``np.matmul`` over the leading
axis), and reductions along the same in-slice axes — so slice ``k`` of
the stacked forward/backward reproduces client ``k``'s standalone run;
the parity tests in ``tests/nn/test_vmap.py`` pin this bit for bit on
every supported layer.

Supported layers: ``Linear`` and ``Conv2d`` (via
:func:`~repro.nn.functional.linear` and
:func:`~repro.nn.functional.conv2d_stacked`: the scalar layer's own
kernel with the stack as a GEMM batch axis, so neither has a stacked
twin; only the ragged step's true-row GEMMs, :func:`_ragged_linear`,
live here), ``ReLU``, ``Identity``,
``Flatten``, ``MaxPool2d`` / ``AvgPool2d`` (stack and batch axes merge —
pooling is per-sample, so the merged call is the per-client call on a
bigger batch), ``Dropout`` (each slice's mask is drawn from its *own*
generator, preserving per-client RNG streams), ``LayerNorm`` and
``GroupNorm`` (per-sample statistics shift by one axis).  Composites:
``Sequential`` plus the model-zoo classifiers built from it (``MLP``,
``LeNet5``, ``ModifiedLeNet5``).  Anything else —
``BatchNorm2d`` (its batch statistics and running buffers are inherently
per-replica state the stack would have to fork), custom forwards —
raises :class:`VmapUnsupported`, which the federation layer turns into a
per-client fallback with a recorded reason.

Losses, SGD and gradient clipping have no stacked twins: the hard losses
of :mod:`repro.nn.losses` take ``(K, N, classes)`` logits as they are,
:class:`~repro.nn.optim.SGD` is elementwise, and
:func:`~repro.nn.optim.clip_grad_norm` takes the stack size.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from . import functional as F
from .layers import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    GroupNorm,
    Identity,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)

# bench/probes.py (frozen) imports this name; the stacked losses it once
# looked up are the hard losses themselves now.
from .losses import get_hard_loss as get_stacked_loss  # noqa: F401
from .models.lenet import LeNet5, ModifiedLeNet5
from .models.mlp import MLP
from .module import Module, Parameter
from .tensor import Tensor


class VmapUnsupported(ValueError):
    """The module structure cannot be stacked; carries the human reason."""


def _stacked_parameter(arrays: List[np.ndarray]) -> Parameter:
    """A Parameter holding ``stack(arrays)`` in the slices' own dtype.

    ``Parameter.__init__`` casts to float64; stacked cohorts must keep
    the cohort's dtype (float32 datasets train float32 models), so the
    stacked data is assigned directly after construction.
    """
    stacked = np.stack(arrays, axis=0)
    param = Parameter(np.zeros((), dtype=np.float64))
    param.data = stacked
    return param


class StackedLeaf(Module):
    """Base for stacked leaves: remembers its K source modules so trained
    slices can be written back (:meth:`sync_back`) for per-slice state
    extraction."""

    def __init__(self, sources: List[Module]) -> None:
        super().__init__()
        self.sources = sources
        # Per-slice true row counts during a ragged (zero-padded) step,
        # plumbed by StackedModel.set_row_counts; None when rectangular.
        self.row_counts: Optional[List[int]] = None

    def sync_back(self) -> None:
        """Write each trained slice back into its source module."""


def _mask_padded_rows(out: Tensor, row_counts: Optional[List[int]]) -> Tensor:
    """Re-zero the padded rows of a ragged stacked activation.

    Ragged steps rely on an invariant: padded rows are exactly zero at
    every layer boundary, so no layer ever feeds padding-derived values
    into a true row.  Layers with additive terms (conv bias,
    normalisation beta) turn zero rows nonzero, so they multiply their
    output by a 0/1 row mask: true rows scale by exactly 1.0
    (bit-identity, forward and backward) and padded rows return to zero.
    """
    if row_counts is None:
        return out
    width = out.shape[1]
    if all(rows == width for rows in row_counts):
        return out
    mask = np.zeros(out.shape, dtype=out.data.dtype)
    for index, rows in enumerate(row_counts):
        mask[index, :rows] = 1.0
    return out * Tensor(mask)


def _is_ragged(row_counts: Optional[List[int]], width: int) -> bool:
    return row_counts is not None and any(rows != width for rows in row_counts)


def _ragged_linear(
    x: Tensor,
    weight: Parameter,
    bias: Optional[Parameter],
    row_counts: List[int],
) -> Tensor:
    """Row-exact stacked linear for ragged (zero-padded) steps.

    GEMM accumulation order depends on the operand shapes: the same true
    rows inside a taller zero-padded matrix can come out an ULP off,
    because BLAS picks its blocking per matrix size, not per row.  A
    ragged step therefore runs one GEMM per slice at each member's
    *true* row count — issuing exactly the contractions ``F.linear``
    and its backward issue for that client standalone — and writes the
    results into the padded ``(K, width, out)`` frame.  Padded rows stay
    exactly zero and receive exactly zero gradients.
    """
    k_stack, width = x.shape[0], x.shape[1]
    out_features = weight.shape[1]
    out_dtype = np.result_type(x.data.dtype, weight.data.dtype)
    out_data = np.zeros((k_stack, width, out_features), dtype=out_dtype)
    for k, rows in enumerate(row_counts):
        if rows == 0:
            continue
        member = x.data[k, :rows] @ weight.data[k].T
        if bias is not None:
            member = member + bias.data[k]
        out_data[k, :rows] = member

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            grad_x = np.zeros_like(x.data)
            for k, rows in enumerate(row_counts):
                if rows:
                    grad_x[k, :rows] = grad[k, :rows] @ weight.data[k]
            x._accumulate(grad_x, owned=True)
        if weight.requires_grad:
            grad_w = np.zeros_like(weight.data)
            for k, rows in enumerate(row_counts):
                if rows:
                    # F.linear's own weight contraction: x.T @ grad,
                    # transposed back.
                    grad_w[k] = (x.data[k, :rows].T @ grad[k, :rows]).T
            weight._accumulate(grad_w, owned=True)
        if bias is not None and bias.requires_grad:
            grad_b = np.zeros_like(bias.data)
            for k, rows in enumerate(row_counts):
                if rows:
                    grad_b[k] = grad[k, :rows].sum(axis=(0,))
            bias._accumulate(grad_b, owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, backward_fn)


class StackedLinear(StackedLeaf):
    """K fully connected layers through :func:`~repro.nn.functional.linear`
    itself, the stack axis being the batch axis of its GEMMs — slice
    parity is by shared code."""

    def __init__(self, sources: List[Linear]) -> None:
        super().__init__(sources)
        self.weight = _stacked_parameter([m.weight.data for m in sources])
        self.has_bias = sources[0].bias is not None
        if self.has_bias:
            self.bias = _stacked_parameter([m.bias.data for m in sources])

    def forward(self, x: Tensor) -> Tensor:
        bias = self.bias if self.has_bias else None
        if _is_ragged(self.row_counts, x.shape[1]):
            return _ragged_linear(x, self.weight, bias, self.row_counts)
        return F.linear(x, self.weight, bias)

    def sync_back(self) -> None:
        for k, source in enumerate(self.sources):
            source.weight.data = self.weight.data[k].copy()
            if self.has_bias:
                source.bias.data = self.bias.data[k].copy()


class StackedConv2d(StackedLeaf):
    """K convolutions through :func:`~repro.nn.functional.conv2d`'s own
    channel-major im2col / col2im pair, the stack axis being the batch
    axis of its GEMMs — slice parity is by shared code."""

    def __init__(self, sources: List[Conv2d]) -> None:
        super().__init__(sources)
        first = sources[0]
        self.stride = first.stride
        self.padding = first.padding
        self.weight = _stacked_parameter([m.weight.data for m in sources])
        self.has_bias = first.bias is not None
        if self.has_bias:
            self.bias = _stacked_parameter([m.bias.data for m in sources])

    def forward(self, x: Tensor) -> Tensor:
        out = F.conv2d_stacked(
            x,
            self.weight,
            self.bias if self.has_bias else None,
            stride=self.stride,
            padding=self.padding,
        )
        return _mask_padded_rows(out, self.row_counts)

    def sync_back(self) -> None:
        for k, source in enumerate(self.sources):
            source.weight.data = self.weight.data[k].copy()
            if self.has_bias:
                source.bias.data = self.bias.data[k].copy()


class StackedReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class StackedIdentity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class StackedFlatten(Module):
    """Per-client ``Flatten`` keeps the batch axis; stacked, it keeps the
    stack *and* batch axes."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=2)


class _MergedBatchPool(Module):
    """Pooling is per-sample, so stack and batch axes merge into one big
    batch: the merged call is bit-identical to the per-client kernel on
    each sample, and the reshapes are pure relabelings."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def _pool(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        k_stack, n = x.shape[0], x.shape[1]
        merged = x.reshape((k_stack * n,) + x.shape[2:])
        pooled = self._pool(merged)
        return pooled.reshape((k_stack, n) + pooled.shape[1:])


class StackedMaxPool2d(_MergedBatchPool):
    def _pool(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size)


class StackedAvgPool2d(_MergedBatchPool):
    def _pool(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size)


class StackedDropout(Module):
    """Inverted dropout with one mask generator *per slice*.

    Slice k's mask is drawn from client k's own generator with the same
    call (``rng.random(per_client_shape)``) the per-client layer makes,
    so stacking neither merges nor reorders any client's RNG stream.

    Ragged steps (final batches of unequal size, zero-padded to the
    stack's batch axis) set :attr:`row_counts` first: slice k then draws
    its mask with that client's *true* batch shape — the exact call the
    per-client layer makes — and the padded rows get zero masks (their
    upstream gradients are already exactly zero, so the zeros change no
    bits).
    """

    def __init__(self, sources: List[Dropout]) -> None:
        super().__init__()
        self.p = sources[0].p
        self._rngs = [m._rng for m in sources]
        # Per-slice true row counts for the *current* ragged step, or
        # None when the step is rectangular (set via
        # StackedModel.set_row_counts).
        self.row_counts: Optional[List[int]] = None

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        per_client = x.shape[1:]
        if self.row_counts is None:
            mask = np.stack(
                [(rng.random(per_client) >= self.p) / (1.0 - self.p) for rng in self._rngs]
            )
        else:
            mask = np.zeros((x.shape[0],) + per_client, dtype=np.float64)
            for k, (rng, rows) in enumerate(zip(self._rngs, self.row_counts)):
                drawn = (rng.random((rows,) + per_client[1:]) >= self.p) / (1.0 - self.p)
                mask[k, :rows] = drawn
        return x * Tensor(mask)


class StackedLayerNorm(StackedLeaf):
    """K layer norms; per-sample statistics shift right by one axis."""

    def __init__(self, sources: List[LayerNorm]) -> None:
        super().__init__(sources)
        self.eps = sources[0].eps
        self.num_features = sources[0].num_features
        self.gamma = _stacked_parameter([m.gamma.data for m in sources])
        self.beta = _stacked_parameter([m.beta.data for m in sources])

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise ValueError(f"stacked LayerNorm expects 3-D input, got {x.shape}")
        mean = x.mean(axis=2, keepdims=True)
        var = x.var(axis=2, keepdims=True)
        x_hat = (x - mean) / ((var + self.eps) ** 0.5)
        k_stack = x.shape[0]
        gamma = self.gamma.reshape(k_stack, 1, -1)
        beta = self.beta.reshape(k_stack, 1, -1)
        return _mask_padded_rows(x_hat * gamma + beta, self.row_counts)

    def sync_back(self) -> None:
        for k, source in enumerate(self.sources):
            source.gamma.data = self.gamma.data[k].copy()
            source.beta.data = self.beta.data[k].copy()


class StackedGroupNorm(StackedLeaf):
    """K group norms; the grouped reduction keeps its in-slice axes."""

    def __init__(self, sources: List[GroupNorm]) -> None:
        super().__init__(sources)
        first = sources[0]
        self.num_groups = first.num_groups
        self.num_channels = first.num_channels
        self.eps = first.eps
        self.gamma = _stacked_parameter([m.gamma.data for m in sources])
        self.beta = _stacked_parameter([m.beta.data for m in sources])

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 5:
            raise ValueError(f"stacked GroupNorm expects 5-D input, got {x.shape}")
        k_stack, n, c, h, w = x.shape
        grouped = x.reshape(k_stack, n, self.num_groups, c // self.num_groups, h, w)
        mean = grouped.mean(axis=(3, 4, 5), keepdims=True)
        var = grouped.var(axis=(3, 4, 5), keepdims=True)
        normalised = (grouped - mean) / ((var + self.eps) ** 0.5)
        out = normalised.reshape(k_stack, n, c, h, w)
        gamma = self.gamma.reshape(k_stack, 1, -1, 1, 1)
        beta = self.beta.reshape(k_stack, 1, -1, 1, 1)
        return _mask_padded_rows(out * gamma + beta, self.row_counts)

    def sync_back(self) -> None:
        for k, source in enumerate(self.sources):
            source.gamma.data = self.gamma.data[k].copy()
            source.beta.data = self.beta.data[k].copy()


class StackedSequential(Module):
    """Chain of stacked layers applied in order."""

    def __init__(self, layers: List[Module]) -> None:
        super().__init__()
        for index, layer in enumerate(layers):
            setattr(self, f"layer{index}", layer)
        self._layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x


class StackedFlattenIfImages(Module):
    """Mirror of ``MLP.forward``'s conditional flatten: a stacked image
    batch ``(K, N, C, H, W)`` flattens to ``(K, N, C*H*W)``; an already
    flat ``(K, N, F)`` input passes through."""

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim > 3:
            return x.flatten(start_dim=2)
        return x


class StackedModel(Module):
    """K stacked models behind one forward; the federation layer's view.

    ``parameters()`` walks the stacked leaves (each holding ``(K, ...)``
    data), so one optimizer drives all K slices; :meth:`sync_back`
    scatters the trained slices into the source models for per-slice
    ``state_dict()`` extraction.
    """

    def __init__(self, body: Module, sources: List[Module]) -> None:
        super().__init__()
        self.body = body
        self.sources = sources

    def forward(self, x: Tensor) -> Tensor:
        return self.body(x)

    def sync_back(self) -> None:
        for module in self.modules():
            if isinstance(module, StackedLeaf):
                module.sync_back()

    def set_row_counts(self, row_counts: Optional[List[int]]) -> None:
        """Declare the current step's per-slice true batch sizes.

        Ragged steps (zero-padded final batches) set the counts before
        the forward so RNG-consuming layers (dropout) draw per-slice
        masks with each client's true batch shape, and so layers with
        additive terms (bias / affine shift) re-zero the padded rows
        they would otherwise turn nonzero — nonzero padding rows
        perturb the low bits of the *true* rows in the next matmul's
        blocked reduction, breaking bitwise parity. Rectangular steps
        reset with ``None``.
        """
        for module in self.modules():
            if isinstance(module, (StackedDropout, StackedLeaf)):
                module.row_counts = row_counts

    def forward_members(self, batches: Sequence[np.ndarray]) -> List[Tensor]:
        """One stacked forward over per-member input batches of possibly
        unequal length; returns each member's output at its true row count.

        Short members are zero-padded to the widest batch (trailing zero
        rows change no bits of any true row's forward or gradient) and
        every output is sliced back out by differentiable indexing, which
        returns bit-identical values: a per-member loss run on its slice
        executes literally the per-client operations, padded rows never
        enter a loss and receive zero gradient through the slice-scatter
        backward.
        """
        rows = [len(batch) for batch in batches]
        first = np.asarray(batches[0])
        padded = np.zeros((len(batches), max(rows)) + first.shape[1:], dtype=first.dtype)
        for index, batch in enumerate(batches):
            padded[index, : rows[index]] = batch
        self.set_row_counts(rows)
        out = self(Tensor(padded))
        self.set_row_counts(None)
        return [out[index, :count] for index, count in enumerate(rows)]

    def slice_states(self) -> List[dict]:
        """Per-slice state dicts after :meth:`sync_back`."""
        self.sync_back()
        return [source.state_dict() for source in self.sources]


_LEAF_BUILDERS = {
    Linear: StackedLinear,
    Conv2d: StackedConv2d,
    LayerNorm: StackedLayerNorm,
    GroupNorm: StackedGroupNorm,
    Dropout: StackedDropout,
}

_STATELESS = {
    ReLU: StackedReLU,
    Identity: StackedIdentity,
    Flatten: StackedFlatten,
}


def _check_homogeneous(modules: List[Module]) -> None:
    first = modules[0]
    for module in modules[1:]:
        if type(module) is not type(first):
            raise VmapUnsupported(
                f"cohort models differ in structure: {type(first).__name__} "
                f"vs {type(module).__name__}"
            )


def _stack(modules: List[Module]) -> Module:
    _check_homogeneous(modules)
    first = modules[0]
    cls = type(first)
    if cls in _STATELESS:
        return _STATELESS[cls]()
    if cls is MaxPool2d:
        if any(m.kernel_size != first.kernel_size for m in modules):
            raise VmapUnsupported("cohort MaxPool2d kernel sizes differ")
        return StackedMaxPool2d(first.kernel_size)
    if cls is AvgPool2d:
        if any(m.kernel_size != first.kernel_size for m in modules):
            raise VmapUnsupported("cohort AvgPool2d kernel sizes differ")
        return StackedAvgPool2d(first.kernel_size)
    if cls in _LEAF_BUILDERS:
        key_attrs = {
            Linear: ("in_features", "out_features"),
            Conv2d: ("in_channels", "out_channels", "kernel_size", "stride", "padding"),
            LayerNorm: ("num_features", "eps"),
            GroupNorm: ("num_groups", "num_channels", "eps"),
            Dropout: ("p",),
        }[cls]
        for attr in key_attrs:
            value = getattr(first, attr)
            if any(getattr(m, attr) != value for m in modules):
                raise VmapUnsupported(
                    f"cohort {cls.__name__} layers differ in {attr}"
                )
        if cls in (Linear, Conv2d):
            first_has_bias = first.bias is not None
            if any((m.bias is not None) != first_has_bias for m in modules):
                raise VmapUnsupported(f"cohort {cls.__name__} bias presence differs")
        return _LEAF_BUILDERS[cls](modules)
    if cls is Sequential:
        lengths = {len(m._layers) for m in modules}
        if len(lengths) != 1:
            raise VmapUnsupported("cohort Sequential lengths differ")
        return StackedSequential(
            [_stack([m._layers[i] for m in modules]) for i in range(len(first._layers))]
        )
    if cls is MLP:
        return StackedSequential(
            [StackedFlattenIfImages(), _stack([m.net for m in modules])]
        )
    if cls in (LeNet5, ModifiedLeNet5):
        return StackedSequential(
            [
                _stack([m.features for m in modules]),
                _stack([m.classifier for m in modules]),
            ]
        )
    raise VmapUnsupported(
        f"module type {cls.__name__} has no stacked implementation"
    )


def stack_modules(models: List[Module]) -> StackedModel:
    """Stack K structurally identical models into one batched model.

    Raises :class:`VmapUnsupported` (with a human-readable reason) when
    any layer has no stacked implementation or the models' structures
    disagree — callers fall back to per-client execution.
    """
    if not models:
        raise ValueError("stack_modules needs at least one model")
    dtypes = {model.dtype for model in models}
    if len(dtypes) != 1:
        raise VmapUnsupported(f"cohort models differ in dtype: {sorted(map(str, dtypes))}")
    for model in models:
        for name, _ in model.named_buffers():
            raise VmapUnsupported(
                f"model carries a buffer ({name!r}); buffered layers such as "
                "BatchNorm2d hold per-replica running state the stack cannot share"
            )
    return StackedModel(_stack(models), models)


def stackable_reason(model: Module) -> Optional[str]:
    """Why ``model``'s architecture cannot be stacked (``None`` = it can)."""
    try:
        stack_modules([model])
    except VmapUnsupported as error:
        return str(error)
    return None


def restack_reason(model: Module) -> Optional[str]:
    """Why ``model`` cannot be rebuilt from its state dict between
    training runs and carry on as if it had lived through them
    (``None`` = it can).

    A SISA chain run in stage lockstep rebuilds its model at every stage;
    a lone chain keeps one model — and one dropout stream — across its
    stages, which the rebuild would reset.
    """
    for module in model.modules():
        if isinstance(module, Dropout):
            return (
                "dropout keeps one RNG stream across chain stages; "
                "stage-lockstep reconstruction would reset it"
            )
    return None


def ragged_support_reason(model: Module) -> Optional[str]:
    """Why ``model`` cannot take ragged (zero-padded) steps (``None`` = it can).

    Ragged parity requires every layer to be row-exact under zero
    padding.  ``Linear`` runs one true-row GEMM per slice
    (:func:`_ragged_linear`); elementwise, pooling and normalisation
    layers are row-local (their reductions never span batch rows).
    ``Conv2d`` is not: its *weight-gradient* contraction sums over batch
    rows × spatial positions, so padded rows lengthen the reduction and
    the true slices' weight gradients drift by ULPs.
    """
    for module in model.modules():
        if isinstance(module, Conv2d):
            return (
                "Conv2d weight gradients contract over the batch axis, so "
                "zero-padded rows change the reduction extent"
            )
    return None
