"""vmap-style stacking of K homogeneous models into one batched graph.

Every client in a federated round runs the *same* network on different
data.  :func:`stack_modules` takes K structurally identical models and
builds one :class:`StackedModel` whose parameters carry a leading stack
axis of size K, so a round-step becomes a handful of batched NumPy/BLAS
calls instead of K python-dispatched graphs.  The stack is the model
itself: the members' own class, built over ``np.stack`` of their
parameters with :attr:`~repro.nn.module.Module.stack` set, and run by
the one ``forward`` each layer of :mod:`repro.nn.layers` has.  The
per-slice float operations and their order are those of the lone model —
stacked elementwise ops, per-slice GEMMs (``np.matmul`` over the leading
axis), and reductions along the same in-slice axes — so slice ``k`` of
the stacked forward/backward reproduces client ``k``'s standalone run;
the parity tests in ``tests/nn/test_vmap.py`` pin this bit for bit on
generated chains of every stackable layer.

A module is stackable when its class says so (``stackable = True``,
declared on the class itself) and the K members agree: same classes and
attribute names at every node, equal plain-valued attributes, one
dtype, no buffers.  Anything else — ``BatchNorm2d`` (its batch
statistics and running buffers are inherently per-replica state the
stack would have to fork), custom forwards — raises
:class:`VmapUnsupported`, which the federation layer turns into a
per-client fallback with a recorded reason.  Only a ragged step's
true-row GEMMs (:func:`~repro.nn.functional._ragged_linear`) are not the
lone layer's kernel call.

Losses, SGD and gradient clipping have no stacked twins: the hard losses
of :mod:`repro.nn.losses` take ``(K, N, classes)`` logits as they are,
:class:`~repro.nn.optim.SGD` is elementwise, and
:func:`~repro.nn.optim.clip_grad_norm` takes the stack size.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .layers import Conv2d, Dropout, GroupNorm

# bench/probes.py (frozen) imports this name; the stacked losses it once
# looked up are the hard losses themselves now.
from .losses import get_hard_loss as get_stacked_loss  # noqa: F401
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


#: (stacked parameter, the K member parameters it was stacked from)
_Owners = List[Tuple[Parameter, List[Parameter]]]


class StackedModel(Module):
    """K stacked models behind one forward; the federation layer's view.

    ``body`` is the members' own class over ``(K, ...)`` parameters, so
    ``parameters()`` hands one optimizer all K slices; :meth:`sync_back`
    scatters the trained slices into the source models for per-slice
    ``state_dict()`` extraction.
    """

    def __init__(self, body: Module, sources: List[Module], owners: _Owners) -> None:
        super().__init__()
        self.body = body
        self.sources = sources
        self._owners = owners

    def forward(self, x: Tensor) -> Tensor:
        return self.body(x)

    def sync_back(self) -> None:
        """Write each trained slice back into its source model's parameter."""
        for stacked, members in self._owners:
            for k, member in enumerate(members):
                member.data = stacked.data[k].copy()

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


#: What ``Module.__init__`` itself puts on an instance: the registries the
#: stacked module fills as its attributes are set, and the mode it starts in.
_MODULE_STATE = frozenset(vars(Module()))
_PLAIN = (bool, int, float, str, tuple, type(None))


def _stack(members: List[Module], owners: _Owners) -> Module:
    """One node of the walk: check that the K ``members`` agree, then build
    their own class over their stacked parameters and stacked children."""
    cls = type(members[0])
    attrs = [vars(member) for member in members]
    for other, other_attrs in zip(members[1:], attrs[1:]):
        if type(other) is not cls:
            raise VmapUnsupported(
                f"cohort models differ in structure: {cls.__name__} "
                f"vs {type(other).__name__}"
            )
        if other_attrs.keys() != attrs[0].keys():
            raise VmapUnsupported(
                f"cohort models differ in structure: {cls.__name__} members hold "
                f"different attributes ({sorted(other_attrs.keys() ^ attrs[0].keys())})"
            )
    if not vars(cls).get("stackable", False):
        raise VmapUnsupported(
            f"module type {cls.__name__} has no stacked implementation"
        )
    stacked = cls.__new__(cls)
    Module.__init__(stacked)
    stacked.stack = len(members)
    for name, value in attrs[0].items():
        if name in _MODULE_STATE:
            continue
        values = [member_attrs[name] for member_attrs in attrs]
        if len({isinstance(v, (Parameter, Module)) for v in values}) != 1:
            raise VmapUnsupported(f"cohort {cls.__name__} {name} presence differs")
        if isinstance(value, Parameter):
            value = _stacked_parameter([v.data for v in values])
            owners.append((value, values))
        elif isinstance(value, Module):
            value = _stack(values, owners)
        elif not isinstance(value, _PLAIN):
            # Per-member state (a dropout generator): the stack holds the
            # K of them in member order.
            value = values
        elif any(v != value for v in values[1:]):
            raise VmapUnsupported(f"cohort {cls.__name__} layers differ in {name}")
        setattr(stacked, name, value)
    return stacked


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
    owners: _Owners = []
    return StackedModel(_stack(models, owners), models, owners)


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
    (:func:`~repro.nn.functional._ragged_linear`); elementwise, pooling
    and ``LayerNorm`` layers are row-local (a reduction that spans batch
    rows adds them one at a time, so trailing zero rows change no bit).
    ``Conv2d`` is not: its *weight-gradient* contraction sums over batch
    rows × spatial positions, so padded rows lengthen the reduction and
    the true slices' weight gradients drift by ULPs.  Nor is
    ``GroupNorm``: its affine gradients sum over the same rows ×
    positions extent, pairwise.
    """
    for module in model.modules():
        if isinstance(module, (Conv2d, GroupNorm)):
            return (
                f"{type(module).__name__} parameter gradients contract over the batch "
                "axis, so zero-padded rows change the reduction extent"
            )
    return None
