"""Neural-network functional primitives built on the autograd engine.

Contains the convolution / pooling / fully connected kernels and
numerically stable softmax utilities.  Convolution is one channel-major
im2col / col2im pair (``cols`` is ``(C_in*KH*KW, N*H_out*W_out)``, one
``as_strided`` view and one copy) whose leading axes are GEMM batch
axes, so :func:`conv2d` serves a lone layer and a stack of K;
:func:`linear` is one graph node built the same way; max pooling takes
any leading axes and records one winner mask per window offset.
What a stack's ragged (zero-padded) step needs beyond that sits beside
:func:`linear`: :func:`_ragged_linear`'s true-row GEMMs and
:func:`_mask_padded_rows`.  All functions take and return
:class:`repro.nn.tensor.Tensor` and participate in autodiff.

Backward closures here compute their gradient arrays themselves, so they
hand them to ``Tensor._accumulate(..., owned=True)`` (the ownership rule
in :mod:`repro.nn.tensor`); the two that are strided views of what they
computed — a lone :func:`linear`'s weight gradient and ``_col2im``'s
``dx`` — are copied by that rule's contiguity clause, as every gradient
used to be.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor, _unbroadcast, is_grad_enabled


def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size: input={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def _im2col(x_padded: np.ndarray, kh: int, kw: int, stride: int, h_out: int, w_out: int):
    """Channel-major patch matrix of ``x_padded[..., N, C, H, W]``.

    Returns ``cols`` of shape ``(..., C*KH*KW, N*H_out*W_out)`` with
    ``cols[..., (c, ki, kj), (n, i, j)] = x_padded[..., n, c, i*s + ki, j*s + kj]``:
    one strided view and one copy whose innermost contiguous run is a
    whole output row.
    """
    *lead, n, c, _, _ = x_padded.shape
    *lead_strides, s_n, s_c, s_h, s_w = x_padded.strides
    view = as_strided(
        x_padded,
        shape=(*lead, c, kh, kw, n, h_out, w_out),
        strides=(*lead_strides, s_c, s_h, s_w, s_n, s_h * stride, s_w * stride),
        writeable=False,
    )
    return view.reshape(*lead, c * kh * kw, n * h_out * w_out)


def _col2im(dcols: np.ndarray, padded_shape, kh: int, kw: int, stride: int, h_out: int, w_out: int):
    """Adjoint of :func:`_im2col`: scatter-add ``dcols`` back onto the padded input.

    Kernel rows are folded first and kernel columns second, so the
    overlap costs ``KH + KW`` adds of contiguous slabs instead of
    ``KH * KW``.  Returns a ``(..., N, C, H, W)`` view of a channel-major
    buffer.
    """
    *lead, n, c, h, w = padded_shape
    dwindows = dcols.reshape(*lead, c, kh, kw, n, h_out, w_out)
    rows = np.zeros((*lead, c, kw, n, h, w_out), dtype=dcols.dtype)
    for ki in range(kh):
        rows[..., ki : ki + h_out * stride : stride, :] += dwindows[..., ki, :, :, :, :]
    dx = np.zeros((*lead, c, n, h, w), dtype=dcols.dtype)
    for kj in range(kw):
        dx[..., kj : kj + w_out * stride : stride] += rows[..., kj, :, :, :]
    return dx.swapaxes(-4, -3)


def _conv(x: Tensor, weight: Tensor, bias: Optional[Tensor], stride: int, padding: int) -> Tensor:
    """The convolution kernel pair behind :func:`conv2d`:
    ``x[..., N, C_in, H, W]`` against ``weight[..., C_out, C_in, KH, KW]``,
    any leading axes being GEMM batch axes."""
    *lead, n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape[-4:]
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")
    h_out = _conv_output_size(h, kh, stride, padding)
    w_out = _conv_output_size(w, kw, stride, padding)

    x_padded = x.data
    if padding:
        x_padded = np.pad(x_padded, [(0, 0)] * (x.ndim - 2) + [(padding, padding)] * 2)
    cols = _im2col(x_padded, kh, kw, stride, h_out, w_out)
    padded_shape = x_padded.shape  # all backward needs of the padded copy
    w_flat = weight.data.reshape(*lead, c_out, c_in * kh * kw)

    out_cm = w_flat @ cols  # (..., C_out, N*H_out*W_out)
    if bias is not None:
        out_cm = out_cm + bias.data[..., None]
    # NCHW shape over channel-major memory; no copy.
    out_data = out_cm.reshape(*lead, c_out, n, h_out, w_out).swapaxes(-4, -3)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward_fn(grad: np.ndarray) -> None:
        # grad: (..., N, C_out, H_out, W_out)
        grad_cm = grad.swapaxes(-4, -3).reshape(*lead, c_out, n * h_out * w_out)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_cm.sum(axis=-1), owned=True)
        if weight.requires_grad:
            weight._accumulate((grad_cm @ cols.swapaxes(-1, -2)).reshape(weight.shape), owned=True)
        if x.requires_grad:
            dcols = w_flat.swapaxes(-1, -2) @ grad_cm  # (..., C*KH*KW, N*H_out*W_out)
            dx = _col2im(dcols, padded_shape, kh, kw, stride, h_out, w_out)
            if padding:
                dx = dx[..., padding:-padding, padding:-padding]
            # Fresh, but a strided view of a channel-major buffer: the
            # contiguity rule of the hand-off keeps its copy.
            x._accumulate(dx, owned=True)

    return Tensor._make(out_data, parents, backward_fn)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution"), of one
    layer or of a stack of K.

    A stack (:mod:`repro.nn.vmap`) is K independent convolutions as one
    batch of GEMMs: slice ``k`` of every operand is one client's
    convolution, and the whole call runs as a single ``np.matmul`` over
    the leading axis instead of K python dispatches.  It is the lone
    call's own kernel pair with the stack as a GEMM batch axis, so each
    slice's values and gradients match the per-client kernel by shared
    code, not by a mirrored copy (the vmap parity tests pin this bit for
    bit on this BLAS).

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``, or ``(K, N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, KH, KW)``, or per-slice filters
        ``(K, C_out, C_in, KH, KW)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``, or
        per-slice biases ``(K, C_out)``.
    stride, padding:
        Spatial stride and symmetric zero padding.
    """
    if x.ndim != weight.ndim or x.ndim not in (4, 5):
        raise ValueError(
            f"conv2d expects a 4-D input and weight, or a 5-D stack of each, "
            f"got shapes {x.shape} and {weight.shape}"
        )
    if x.ndim == 5 and x.shape[0] != weight.shape[0]:
        raise ValueError(f"stack mismatch: {x.shape[0]} inputs vs {weight.shape[0]} weights")
    return _conv(x, weight, bias, stride, padding)


def max_pool2d(x: Tensor, kernel_size: int) -> Tensor:
    """Non-overlapping max pooling with ``stride == kernel_size``.

    The spatial dimensions must be divisible by ``kernel_size`` (this covers
    every architecture in the paper: LeNet-5 uses 2x2 pools on even sizes).
    Pooling is per-sample, so ``x`` is ``(..., H, W)``: a stack's leading
    axis is one more axis of samples.
    """
    *lead, h, w = x.shape
    k = kernel_size
    if h % k or w % k:
        raise ValueError(f"spatial size ({h}, {w}) not divisible by kernel {k}")
    h_out, w_out = h // k, w // k
    windows = x.data.reshape(*lead, h_out, k, w_out, k)
    # The window maximum as pairwise maxima of its strided slices (rows,
    # then columns): the same values as a max over axes (3, 5), an order
    # of magnitude faster on a non-contiguous view.
    rows = windows[..., 0, :, :]
    for i in range(1, k):
        rows = np.maximum(rows, windows[..., i, :, :])
    out_data = rows[..., 0]
    for j in range(1, k):
        out_data = np.maximum(out_data, rows[..., j])
    if not (x.requires_grad and is_grad_enabled()):
        return Tensor(out_data)
    # Only a recorded graph needs to know which element of each window
    # won: one mask per window offset, the first maximum in row-major
    # window order taking the gradient.  np.maximum propagates NaN, so a
    # NaN window shows in the output and its first NaN wins.
    has_nan = bool(np.isnan(out_data).any())
    free = np.ones(out_data.shape, dtype=bool)  # windows still without a winner
    masks = []
    for i in range(k):
        for j in range(k):
            cell = windows[..., i, :, j]
            mask = cell == out_data
            if has_nan:
                mask |= np.isnan(cell)
            mask &= free
            free ^= mask
            masks.append(mask)

    def backward_fn(grad: np.ndarray) -> None:
        dx = np.empty(x.shape, dtype=x.data.dtype)
        dwindows = dx.reshape(*lead, h_out, k, w_out, k)
        for index, mask in enumerate(masks):
            # np.where, not grad * mask: a product leaves -0.0 and turns
            # inf * 0 into NaN where a losing cell must read +0.0.
            dwindows[..., index // k, :, index % k] = np.where(mask, grad, 0.0)
        x._accumulate(dx, owned=True)

    return Tensor._make(out_data, (x,), backward_fn)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``.

    Fused into a single graph node: the forward pass keeps the
    ``exp(x - max)`` intermediate and its sum, and the backward pass
    reuses them directly — ``dx = g − softmax · Σg`` — instead of
    re-deriving the softmax through a second exp/sum round-trip across
    five composed autograd nodes.  Every log-softmax consumer (the
    cross-entropy / focal / NLL / label-smoothing hard losses and the
    distillation loss) rides this path.  The float operations and their
    order match the previous composed implementation exactly, so values
    *and* gradients are bit-identical — training trajectories do not
    move.
    """
    # Subtracting the (detached) max is exact for both value and gradient.
    shift = x.data.max(axis=axis, keepdims=True)
    shifted = x.data - shift
    exp_shifted = np.exp(shifted)
    sum_exp = exp_shifted.sum(axis=axis, keepdims=True)
    out_data = shifted - np.log(sum_exp)

    def backward_fn(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        # Same ops in the same order as the composed sub/exp/sum/log/sub
        # graph (see tests/nn/test_functional.py::TestFusedLogSoftmax):
        # the gradient into log(Σexp) is −Σg, scaled by 1/Σexp, then
        # broadcast against the cached exp — no new exp/sum of the data.
        sum_grad = grad.sum(axis=axis, keepdims=True)
        x._accumulate(grad + exp_shifted * (np.negative(sum_grad) / sum_exp), owned=True)

    return Tensor._make(out_data, (x,), backward_fn)


def softmax(x: Tensor, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Softmax with optional distillation temperature (paper Eq. 3–4).

    ``temperature > 1`` smooths the distribution, which is how the teacher's
    "dark knowledge" is exposed to the student during distillation.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    scaled = x / float(temperature) if temperature != 1.0 else x
    return log_softmax(scaled, axis=axis).exp()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a float64 one-hot matrix of shape ``(len(labels), num_classes)``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for num_classes")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


#: Elements in one block of per-slice weight gradients (128 KB of float64).
_WEIGHT_GRAD_BLOCK = 16384


def _stacked_weight_grad(x: np.ndarray, grad: np.ndarray, weight_shape: tuple) -> np.ndarray:
    """:func:`linear`'s weight gradient for a stack, C-contiguous.

    Slice ``k`` is ``(x[k].T @ grad[k]).T``: the lone layer's GEMM, whose
    ``(in, out)`` result has to be transposed into the weight's layout.
    The slices are independent BLAS calls, so they are issued a block at
    a time and each block is transposed straight into the result — the
    same bits as one batched GEMM and a transposing copy of the whole,
    with one weight-sized allocation per step instead of two.  That is
    the point: two 1 MB arrays (K = 32 layers of 64x64) freed together sit
    on glibc's heap-trim threshold, and the stacked step gave its heap
    back to the kernel and faulted it in again every time (500 page
    faults a step, 1.5 ms against 0.8 ms with the block-sized temporary).
    """
    out_features, in_features = weight_shape[-2:]
    stack = math.prod(weight_shape[:-2])
    grad_w = np.empty(weight_shape, dtype=np.result_type(x, grad))
    slices = grad_w.reshape(stack, out_features, in_features)
    x_t = np.swapaxes(x.reshape(stack, x.shape[-2], in_features), -1, -2)
    grad = grad.reshape(stack, x.shape[-2], out_features)
    block = max(1, _WEIGHT_GRAD_BLOCK // max(1, out_features * in_features))
    for start in range(0, stack, block):
        stop = start + block
        slices[start:stop] = np.swapaxes(x_t[start:stop] @ grad[start:stop], -1, -2)
    return grad_w


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` as one graph node.

    The one fully connected kernel behind :class:`~repro.nn.layers.Linear`,
    in :func:`_conv`'s manner: leading axes of ``weight`` are GEMM batch
    axes, so a stack of K layers is the same call as a lone one (only a
    stack's ragged step differs: :func:`_ragged_linear`).

    Parameters
    ----------
    x:
        Input ``(..., N, in)``.  Against a 2-D ``weight`` any leading axes
        (or none at all: a single ``(in,)`` sample) are more samples and
        the weight / bias gradients sum over them; against a stacked
        ``weight`` the leading axes must equal the weight's.
    weight:
        ``(..., out, in)``.
    bias:
        Optional ``(..., out)``, the weight's shape without ``in``.

    Forward and backward issue the contractions the ``transpose`` →
    ``matmul`` → ``add`` chain issued (``x @ swapaxes(W)``, ``grad @ W``,
    ``swapaxes(swapaxes(x) @ grad)``, ``grad`` summed over the sample
    axes), so values and gradients are bit-identical to it
    (``tests/nn/test_functional.py::TestFusedLinear`` keeps the chain as
    the reference).  The weight gradient is deliberately *not* computed
    as ``swapaxes(grad) @ x``: contiguous, but not the same bits on this
    BLAS.
    """
    if x.ndim < 1 or weight.ndim < 2:
        raise ValueError(
            f"linear expects x (..., N, in) and weight (..., out, in), got "
            f"x {x.shape} and weight {weight.shape}"
        )
    lead = weight.shape[:-2]
    out_features, in_features = weight.shape[-2:]
    if x.shape[-1] != in_features or (lead and x.shape[:-2] != lead):
        raise ValueError(
            f"linear shape mismatch: x {x.shape} against weight {weight.shape} "
            "(in sizes and, for a stacked weight, leading axes must agree)"
        )
    if bias is not None and bias.shape != weight.shape[:-1]:
        raise ValueError(
            f"linear bias shape {bias.shape} != weight shape without in {weight.shape[:-1]}"
        )

    out_data = x.data @ np.swapaxes(weight.data, -1, -2)
    if bias is not None:
        out_data = out_data + (bias.data[..., None, :] if lead else bias.data)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward_fn(grad: np.ndarray) -> None:
        # grad: (..., N, out)
        if x.requires_grad:
            x._accumulate(grad @ weight.data, owned=True)
        if weight.requires_grad:
            if lead:
                grad_w = _stacked_weight_grad(x.data, grad, weight.shape)
            else:
                # One GEMM, nothing to block: through the helper a lone
                # 8x8 MLP step read 147-160 us against 137-145 us.
                if x.ndim == 1:
                    grad_wt = np.outer(x.data, grad)
                else:
                    grad_wt = np.swapaxes(x.data, -1, -2) @ grad  # (..., in, out)
                grad_wt = _unbroadcast(grad_wt, (in_features, out_features))
                # Fresh, but strided: the hand-off's contiguity rule copies it.
                grad_w = grad_wt.T
            weight._accumulate(grad_w, owned=True)
        if bias is not None and bias.requires_grad:
            sample_axes = tuple(range(len(lead), grad.ndim - 1))
            bias._accumulate(grad.sum(axis=sample_axes), owned=True)

    return Tensor._make(out_data, parents, backward_fn)


def _is_ragged(row_counts: Optional[List[int]], width: int) -> bool:
    return row_counts is not None and any(rows != width for rows in row_counts)


def _mask_padded_rows(out: Tensor, row_counts: Optional[List[int]]) -> Tensor:
    """Re-zero the padded rows of a ragged stacked activation.

    Ragged steps rely on an invariant: padded rows are exactly zero at
    every layer boundary, so no layer ever feeds padding-derived values
    into a true row.  A conv bias turns zero rows nonzero, so ``Conv2d``
    multiplies its output by a 0/1 row mask: true rows scale by exactly 1.0
    (bit-identity, forward and backward) and padded rows return to zero.
    """
    if not _is_ragged(row_counts, out.shape[1]):
        return out
    mask = np.zeros(out.shape, dtype=out.data.dtype)
    for index, rows in enumerate(row_counts):
        mask[index, :rows] = 1.0
    return out * Tensor(mask)


def _ragged_linear(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    row_counts: List[int],
) -> Tensor:
    """Row-exact stacked linear for ragged (zero-padded) steps.

    GEMM accumulation order depends on the operand shapes: the same true
    rows inside a taller zero-padded matrix can come out an ULP off,
    because BLAS picks its blocking per matrix size, not per row.  A
    ragged step therefore runs one GEMM per slice at each member's
    *true* row count — issuing exactly the contractions :func:`linear`
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
                    # linear's own weight contraction: x.T @ grad,
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
