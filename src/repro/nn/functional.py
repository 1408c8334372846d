"""Neural-network functional primitives built on the autograd engine.

Contains the convolution / pooling kernels (implemented with im2col on top
of :func:`numpy.lib.stride_tricks.sliding_window_view`) and numerically
stable softmax utilities. All functions take and return
:class:`repro.nn.tensor.Tensor` and participate in autodiff.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, ensure_tensor, is_grad_enabled


def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size: input={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, KH, KW)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    stride, padding:
        Spatial stride and symmetric zero padding.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d expects 4-D input, got shape {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"conv2d expects 4-D weight, got shape {weight.shape}")
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")
    h_out = _conv_output_size(h, kh, stride, padding)
    w_out = _conv_output_size(w, kw, stride, padding)

    x_padded = x.data
    if padding:
        x_padded = np.pad(x_padded, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # windows: (N, C, H', W', KH, KW) where H'/W' enumerate window origins.
    windows = sliding_window_view(x_padded, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    # cols: (N * H_out * W_out, C * KH * KW)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * h_out * w_out, c_in * kh * kw)
    w_flat = weight.data.reshape(c_out, -1)

    out_flat = cols @ w_flat.T
    if bias is not None:
        out_flat = out_flat + bias.data
    out_data = out_flat.reshape(n, h_out, w_out, c_out).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward_fn(grad: np.ndarray) -> None:
        # grad: (N, C_out, H_out, W_out)
        grad_flat = grad.transpose(0, 2, 3, 1).reshape(n * h_out * w_out, c_out)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_flat.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate((grad_flat.T @ cols).reshape(weight.shape))
        if x.requires_grad:
            dcols = grad_flat @ w_flat  # (N*H_out*W_out, C*KH*KW)
            dwindows = dcols.reshape(n, h_out, w_out, c_in, kh, kw).transpose(0, 3, 1, 2, 4, 5)
            dx_padded = np.zeros_like(x_padded)
            for ki in range(kh):
                for kj in range(kw):
                    dx_padded[
                        :, :, ki : ki + h_out * stride : stride, kj : kj + w_out * stride : stride
                    ] += dwindows[:, :, :, :, ki, kj]
            if padding:
                dx = dx_padded[:, :, padding:-padding, padding:-padding]
            else:
                dx = dx_padded
            x._accumulate(dx)

    return Tensor._make(out_data, parents, backward_fn)


def conv2d_stacked(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """K independent 2-D convolutions as one batch of GEMMs.

    The vectorized-cohort kernel (:mod:`repro.nn.vmap`): slice ``k`` of
    every operand is one client's convolution, and the whole call runs
    as a single ``np.matmul`` over the leading axis instead of K python
    dispatches.  The per-slice computation — im2col layout, GEMM
    operand order, bias broadcast, and every backward contraction — is
    op-for-op the same as :func:`conv2d` on that slice alone, so each
    slice's values and gradients match the per-client kernel (the vmap
    parity tests pin this bit for bit on this BLAS).

    Parameters
    ----------
    x:
        Stacked input of shape ``(K, N, C_in, H, W)``.
    weight:
        Per-slice filters of shape ``(K, C_out, C_in, KH, KW)``.
    bias:
        Optional per-slice biases of shape ``(K, C_out)``.
    """
    if x.ndim != 5:
        raise ValueError(f"conv2d_stacked expects 5-D input, got shape {x.shape}")
    if weight.ndim != 5:
        raise ValueError(f"conv2d_stacked expects 5-D weight, got shape {weight.shape}")
    k_stack, n, c_in, h, w = x.shape
    k_w, c_out, c_in_w, kh, kw = weight.shape
    if k_stack != k_w:
        raise ValueError(f"stack mismatch: {k_stack} inputs vs {k_w} weights")
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")
    h_out = _conv_output_size(h, kh, stride, padding)
    w_out = _conv_output_size(w, kw, stride, padding)

    x_padded = x.data
    if padding:
        x_padded = np.pad(
            x_padded, ((0, 0), (0, 0), (0, 0), (padding, padding), (padding, padding))
        )
    # windows: (K, N, C, H', W', KH, KW), exactly conv2d's layout plus the
    # leading stack axis.
    windows = sliding_window_view(x_padded, (kh, kw), axis=(3, 4))
    windows = windows[:, :, :, ::stride, ::stride, :, :]
    # cols: (K, N * H_out * W_out, C * KH * KW)
    cols = windows.transpose(0, 1, 3, 4, 2, 5, 6).reshape(
        k_stack, n * h_out * w_out, c_in * kh * kw
    )
    w_flat = weight.data.reshape(k_stack, c_out, -1)

    # Batched GEMM: slice k computes cols[k] @ w_flat[k].T, the same
    # contraction conv2d issues for one client.
    out_flat = cols @ w_flat.transpose(0, 2, 1)
    if bias is not None:
        out_flat = out_flat + bias.data[:, None, :]
    out_data = out_flat.reshape(k_stack, n, h_out, w_out, c_out).transpose(0, 1, 4, 2, 3)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward_fn(grad: np.ndarray) -> None:
        # grad: (K, N, C_out, H_out, W_out)
        grad_flat = grad.transpose(0, 1, 3, 4, 2).reshape(
            k_stack, n * h_out * w_out, c_out
        )
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_flat.sum(axis=1))
        if weight.requires_grad:
            weight._accumulate(
                (grad_flat.transpose(0, 2, 1) @ cols).reshape(weight.shape)
            )
        if x.requires_grad:
            dcols = grad_flat @ w_flat  # (K, N*H_out*W_out, C*KH*KW)
            dwindows = dcols.reshape(
                k_stack, n, h_out, w_out, c_in, kh, kw
            ).transpose(0, 1, 4, 2, 3, 5, 6)
            dx_padded = np.zeros_like(x_padded)
            for ki in range(kh):
                for kj in range(kw):
                    dx_padded[
                        :, :, :,
                        ki : ki + h_out * stride : stride,
                        kj : kj + w_out * stride : stride,
                    ] += dwindows[:, :, :, :, :, ki, kj]
            if padding:
                dx = dx_padded[:, :, :, padding:-padding, padding:-padding]
            else:
                dx = dx_padded
            x._accumulate(dx)

    return Tensor._make(out_data, parents, backward_fn)


def max_pool2d(x: Tensor, kernel_size: int) -> Tensor:
    """Non-overlapping max pooling with ``stride == kernel_size``.

    The spatial dimensions must be divisible by ``kernel_size`` (this covers
    every architecture in the paper: LeNet-5 uses 2x2 pools on even sizes).
    """
    n, c, h, w = x.shape
    k = kernel_size
    if h % k or w % k:
        raise ValueError(f"spatial size ({h}, {w}) not divisible by kernel {k}")
    h_out, w_out = h // k, w // k
    windows = x.data.reshape(n, c, h_out, k, w_out, k)
    # The window maximum as pairwise maxima of its strided slices (rows,
    # then columns): the same values as a max over axes (3, 5), an order
    # of magnitude faster on a non-contiguous view.
    rows = windows[:, :, :, 0]
    for i in range(1, k):
        rows = np.maximum(rows, windows[:, :, :, i])
    out_data = rows[..., 0]
    for j in range(1, k):
        out_data = np.maximum(out_data, rows[..., j])
    if not (x.requires_grad and is_grad_enabled()):
        return Tensor(out_data)
    # Only a recorded graph needs to know which element of each window won.
    arg = windows.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h_out, w_out, k * k).argmax(axis=-1)

    def backward_fn(grad: np.ndarray) -> None:
        dflat = np.zeros((n, c, h_out, w_out, k * k), dtype=x.data.dtype)
        np.put_along_axis(dflat, arg[..., None], grad[..., None], axis=-1)
        dx = (
            dflat.reshape(n, c, h_out, w_out, k, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )
        x._accumulate(dx)

    return Tensor._make(out_data, (x,), backward_fn)


def avg_pool2d(x: Tensor, kernel_size: int) -> Tensor:
    """Non-overlapping average pooling with ``stride == kernel_size``."""
    n, c, h, w = x.shape
    k = kernel_size
    if h % k or w % k:
        raise ValueError(f"spatial size ({h}, {w}) not divisible by kernel {k}")
    return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))


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
        x._accumulate(grad + exp_shifted * (np.negative(sum_grad) / sum_exp))

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


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` and rescale."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def flatten_images(x: np.ndarray) -> np.ndarray:
    """Flatten image batches ``(N, C, H, W)`` to ``(N, C*H*W)`` (no grad)."""
    x = np.asarray(x)
    return x.reshape(x.shape[0], -1)
