"""Convolution / pooling / softmax functional primitives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor, no_grad
from repro.nn import functional as F

from ..conftest import generated, numeric_grad


def reference_conv2d(x, w, b, stride, padding):
    """Naive loop convolution for value cross-checks."""
    n, c_in, h, w_in = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w_in + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, h_out, w_out))
    for ni in range(n):
        for co in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    patch = xp[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[ni, co, i, j] = (patch * w[co]).sum() + (b[co] if b is not None else 0.0)
    return out


def reference_conv2d_grads(x, w, stride, padding, grad):
    """Direct-sum gradients of ``reference_conv2d`` under upstream ``grad``."""
    n, c_in, h, w_in = x.shape
    _, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(grad.shape[2]):
        for j in range(grad.shape[3]):
            rows = slice(i * stride, i * stride + kh)
            cols = slice(j * stride, j * stride + kw)
            g = grad[:, :, i, j]  # (N, C_out)
            dw += np.einsum("no,nchw->ochw", g, xp[:, :, rows, cols])
            dxp[:, :, rows, cols] += np.einsum("no,ochw->nchw", g, w)
    dx = dxp[:, :, padding : padding + h, padding : padding + w_in]
    return dx, dw, grad.sum(axis=(0, 2, 3))


class TestConv2dForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_reference(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        expected = reference_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_no_bias(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w))
        expected = reference_conv2d(x, w, None, 1, 0)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_output_shape(self, rng):
        out = F.conv2d(
            Tensor(rng.normal(size=(2, 1, 28, 28))),
            Tensor(rng.normal(size=(6, 1, 5, 5))),
        )
        assert out.shape == (2, 6, 24, 24)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(rng.normal(size=(1, 2, 5, 5))),
                     Tensor(rng.normal(size=(3, 4, 3, 3))))

    def test_bad_dims_raise(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(rng.normal(size=(2, 5, 5))),
                     Tensor(rng.normal(size=(3, 2, 3, 3))))

    def test_kernel_too_large_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(rng.normal(size=(1, 1, 2, 2))),
                     Tensor(rng.normal(size=(1, 1, 5, 5))))


class TestConv2dBackward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_input_grad(self, rng, stride, padding):
        x_val = rng.normal(size=(2, 2, 6, 6))
        w_val = rng.normal(size=(3, 2, 3, 3))
        b_val = rng.normal(size=(3,))
        x = Tensor(x_val.copy(), requires_grad=True)
        out = F.conv2d(x, Tensor(w_val), Tensor(b_val), stride=stride, padding=padding)
        (out * out).sum().backward()

        def f(v):
            o = reference_conv2d(v, w_val, b_val, stride, padding)
            return (o * o).sum()

        expected = numeric_grad(f, x_val.copy(), eps=1e-6)
        np.testing.assert_allclose(x.grad, expected, atol=1e-4)

    def test_weight_grad(self, rng):
        x_val = rng.normal(size=(2, 2, 5, 5))
        w_val = rng.normal(size=(3, 2, 3, 3))
        w = Tensor(w_val.copy(), requires_grad=True)
        out = F.conv2d(Tensor(x_val), w, None, stride=1, padding=1)
        (out * out).sum().backward()

        def f(v):
            o = reference_conv2d(x_val, v, None, 1, 1)
            return (o * o).sum()

        expected = numeric_grad(f, w_val.copy(), eps=1e-6)
        np.testing.assert_allclose(w.grad, expected, atol=1e-4)

    def test_bias_grad(self, rng):
        x_val = rng.normal(size=(2, 2, 4, 4))
        w_val = rng.normal(size=(3, 2, 3, 3))
        b = Tensor(np.zeros(3), requires_grad=True)
        out = F.conv2d(Tensor(x_val), Tensor(w_val), b)
        out.sum().backward()
        # d(sum)/db_c = number of output positions per channel
        np.testing.assert_allclose(b.grad, np.full(3, 2 * 2 * 2))


class TestConv2dProperty:
    """The one kernel pair, by generation: any geometry the hand-picked
    cases above never reach (non-square inputs and kernels, strides up
    to 3, the empty batch), against the direct sum — and the stacked
    entry point against the scalar one bit for bit."""

    K = 2  # stack depth

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        n=st.integers(0, 3),
        c_in=st.integers(1, 3),
        c_out=st.integers(1, 3),
        kh=st.integers(1, 3),
        kw=st.integers(1, 3),
        h_extra=st.integers(0, 4),
        w_extra=st.integers(0, 4),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        use_bias=st.booleans(),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_direct_sum_and_stacked_matches_scalar(
        self, n, c_in, c_out, kh, kw, h_extra, w_extra, stride, padding,
        use_bias, dtype, seed,
    ):
        rng = np.random.default_rng(seed)
        h = max(1, kh - 2 * padding) + h_extra
        w = max(1, kw - 2 * padding) + w_extra
        x_val = rng.normal(size=(self.K, n, c_in, h, w)).astype(dtype)
        w_val = rng.normal(size=(self.K, c_out, c_in, kh, kw)).astype(dtype)
        b_val = rng.normal(size=(self.K, c_out)).astype(dtype) if use_bias else None

        def leaves(index):
            values = (x_val, w_val) if b_val is None else (x_val, w_val, b_val)
            return [Tensor(v[index].copy(), requires_grad=True) for v in values]

        stacked = leaves(slice(None))
        out = F.conv2d(*stacked, stride=stride, padding=padding)
        upstream = rng.normal(size=out.shape).astype(dtype)
        out.backward(upstream)
        assert out.dtype == dtype

        # float32 sums run to a few hundred terms of magnitude ~1.
        tol = dict(rtol=1e-4, atol=1e-3) if dtype == np.float32 else dict(rtol=1e-9, atol=1e-9)
        for k in range(self.K):
            scalar = leaves(k)
            out_k = F.conv2d(*scalar, stride=stride, padding=padding)
            out_k.backward(upstream[k])
            assert out_k.data.tobytes() == out.data[k].tobytes()
            for one, fused in zip(scalar, stacked):
                assert one.grad.dtype == dtype
                assert one.grad.tobytes() == fused.grad[k].tobytes()

            x64, w64 = x_val[k].astype(np.float64), w_val[k].astype(np.float64)
            b64 = None if b_val is None else b_val[k].astype(np.float64)
            expected = reference_conv2d(x64, w64, b64, stride, padding)
            np.testing.assert_allclose(out_k.data, expected, **tol)
            grads = reference_conv2d_grads(
                x64, w64, stride, padding, upstream[k].astype(np.float64)
            )
            for one, reference in zip(scalar, grads):
                np.testing.assert_allclose(one.grad, reference, **tol)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[[5, 7], [13, 15]]]])

    def test_max_pool_grad_goes_to_max_only(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, 1, 1] = expected[0, 0, 1, 3] = 1
        expected[0, 0, 3, 1] = expected[0, 0, 3, 3] = 1
        np.testing.assert_allclose(x.grad, expected)

    def test_max_pool_indivisible_raises(self, rng):
        with pytest.raises(ValueError):
            F.max_pool2d(Tensor(rng.normal(size=(1, 1, 5, 5))), 2)

    def test_max_pool_gradcheck(self, rng):
        x_val = rng.normal(size=(2, 2, 4, 4))
        x = Tensor(x_val.copy(), requires_grad=True)
        (F.max_pool2d(x, 2) ** 2).sum().backward()

        def f(v):
            windows = v.reshape(2, 2, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
            pooled = windows.reshape(2, 2, 2, 2, 4).max(axis=-1)
            return (pooled ** 2).sum()

        expected = numeric_grad(f, x_val.copy())
        np.testing.assert_allclose(x.grad, expected, atol=1e-5)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_max_pool_matches_argmax_reference_with_ties_and_nans(self, rng, k):
        # The forward takes pairwise maxima and computes argmax only when
        # a graph is recorded; both paths must reproduce the
        # argmax + take_along_axis kernel bit for bit — ReLU-style ties
        # and NaNs included — and the gradient must follow the first
        # maximal element of each window.
        x_val = rng.normal(size=(3, 2, 6 * k, 4 * k))
        x_val[x_val < 0] = 0.0
        x_val[0, 0, 0, 1] = x_val[1, 1, 2 * k, 0] = np.nan
        flat = (
            x_val.reshape(3, 2, 6, k, 4, k).transpose(0, 1, 2, 4, 3, 5).reshape(3, 2, 6, 4, k * k)
        )
        arg = flat.argmax(axis=-1)[..., None]
        expected = np.take_along_axis(flat, arg, axis=-1)[..., 0]

        x = Tensor(x_val.copy(), requires_grad=True)
        recorded = F.max_pool2d(x, k)
        with no_grad():
            inference = F.max_pool2d(Tensor(x_val.copy()), k)
        assert recorded.data.tobytes() == inference.data.tobytes() == expected.tobytes()

        upstream = rng.normal(size=expected.shape)
        recorded.backward(upstream)
        dflat = np.zeros_like(flat)
        np.put_along_axis(dflat, arg, upstream[..., None], axis=-1)
        expected_grad = (
            dflat.reshape(3, 2, 6, 4, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(x_val.shape)
        )
        assert x.grad.tobytes() == expected_grad.tobytes()

    def test_max_pool_all_equal_window_and_signed_zero_tie(self):
        # k = 3: one window of nine equal values (the first cell takes the
        # gradient) and one whose maxima are -0.0 then +0.0 (they compare
        # equal, so -0.0 at the earlier offset wins and is the value kept).
        k = 3
        x_val = -np.ones((1, 1, 3, 6))
        x_val[0, 0, :, :3] = 2.5
        x_val[0, 0, 1, 4] = -0.0
        x_val[0, 0, 2, 3] = 0.0
        flat = x_val.reshape(1, 1, 1, k, 2, k).transpose(0, 1, 2, 4, 3, 5).reshape(1, 1, 1, 2, k * k)
        arg = flat.argmax(axis=-1)[..., None]
        assert arg.ravel().tolist() == [0, 4]
        expected = np.take_along_axis(flat, arg, axis=-1)[..., 0]

        x = Tensor(x_val.copy(), requires_grad=True)
        out = F.max_pool2d(x, k)
        assert out.data.tobytes() == expected.tobytes()
        upstream = np.array([[[[3.0, -7.0]]]])
        out.backward(upstream)
        dflat = np.zeros_like(flat)
        np.put_along_axis(dflat, arg, upstream[..., None], axis=-1)
        expected_grad = (
            dflat.reshape(1, 1, 1, 2, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(x_val.shape)
        )
        assert x.grad.tobytes() == expected_grad.tobytes()

    def test_avg_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[[2.5, 4.5], [10.5, 12.5]]]])

    def test_avg_pool_indivisible_raises(self, rng):
        with pytest.raises(ValueError):
            F.avg_pool2d(Tensor(rng.normal(size=(1, 1, 6, 5))), 2)

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))


class TestSoftmax:
    def test_log_softmax_matches_scipy_style(self, rng):
        x = rng.normal(size=(4, 5)) * 10
        out = F.log_softmax(Tensor(x), axis=1).data
        shifted = x - x.max(axis=1, keepdims=True)
        expected = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_log_softmax_stable_for_huge_logits(self):
        x = Tensor(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
        out = F.log_softmax(x, axis=1).data
        assert np.isfinite(out).all()

    def test_softmax_sums_to_one(self, rng):
        probs = F.softmax(Tensor(rng.normal(size=(3, 7))), axis=1).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(3))
        assert (probs >= 0).all()

    def test_temperature_smooths(self, rng):
        x = Tensor(rng.normal(size=(1, 10)) * 5)
        sharp = F.softmax(x, axis=1, temperature=1.0).data
        smooth = F.softmax(x, axis=1, temperature=10.0).data
        assert smooth.max() < sharp.max()
        assert smooth.var() < sharp.var()

    def test_invalid_temperature_raises(self):
        with pytest.raises(ValueError):
            F.softmax(Tensor(np.ones((1, 2))), temperature=0.0)

    def test_log_softmax_gradcheck(self, rng):
        x_val = rng.normal(size=(2, 4))
        x = Tensor(x_val.copy(), requires_grad=True)
        (F.log_softmax(x, axis=1) ** 2).sum().backward()

        def f(v):
            shifted = v - v.max(axis=1, keepdims=True)
            ls = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            return (ls ** 2).sum()

        expected = numeric_grad(f, x_val.copy())
        np.testing.assert_allclose(x.grad, expected, atol=1e-5)


class TestOneHotDropoutLinear:
    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(out, np.eye(3)[[0, 2, 1]])

    def test_one_hot_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)

    def test_one_hot_requires_1d(self):
        with pytest.raises(ValueError):
            F.one_hot(np.zeros((2, 2), dtype=int), 3)

    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        out = F.dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_dropout_zero_p_is_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        assert F.dropout(x, 0.0, rng, training=True) is x

    def test_dropout_scales_survivors(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((100, 100)))
        out = F.dropout(x, 0.5, rng, training=True).data
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert abs((out > 0).mean() - 0.5) < 0.05

    def test_dropout_invalid_p(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(2)), 1.0, rng)

    def test_linear(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(2, 4))
        b = rng.normal(size=(2,))
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b)

    def test_flatten_images(self, rng):
        x = rng.normal(size=(5, 3, 4, 4))
        assert F.flatten_images(x).shape == (5, 48)


class TestFusedLogSoftmax:
    """log_softmax runs as one fused graph node whose backward reuses the
    forward's exp/sum intermediates.  The fusion must be invisible: values
    AND gradients bit-identical to the composed sub/exp/sum/log/sub graph
    it replaced (so every training trajectory in the repo is unmoved)."""

    @staticmethod
    def composed_log_softmax(x, axis=-1):
        # The pre-fusion implementation, kept here as the reference.
        shift = Tensor(x.data.max(axis=axis, keepdims=True))
        shifted = x - shift
        return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()

    @pytest.mark.parametrize("axis", [1, -1])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_and_backward_bit_identical_to_composed(self, rng, axis, dtype):
        x_val = (rng.normal(size=(16, 7)) * 5).astype(dtype)
        labels = np.arange(16) % 7

        fused_in = Tensor(x_val.copy(), requires_grad=True)
        composed_in = Tensor(x_val.copy(), requires_grad=True)
        fused = F.log_softmax(fused_in, axis=axis)
        composed = self.composed_log_softmax(composed_in, axis=axis)
        np.testing.assert_array_equal(fused.data, composed.data)

        # Cross-entropy-shaped downstream graph (the training hot path).
        (-(fused[np.arange(16), labels])).mean().backward()
        (-(composed[np.arange(16), labels])).mean().backward()
        np.testing.assert_array_equal(fused_in.grad, composed_in.grad)

    def test_backward_bit_identical_under_dense_upstream_grad(self, rng):
        # A gradient flowing into every output element (not just the
        # picked labels) exercises the summed broadcast path.
        x_val = rng.normal(size=(5, 6))
        fused_in = Tensor(x_val.copy(), requires_grad=True)
        composed_in = Tensor(x_val.copy(), requires_grad=True)
        (F.log_softmax(fused_in, axis=1) ** 2).sum().backward()
        (self.composed_log_softmax(composed_in, axis=1) ** 2).sum().backward()
        np.testing.assert_array_equal(fused_in.grad, composed_in.grad)

    def test_no_grad_produces_plain_tensor(self, rng):
        from repro.nn.tensor import no_grad

        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with no_grad():
            out = F.log_softmax(x, axis=1)
        assert not out.requires_grad

    def test_gradient_sums_to_zero_per_row(self, rng):
        # Softmax gradient identity: rows of d(log_softmax)/dx sum to 0
        # when the upstream gradient is uniform over a row's element.
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        F.log_softmax(x, axis=1).sum().backward()
        np.testing.assert_allclose(x.grad.sum(axis=1), np.zeros(4), atol=1e-12)


class TestFusedLinear:
    """F.linear is one graph node behind ``Linear``, lone or in a stack.
    The fusion must be invisible: the output and the gradients of ``x``,
    ``weight`` and ``bias`` bit-identical to the transpose -> matmul -> add
    chain it replaced, and slice ``k`` of a stacked call bit-identical to
    the lone call on ``x[k]``."""

    @staticmethod
    def composed_linear(x, weight, bias):
        # The pre-fusion implementations, kept here as the reference:
        # F.linear's scalar chain and StackedLinear.forward's stacked one.
        if weight.ndim == 2:
            out = x @ weight.T
            return out if bias is None else out + bias
        out = x @ weight.transpose(0, 2, 1)
        if bias is None:
            return out
        return out + bias.reshape(bias.shape[0], 1, bias.shape[1])

    @staticmethod
    def run(fn, values, x_requires_grad, upstream):
        x, *params = [
            Tensor(v.copy(), requires_grad=x_requires_grad or index > 0)
            for index, v in enumerate(values)
        ]
        out = fn(x, params[0], params[1] if len(params) > 1 else None)
        out.backward(upstream)
        return out, [x, *params]

    @generated(150)
    @given(
        stack=st.one_of(st.none(), st.integers(1, 3)),
        n=st.integers(0, 5),
        in_features=st.integers(1, 6),
        out_features=st.integers(1, 5),
        use_bias=st.booleans(),
        dtype=st.sampled_from([np.float64, np.float32]),
        x_requires_grad=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical_to_composed_chain_and_slices_to_lone_layer(
        self, stack, n, in_features, out_features, use_bias, dtype,
        x_requires_grad, seed,
    ):
        rng = np.random.default_rng(seed)
        lead = () if stack is None else (stack,)
        values = [
            rng.normal(size=lead + (n, in_features)).astype(dtype),
            rng.normal(size=lead + (out_features, in_features)).astype(dtype),
        ]
        if use_bias:
            values.append(rng.normal(size=lead + (out_features,)).astype(dtype))
        upstream = rng.normal(size=lead + (n, out_features)).astype(dtype)

        fused, fused_leaves = self.run(F.linear, values, x_requires_grad, upstream)
        composed, composed_leaves = self.run(
            self.composed_linear, values, x_requires_grad, upstream
        )
        assert fused.dtype == dtype
        assert fused.data.tobytes() == composed.data.tobytes()
        for one, reference in zip(fused_leaves, composed_leaves):
            if not one.requires_grad:
                assert one.grad is None
                continue
            assert one.grad.dtype == dtype and one.grad.shape == one.shape
            assert one.grad.tobytes() == reference.grad.tobytes()

        for k in range(stack or 0):
            lone, lone_leaves = self.run(
                F.linear, [v[k] for v in values], x_requires_grad, upstream[k]
            )
            assert lone.data.tobytes() == fused.data[k].tobytes()
            for one, stacked in zip(lone_leaves, fused_leaves):
                if one.requires_grad:
                    assert one.grad.tobytes() == stacked.grad[k].tobytes()

    @pytest.mark.parametrize("x_shape", [(4,), (2, 3, 4)])
    def test_ranks_the_chain_accepted_over_a_lone_weight(self, rng, x_shape):
        # A single (in,) sample, and extra leading axes of x whose weight /
        # bias gradients sum down to the parameter shapes.
        values = [
            rng.normal(size=x_shape), rng.normal(size=(5, 4)), rng.normal(size=(5,))
        ]
        upstream = rng.normal(size=x_shape[:-1] + (5,))
        fused, fused_leaves = self.run(F.linear, values, True, upstream)
        composed, composed_leaves = self.run(self.composed_linear, values, True, upstream)
        assert fused.data.tobytes() == composed.data.tobytes()
        for one, reference in zip(fused_leaves, composed_leaves):
            assert one.grad.shape == one.shape
            assert one.grad.tobytes() == reference.grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lead", [(9,), (2, 3)])
    def test_stack_wider_than_one_weight_gradient_block(self, rng, lead, dtype):
        # The stacked weight gradient is issued a block of slices at a
        # time (here 5 + 4, and 5 + 1 over two flattened stack axes): the
        # blocking must not show in the bits.
        n, in_features, out_features = 8, 64, 48
        assert 1 < F._WEIGHT_GRAD_BLOCK // (in_features * out_features) < np.prod(lead)
        values = [
            rng.normal(size=lead + (n, in_features)).astype(dtype),
            rng.normal(size=lead + (out_features, in_features)).astype(dtype),
            rng.normal(size=lead + (out_features,)).astype(dtype),
        ]
        upstream = rng.normal(size=lead + (n, out_features)).astype(dtype)
        fused, fused_leaves = self.run(F.linear, values, True, upstream)
        if len(lead) == 1:
            composed, composed_leaves = self.run(self.composed_linear, values, True, upstream)
            assert fused.data.tobytes() == composed.data.tobytes()
            for one, reference in zip(fused_leaves, composed_leaves):
                assert one.grad.tobytes() == reference.grad.tobytes()
        for k in np.ndindex(*lead):
            lone, lone_leaves = self.run(F.linear, [v[k] for v in values], True, upstream[k])
            assert lone.data.tobytes() == fused.data[k].tobytes()
            for one, stacked in zip(lone_leaves, fused_leaves):
                assert one.grad.tobytes() == stacked.grad[k].tobytes()

    def test_is_one_graph_node(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2,)), requires_grad=True)
        out = F.linear(x, w, b)
        assert out._parents == (x, w, b)

    @pytest.mark.parametrize(
        "x_shape, w_shape, b_shape",
        [
            ((3, 4), (2, 5), None),            # in sizes disagree
            ((2, 3, 4), (3, 2, 4), None),      # stack sizes disagree
            ((3, 4), (2, 2, 4), None),         # lone x against a stacked weight
            ((1, 3, 4), (2, 2, 4), None),      # would broadcast silently
            ((2, 3, 4), (2, 2, 4), (2,)),      # lone bias against a stacked weight
            ((3, 4), (2, 4), (1, 2)),          # bias is not the weight without in
            ((3, 4), (4,), None),              # weight needs (out, in)
        ],
    )
    def test_shape_mismatch_raises_naming_both_shapes(self, x_shape, w_shape, b_shape):
        x, w = Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape))
        b = None if b_shape is None else Tensor(np.zeros(b_shape))
        with pytest.raises(ValueError) as error:
            F.linear(x, w, b)
        named = (b_shape, w_shape[:-1]) if b_shape is not None else (x_shape, w_shape)
        for shape in named:
            assert str(shape) in str(error.value)
