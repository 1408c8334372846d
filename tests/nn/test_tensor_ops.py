"""Forward-value semantics of tensor ops and ``ensure_tensor``."""

import numpy as np
import pytest

from repro.nn import Tensor, ensure_tensor


class TestArithmeticValues:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_radd_scalar(self):
        np.testing.assert_allclose((5 + Tensor([1.0])).data, [6.0])

    def test_rsub_scalar(self):
        np.testing.assert_allclose((5 - Tensor([1.0])).data, [4.0])

    def test_rmul_scalar(self):
        np.testing.assert_allclose((3 * Tensor([2.0])).data, [6.0])

    def test_rtruediv_scalar(self):
        np.testing.assert_allclose((6 / Tensor([2.0])).data, [3.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose((a @ b).data, np.array([[19, 22], [43, 50]], dtype=float))

    def test_var_matches_numpy(self):
        data = np.random.default_rng(0).normal(size=(4, 5))
        np.testing.assert_allclose(Tensor(data).var(axis=1).data, data.var(axis=1))

    def test_mean_matches_numpy(self):
        data = np.random.default_rng(0).normal(size=(4, 5))
        np.testing.assert_allclose(Tensor(data).mean(axis=0).data, data.mean(axis=0))


class TestScalarOperandsKeepDtype:
    """A Python scalar beside a floating tensor is lifted in that tensor's
    dtype: ``var + eps`` and ``sum / count`` (so ``Tensor.mean``) do not
    promote a float32 tensor to float64; float64 stays float64."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_binary_ops_with_scalars(self, dtype):
        x = Tensor(np.arange(1, 7, dtype=dtype).reshape(2, 3), requires_grad=True)
        outs = [x + 1e-5, 2 + x, x - 0.5, 3 - x, x * 0.1, 2 * x, x / 3.0, 1.0 / x,
                x.mean(), x.mean(axis=0), x.var(axis=1)]
        for out in outs:
            assert out.dtype == dtype
        sum(out.sum() for out in outs).backward()
        assert x.grad.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unary_ops_and_reductions(self, dtype):
        x = Tensor(np.arange(1, 7, dtype=dtype).reshape(1, 2, 3), requires_grad=True)
        outs = [x.exp(), x.log(), x.relu(), x ** 2, x.sum(axis=1), x.reshape(3, 2),
                x.flatten()]
        for out in outs:
            assert out.dtype == dtype
        sum(out.sum() for out in outs).backward()
        assert x.grad.dtype == dtype


class TestEnsureTensor:
    def test_passthrough(self):
        t = Tensor([1.0])
        assert ensure_tensor(t) is t

    def test_from_list(self):
        t = ensure_tensor([1, 2, 3])
        assert isinstance(t, Tensor)
        assert t.dtype == np.float64

    def test_from_scalar(self):
        assert ensure_tensor(2.5).item() == 2.5
