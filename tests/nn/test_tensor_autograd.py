"""Gradient correctness of the autograd engine against finite differences."""

import numpy as np
import pytest

from repro.nn import Tensor, no_grad, is_grad_enabled
from repro.nn import functional as F

from ..conftest import numeric_grad

ATOL = 1e-5


def check_grad(build_loss, x_value, atol=ATOL):
    """Compare analytic grad of scalar build_loss(Tensor) vs numeric."""
    x = Tensor(np.array(x_value, dtype=np.float64), requires_grad=True)
    loss = build_loss(x)
    loss.backward()

    def f(value):
        return build_loss(Tensor(np.array(value, dtype=np.float64))).item()

    expected = numeric_grad(f, np.array(x_value, dtype=np.float64))
    np.testing.assert_allclose(x.grad, expected, atol=atol)


class TestElementwiseGrads:
    def test_add(self):
        check_grad(lambda x: (x + 2.0).sum(), [[1.0, -2.0], [3.0, 0.5]])

    def test_mul(self):
        check_grad(lambda x: (x * x).sum(), [[1.0, -2.0], [3.0, 0.5]])

    def test_div(self):
        check_grad(lambda x: (1.0 / x).sum(), [[1.0, -2.0], [3.0, 0.5]])

    def test_sub(self):
        check_grad(lambda x: (5.0 - x).sum(), [1.0, 2.0, 3.0])

    def test_pow(self):
        check_grad(lambda x: (x ** 3).sum(), [1.0, 2.0, -1.5])

    def test_pow_fractional(self):
        # Batch norm's 1 / sqrt(var + eps) is ``** 0.5`` under a division.
        check_grad(lambda x: (1.0 / x ** 0.5).sum(), [0.5, 1.0, 4.0])

    def test_pow_negative(self):
        check_grad(lambda x: (x ** -1.5).sum(), [0.5, 1.0, 4.0])

    def test_exp(self):
        check_grad(lambda x: x.exp().sum(), [0.0, 1.0, -1.0])

    def test_log(self):
        check_grad(lambda x: x.log().sum(), [0.5, 1.0, 3.0])

    def test_relu(self):
        check_grad(lambda x: x.relu().sum(), [0.5, -1.0, 2.0, -0.1])

    def test_clip(self):
        check_grad(lambda x: x.clip(-1.0, 1.0).sum(), [0.5, -2.0, 2.0, 0.9])

    def test_neg(self):
        check_grad(lambda x: (-x).sum(), [1.0, -2.0])

    def test_chained_composition(self):
        check_grad(lambda x: ((x * 2 + 1).relu() * x.exp()).sum(), [0.3, -0.7, 1.2])


class TestMatmulGrads:
    def test_matmul_square(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        check_grad(lambda x: (x @ Tensor(w)).sum(), [[1.0, 0.5], [2.0, -1.0]])

    def test_matmul_right_operand(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        check_grad(lambda x: (Tensor(a) @ x).sum(), [[1.0, 0.5], [2.0, -1.0]])

    def test_matvec(self):
        v = np.array([1.0, -2.0])
        check_grad(lambda x: (x @ Tensor(v)).sum(), [[1.0, 0.5], [2.0, -1.0]])

    def test_vecmat(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        check_grad(lambda x: (x @ Tensor(a)).sum(), [1.0, 0.5])

    def test_both_operands_get_grads(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(4, 2)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad is not None and a.grad.shape == (3, 4)
        assert b.grad is not None and b.grad.shape == (4, 2)


class TestReductionGrads:
    def test_sum_all(self):
        check_grad(lambda x: x.sum() * 2.0, [[1.0, 2.0], [3.0, 4.0]])

    def test_sum_axis(self):
        check_grad(lambda x: (x.sum(axis=0) ** 2).sum(), [[1.0, 2.0], [3.0, 4.0]])

    def test_sum_keepdims(self):
        check_grad(lambda x: (x.sum(axis=1, keepdims=True) * x).sum(),
                   [[1.0, 2.0], [3.0, 4.0]])

    def test_mean(self):
        check_grad(lambda x: (x.mean() ** 2), [[1.0, 2.0], [3.0, 4.0]])

    def test_mean_axis(self):
        check_grad(lambda x: (x.mean(axis=1) ** 2).sum(), [[1.0, 2.0], [3.0, 4.0]])

    def test_var(self):
        check_grad(lambda x: x.var(), [[1.0, 2.0], [3.0, 4.0]])

    def test_var_axis(self):
        check_grad(lambda x: x.var(axis=1).sum(), [[1.0, 2.0, -1.0], [3.0, 4.0, 0.0]])

class TestBroadcastingGrads:
    def test_add_broadcast_row(self):
        b = np.array([1.0, 2.0, 3.0])
        check_grad(lambda x: ((x + Tensor(b)) ** 2).sum(), [[1.0, 0.0, -1.0], [2.0, 2.0, 2.0]])

    def test_add_broadcast_to_smaller_operand(self):
        a = np.random.default_rng(0).normal(size=(4, 3))
        check_grad(lambda x: ((Tensor(a) + x) ** 2).sum(), [1.0, -1.0, 0.5])

    def test_mul_broadcast_column(self):
        b = np.array([[2.0], [3.0]])
        check_grad(lambda x: (x * Tensor(b)).sum(), [[1.0, 0.0, -1.0], [2.0, 2.0, 2.0]])

    def test_scalar_broadcast(self):
        x = Tensor(np.zeros(()), requires_grad=True)
        big = Tensor(np.ones((3, 4)))
        (x + big).sum().backward()
        np.testing.assert_allclose(x.grad, 12.0)

    def test_broadcast_keepdim_axis(self):
        b = np.random.default_rng(0).normal(size=(2, 1, 3))
        check_grad(lambda x: ((Tensor(b) * x) ** 2).sum(),
                   np.random.default_rng(1).normal(size=(2, 4, 3)))


class TestShapeGrads:
    def test_reshape(self):
        check_grad(lambda x: (x.reshape(4) ** 2).sum(), [[1.0, 2.0], [3.0, 4.0]])

    def test_flatten(self):
        check_grad(lambda x: (x.flatten() ** 2).sum(),
                   np.arange(8, dtype=float).reshape(2, 2, 2))

    def test_transpose(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        check_grad(lambda x: (x.T @ Tensor(a)).sum(), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_transpose_axes(self):
        check_grad(
            lambda x: (x.transpose(2, 0, 1) ** 2).sum(),
            np.arange(24, dtype=float).reshape(2, 3, 4),
        )

    def test_getitem_int_rows(self):
        check_grad(lambda x: (x[np.array([0, 2, 0])] ** 2).sum(),
                   [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_getitem_pair_indexing(self):
        idx = (np.array([0, 1]), np.array([1, 0]))
        check_grad(lambda x: (x[idx] ** 2).sum(), [[1.0, 2.0], [3.0, 4.0]])

    def test_getitem_slices(self):
        check_grad(lambda x: (x[1:, ::2] ** 2).sum(),
                   np.arange(12, dtype=float).reshape(3, 4))

    def test_getitem_boolean_mask(self):
        mask = np.array([[True, False], [False, True], [True, True]])
        check_grad(lambda x: (x[mask] ** 2).sum(), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_getitem_tensor_index_reads_its_data(self):
        rows = Tensor(np.array([2, 0]))
        check_grad(lambda x: (x[rows] ** 2).sum(), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_getitem_duplicate_index_accumulates(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        x[np.array([0, 0, 1])].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 1.0])

class TestGraphSemantics:
    def test_reused_tensor_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        a = x * 2.0
        b = x + 1.0
        (a * b).sum().backward()
        # d/dx (2x (x+1)) = 4x + 2
        np.testing.assert_allclose(x.grad, [4 * 1.5 + 2.0])

    def test_deep_chain(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(50):
            y = y + 1.0
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_backward_requires_scalar_without_grad_arg(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_with_explicit_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_backward_grad_shape_mismatch(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward(np.ones(4))

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_zero_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_detach_cuts_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = (x * 3).detach()
        assert not y.requires_grad
        z = y * 2
        assert not z.requires_grad

    def test_no_grad_context(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_second_backward_accumulates(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x * 2
        y.sum().backward()
        z = x * 3
        z.sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_copy_is_detached_deep(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        c = x.copy()
        c.data[0] = 99.0
        assert x.data[0] == 1.0
        assert not c.requires_grad


class TestConstructors:
    def test_object_array_rejected(self):
        with pytest.raises(TypeError):
            Tensor(np.array([object()]))

    def test_shape_properties(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.shape == (2, 3, 4)
        assert x.ndim == 3
        assert x.size == 24
        assert len(x) == 2

    def test_item_scalar(self):
        assert Tensor(np.array(3.5)).item() == 3.5

    def test_repr_shows_requires_grad(self):
        assert "requires_grad" in repr(Tensor(np.ones(1), requires_grad=True))
        assert "requires_grad" not in repr(Tensor(np.ones(1)))
