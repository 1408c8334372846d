"""Optimizer step math and hyper-parameter validation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.nn import SGD
from repro.nn.module import Parameter
from repro.training import TrainConfig
from repro.unlearning.baselines import DiagonalFIMSGD

from ..conftest import HYPER_VALUES, NON_FINITE, generated


def param_with_grad(value, grad):
    p = Parameter(np.array(value, dtype=np.float64))
    p.grad = np.array(grad, dtype=np.float64)
    return p


class TestSGD:
    def test_vanilla_step(self):
        p = param_with_grad([1.0], [0.5])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0 - 0.1 * 0.5])

    def test_momentum_accumulates(self):
        p = param_with_grad([0.0], [1.0])
        opt = SGD([p], lr=1.0, momentum=0.9)
        opt.step()  # v = 1, p = -1
        p.grad = np.array([1.0])
        opt.step()  # v = 1.9, p = -2.9
        np.testing.assert_allclose(p.data, [-2.9])

    def test_weight_decay(self):
        p = param_with_grad([2.0], [0.0])
        SGD([p], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_skips_none_grads(self):
        p = Parameter(np.array([1.0]))
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_zero_grad(self):
        p = param_with_grad([1.0], [1.0])
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_momentum_descends_a_quadratic(self):
        p = param_with_grad([8.0], [0.0])
        optimizer = SGD([p], lr=0.1, momentum=0.9)
        for _ in range(50):
            p.grad = 2.0 * (p.data - 3.0)
            optimizer.step()
        assert (p.data[0] - 3.0) ** 2 < 0.1 * (8.0 - 3.0) ** 2

    def test_validation(self):
        p = Parameter(np.ones(1))
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, weight_decay=-1)


class TestDiagonalFIMSGD:
    def test_preconditions_toward_sign_step(self):
        # With constant gradient, FIM ≈ grad², so step ≈ lr * sign(grad).
        p = param_with_grad([0.0, 0.0], [4.0, 0.25])
        opt = DiagonalFIMSGD([p], lr=0.1, rho=0.0, damping=1e-8)
        opt.step()
        np.testing.assert_allclose(p.data, [-0.1, -0.1], atol=1e-6)

    def test_faster_than_sgd_on_ill_conditioned(self):
        # Quadratic with condition number 1e4.
        scales = np.array([1.0, 1e-2])

        def loss_grad(x):
            return 2 * scales * x

        start = np.array([1.0, 1.0])
        p1 = Parameter(start.copy())
        sgd = SGD([p1], lr=0.1)
        p2 = Parameter(start.copy())
        fim = DiagonalFIMSGD([p2], lr=0.1, rho=0.9)
        for _ in range(50):
            p1.grad = loss_grad(p1.data)
            sgd.step()
            p2.grad = loss_grad(p2.data)
            fim.step()
        loss1 = (scales * p1.data ** 2).sum()
        loss2 = (scales * p2.data ** 2).sum()
        assert loss2 < loss1

    def test_validation(self):
        p = Parameter(np.ones(1))
        with pytest.raises(ValueError):
            DiagonalFIMSGD([p], lr=0.1, rho=1.0)
        with pytest.raises(ValueError):
            DiagonalFIMSGD([p], lr=0.1, damping=0.0)


def _param():
    return Parameter(np.ones(2))


# (name, call returning the value it stored, accepted range, a value in it)
POSITIVE = lambda v: v > 0
NON_NEGATIVE = lambda v: v >= 0
UNIT = lambda v: 0 <= v < 1
HYPER_PARAMETERS = [
    ("TrainConfig.learning_rate", lambda v: TrainConfig(learning_rate=v).learning_rate, POSITIVE, 0.01),
    ("TrainConfig.momentum", lambda v: TrainConfig(momentum=v).momentum, UNIT, 0.9),
    ("TrainConfig.weight_decay", lambda v: TrainConfig(weight_decay=v).weight_decay, NON_NEGATIVE, 1e-4),
    ("SGD.lr", lambda v: SGD([_param()], lr=v).lr, POSITIVE, 0.01),
    ("SGD.momentum", lambda v: SGD([_param()], lr=0.1, momentum=v).momentum, UNIT, 0.9),
    ("SGD.weight_decay", lambda v: SGD([_param()], lr=0.1, weight_decay=v).weight_decay, NON_NEGATIVE, 1e-4),
    ("DiagonalFIMSGD.lr", lambda v: DiagonalFIMSGD([_param()], lr=v).lr, POSITIVE, 0.01),
    ("DiagonalFIMSGD.rho", lambda v: DiagonalFIMSGD([_param()], lr=0.1, rho=v).rho, UNIT, 0.95),
    ("DiagonalFIMSGD.damping", lambda v: DiagonalFIMSGD([_param()], lr=0.1, damping=v).damping, POSITIVE, 1e-3),
]


class TestHyperParametersAreFinite:
    @generated(400)
    @given(
        validator=st.sampled_from(HYPER_PARAMETERS),
        value=HYPER_VALUES,
    )
    def test_accepted_values_are_finite_and_in_range(self, validator, value):
        """Every hyper-parameter validator either accepts a finite value in
        its range or raises ``ValueError``: NaN fails every comparison, so
        a bare range check would wave it through."""
        name, construct, in_range, _ = validator
        try:
            stored = construct(value)
        except ValueError:
            return
        assert math.isfinite(stored) and in_range(stored), (name, value)
        assert stored == value, (name, value)

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("validator", HYPER_PARAMETERS, ids=lambda v: v[0])
    def test_non_finite_rejected(self, validator, value):
        """Each validator accepts an ordinary value and rejects each
        non-finite one, whatever the generated property happens to draw."""
        name, construct, _, typical = validator
        assert construct(typical) == typical, name
        with pytest.raises(ValueError):
            construct(value)
