"""Optimizer step math, clipping and hyper-parameter validation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.nn import SGD, clip_grad_norm
from repro.nn.module import Parameter
from repro.training import TrainConfig
from repro.unlearning.baselines import DiagonalFIMSGD

from ..conftest import HYPER_VALUES, NON_FINITE, generated
from ..reference_loops import clip_grad_norm as lone_clip_grad_norm


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


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = param_with_grad([0.0], [0.5])
        norm = clip_grad_norm([p], max_norm=10.0)
        np.testing.assert_allclose(norm, 0.5)
        np.testing.assert_allclose(p.grad, [0.5])

    def test_clips_above_threshold(self):
        p = param_with_grad([0.0, 0.0], [3.0, 4.0])
        norm = clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(norm, 5.0)
        np.testing.assert_allclose(np.sqrt((p.grad ** 2).sum()), 1.0)

    def test_global_norm_across_params(self):
        p1 = param_with_grad([0.0], [3.0])
        p2 = param_with_grad([0.0], [4.0])
        clip_grad_norm([p1, p2], max_norm=1.0)
        total = np.sqrt((p1.grad ** 2).sum() + (p2.grad ** 2).sum())
        np.testing.assert_allclose(total, 1.0)

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], max_norm=0.0)

    # LeNet-5's parameter shapes lead; the rest are drawn.
    SHAPES = st.sampled_from(
        [(6, 1, 5, 5), (6,), (16, 6, 5, 5), (120, 256), (84, 120), (10, 84)]
    ) | st.lists(st.integers(1, 7), min_size=1, max_size=4).map(tuple)

    @generated(60)
    @given(
        shapes=st.lists(SHAPES, min_size=1, max_size=4),
        k=st.integers(1, 4),
        dtype=st.sampled_from([np.float64, np.float32]),
        max_norm=st.sampled_from([0.05, 1.0, 50.0]),
        seed=st.integers(0, 2**16),
    )
    def test_one_clip_serves_a_lone_model_and_every_slice_of_a_stack(
        self, shapes, k, dtype, max_norm, seed
    ):
        """``clip_grad_norm`` equals the pre-stack clip bit for bit on one
        model, and ``stack=K`` clips slice ``k`` exactly as that."""
        rng = np.random.default_rng(seed)
        grads = [rng.normal(0.0, 1.0, size=(k,) + shape).astype(dtype) for shape in shapes]

        def params(arrays):
            out = []
            for array in arrays:
                p = Parameter(np.zeros(array.shape))
                p.grad = array.copy()
                out.append(p)
            return out

        stacked = params(grads)
        norms = clip_grad_norm(stacked, max_norm, stack=k)
        assert len(norms) == k
        for index in range(k):
            want = params([g[index] for g in grads])
            want_norm = lone_clip_grad_norm(want, max_norm)
            got = params([g[index] for g in grads])
            assert clip_grad_norm(got, max_norm) == want_norm == norms[index]
            for a, b, c in zip(want, got, stacked):
                assert a.grad.tobytes() == b.grad.tobytes() == c.grad[index].tobytes()


def _clip_max_norm(value):
    """Clip a gradient of norm 200 to ``value`` and return ``value``; an
    accepted bound below 200 must actually clip."""
    p = param_with_grad([0.0, 0.0], [120.0, 160.0])
    assert clip_grad_norm([p], value) == 200.0
    assert np.isfinite(p.grad).all()
    if value < 200.0:
        assert np.sqrt((p.grad ** 2).sum()) < 200.0
    return value


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
    ("TrainConfig.grad_clip", lambda v: TrainConfig(grad_clip=v).grad_clip, NON_NEGATIVE, 5.0),
    ("SGD.lr", lambda v: SGD([_param()], lr=v).lr, POSITIVE, 0.01),
    ("SGD.momentum", lambda v: SGD([_param()], lr=0.1, momentum=v).momentum, UNIT, 0.9),
    ("SGD.weight_decay", lambda v: SGD([_param()], lr=0.1, weight_decay=v).weight_decay, NON_NEGATIVE, 1e-4),
    ("DiagonalFIMSGD.lr", lambda v: DiagonalFIMSGD([_param()], lr=v).lr, POSITIVE, 0.01),
    ("DiagonalFIMSGD.rho", lambda v: DiagonalFIMSGD([_param()], lr=0.1, rho=v).rho, UNIT, 0.95),
    ("DiagonalFIMSGD.damping", lambda v: DiagonalFIMSGD([_param()], lr=0.1, damping=v).damping, POSITIVE, 1e-3),
    ("clip_grad_norm.max_norm", _clip_max_norm, POSITIVE, 1.0),
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
        a bare range check would wave it through (a NaN ``grad_clip``
        silently turned clipping off)."""
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
