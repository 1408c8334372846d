"""Bitwise parity of the allocation-free optimizer hot paths.

``SGD.step`` computes every temporary into reusable scratch buffers
(``out=`` ufuncs).  Only commutative operand swaps are allowed — never
re-associations — so it must reproduce a straightforward reference
implementation of the same update **bit for bit**, for float64 and
float32, with and without momentum and weight decay, across many steps.
"""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import SGD


# ----------------------------------------------------------------------
# Reference implementations: the historical expression-per-line forms.
# ----------------------------------------------------------------------
class RefSGD:
    def __init__(self, params, lr, momentum=0.0, weight_decay=0.0):
        self.params, self.lr = params, lr
        self.momentum, self.weight_decay = momentum, weight_decay
        self.velocity = [None] * len(params)

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                if self.velocity[i] is None:
                    self.velocity[i] = np.zeros_like(p.data)
                v = self.velocity[i]
                v *= self.momentum
                v += grad
                grad = v
            p.data -= self.lr * grad


def _make_params(dtype, seed=0):
    rng = np.random.default_rng(seed)
    shapes = [(7, 5), (5,), (3, 7), (1,)]
    params = []
    for shape in shapes:
        param = Parameter(rng.normal(0.0, 0.5, size=shape))
        param.data = param.data.astype(dtype)
        params.append(param)
    return params


def _set_grads(params, rng, skip_one=False):
    for i, param in enumerate(params):
        if skip_one and i == 1:
            param.grad = None
            continue
        param.grad = rng.normal(0.0, 0.3, size=param.data.shape).astype(
            param.data.dtype
        )


CASES = [
    (SGD, RefSGD, {"lr": 0.05}),
    (SGD, RefSGD, {"lr": 0.05, "momentum": 0.9}),
    (SGD, RefSGD, {"lr": 0.05, "momentum": 0.9, "weight_decay": 1e-3}),
]


class TestInPlaceParity:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("cls,ref_cls,kwargs", CASES)
    def test_bitwise_parity_over_many_steps(self, cls, ref_cls, kwargs, dtype):
        fast_params = _make_params(dtype, seed=3)
        ref_params = _make_params(dtype, seed=3)
        fast = cls(fast_params, **kwargs)
        ref = ref_cls(ref_params, **kwargs)
        for step in range(25):
            grad_rng = np.random.default_rng(100 + step)
            _set_grads(fast_params, grad_rng, skip_one=(step % 5 == 0))
            grad_rng = np.random.default_rng(100 + step)
            _set_grads(ref_params, grad_rng, skip_one=(step % 5 == 0))
            fast.step()
            ref.step()
            for fast_param, ref_param in zip(fast_params, ref_params):
                np.testing.assert_array_equal(fast_param.data, ref_param.data)
                assert fast_param.data.dtype == np.dtype(dtype)

    def test_step_allocates_no_new_scratch_after_warmup(self):
        params = _make_params(np.float64, seed=1)
        opt = SGD(params, lr=0.05, momentum=0.9, weight_decay=1e-3)
        _set_grads(params, np.random.default_rng(0))
        opt.step()
        buffers = {key: id(buf) for key, buf in opt._scratch.items()}
        for step in range(5):
            _set_grads(params, np.random.default_rng(step))
            opt.step()
        assert {key: id(buf) for key, buf in opt._scratch.items()} == buffers
