"""Layer behaviour: shapes, modes, batch-norm statistics."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Tensor,
    stack_modules,
)


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(8, 3, rng)
        assert layer(Tensor(rng.normal(size=(5, 8)))).shape == (5, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 2, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_value(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_deterministic_init_given_rng(self):
        a = Linear(4, 2, np.random.default_rng(0))
        b = Linear(4, 2, np.random.default_rng(0))
        np.testing.assert_allclose(a.weight.data, b.weight.data)


class TestConv2dLayer:
    def test_output_shape_with_padding(self, rng):
        layer = Conv2d(3, 8, 3, rng, stride=2, padding=1)
        assert layer(Tensor(rng.normal(size=(2, 3, 8, 8)))).shape == (2, 8, 4, 4)

    def test_no_bias_param_count(self, rng):
        layer = Conv2d(2, 4, 3, rng, bias=False)
        assert len(layer.parameters()) == 1

    def test_repr(self, rng):
        assert "Conv2d" in repr(Conv2d(1, 2, 3, rng))


class TestPoolingLayers:
    def test_max_pool(self, rng):
        layer = MaxPool2d(2)
        assert layer(Tensor(rng.normal(size=(1, 2, 8, 8)))).shape == (1, 2, 4, 4)


class TestActivationShape:
    def test_relu(self):
        out = ReLU()(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_flatten(self, rng):
        out = Flatten()(Tensor(rng.normal(size=(2, 3, 4, 5))))
        assert out.shape == (2, 60)


class TestBatchNorm:
    def test_normalises_batch(self, rng):
        bn = BatchNorm2d(3)
        x = rng.normal(loc=5.0, scale=2.0, size=(16, 3, 4, 4))
        out = bn(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_move_toward_batch(self, rng):
        bn = BatchNorm2d(2, momentum=0.5)
        x = rng.normal(loc=10.0, size=(8, 2, 3, 3))
        bn(Tensor(x))
        assert (bn.running_mean > 1.0).all()

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        for _ in range(50):
            bn(Tensor(rng.normal(loc=3.0, size=(32, 2, 2, 2))))
        bn.eval()
        x = rng.normal(loc=3.0, size=(4, 2, 2, 2))
        out = bn(Tensor(x)).data
        assert abs(out.mean()) < 0.5  # approximately centred by running stats

    def test_eval_deterministic(self, rng):
        bn = BatchNorm2d(2)
        bn(Tensor(rng.normal(size=(8, 2, 2, 2))))
        bn.eval()
        x = rng.normal(size=(4, 2, 2, 2))
        out1 = bn(Tensor(x)).data
        out2 = bn(Tensor(x)).data
        np.testing.assert_allclose(out1, out2)

    def test_gamma_beta_affect_output(self, rng):
        bn = BatchNorm2d(1)
        bn.gamma.data[:] = 2.0
        bn.beta.data[:] = 1.0
        x = rng.normal(size=(8, 1, 2, 2))
        out = bn(Tensor(x)).data
        np.testing.assert_allclose(out.mean(), 1.0, atol=1e-7)

    def test_rejects_non_4d(self, rng):
        with pytest.raises(ValueError):
            BatchNorm2d(2)(Tensor(rng.normal(size=(4, 2))))

    def test_gradients_flow_through(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        bn(x).sum().backward()
        assert x.grad is not None
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None


class TestSequential:
    def test_applies_in_order(self, rng):
        model = Sequential(Linear(4, 8, rng), ReLU(), Linear(8, 2, rng))
        assert model(Tensor(rng.normal(size=(3, 4)))).shape == (3, 2)

    def test_len_and_getitem(self, rng):
        model = Sequential(Linear(2, 2, rng), ReLU())
        assert len(model) == 2
        assert isinstance(model[1], ReLU)

    def test_iteration(self, rng):
        model = Sequential(Linear(2, 2, rng), ReLU())
        assert [type(m).__name__ for m in model] == ["Linear", "ReLU"]


class TestLayersAreFloat64:
    """Every layer the paper's models are built from holds float64
    parameters and buffers and keeps float64 through forward and backward,
    lone and (where it stacks) stacked."""

    @staticmethod
    def layer(name, member=0):
        rng = np.random.default_rng(member)
        return {
            "batchnorm": lambda: BatchNorm2d(4),
            "conv": lambda: Conv2d(4, 2, 3, rng, padding=1),
            "linear": lambda: Linear(6, 3, rng),
            "maxpool": lambda: MaxPool2d(2),
            "relu": lambda: ReLU(),
            "flatten": lambda: Flatten(),
        }[name]()

    @staticmethod
    def batch(name, lead=()):
        shape = (5, 6) if name == "linear" else (3, 4, 4, 4)
        return Tensor(np.random.default_rng(7).normal(size=lead + shape), requires_grad=True)

    @pytest.mark.parametrize("name", ["batchnorm", "conv", "linear", "maxpool", "relu", "flatten"])
    def test_lone_layer(self, name):
        layer, x = self.layer(name), self.batch(name)
        out = layer(x)
        assert out.dtype == np.float64
        out.backward(np.ones(out.shape))
        assert x.grad.dtype == np.float64
        for param in layer.parameters():
            assert param.data.dtype == param.grad.dtype == np.float64
        for _, buf in layer.named_buffers():
            assert buf.dtype == np.float64

    @pytest.mark.parametrize("name", ["conv", "linear", "maxpool", "relu", "flatten"])
    def test_stacked_layer(self, name):
        stacked = stack_modules([self.layer(name, member) for member in range(3)])
        x = self.batch(name, lead=(3,))
        out = stacked(x)
        assert out.dtype == np.float64
        out.backward(np.ones(out.shape))
        assert x.grad.dtype == np.float64
        for param in stacked.parameters():
            assert param.data.dtype == param.grad.dtype == np.float64
