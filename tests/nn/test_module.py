"""Module registration, traversal and state-dict semantics."""

import numpy as np
import pytest

from repro.nn import Linear, Module, Parameter, Sequential, Tensor
from repro.nn.layers import BatchNorm2d


class Toy(Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(4, 3, rng)
        self.fc2 = Linear(3, 2, rng)
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.fc2(self.fc1(x)) * self.scale


class TestRegistration:
    def test_parameters_found(self, rng):
        model = Toy(rng)
        names = dict(model.named_parameters())
        assert set(names) == {
            "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias", "scale"
        }

    def test_num_parameters(self, rng):
        model = Toy(rng)
        assert model.num_parameters() == 4 * 3 + 3 + 3 * 2 + 2 + 1

    def test_modules_traversal(self, rng):
        model = Toy(rng)
        kinds = [type(m).__name__ for m in model.modules()]
        assert kinds == ["Toy", "Linear", "Linear"]

    def test_named_modules_prefixes(self, rng):
        model = Toy(rng)
        names = [name for name, _ in model.named_modules()]
        assert names == ["", "fc1", "fc2"]

    def test_nested_sequential_names(self, rng):
        model = Sequential(Linear(2, 2, rng), Sequential(Linear(2, 2, rng)))
        names = {name for name, _ in model.named_parameters()}
        assert "layer0.weight" in names
        assert "layer1.layer0.weight" in names


class TestTrainEval:
    def test_mode_propagates(self, rng):
        model = Toy(rng)
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self, rng):
        model = Toy(rng)
        out = model(Tensor(np.ones((2, 4))))
        out.sum().backward()
        assert all(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestStateDict:
    def test_roundtrip_restores_values(self, rng):
        model = Toy(rng)
        state = model.state_dict()
        for p in model.parameters():
            p.data += 1.0
        model.load_state_dict(state)
        for name, p in model.named_parameters():
            np.testing.assert_allclose(p.data, state[name])

    def test_state_dict_is_a_copy(self, rng):
        model = Toy(rng)
        state = model.state_dict()
        state["scale"][0] = 123.0
        assert model.scale.data[0] != 123.0

    def test_load_missing_key_raises(self, rng):
        model = Toy(rng)
        state = model.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_unexpected_key_raises(self, rng):
        model = Toy(rng)
        state = model.state_dict()
        state["ghost"] = np.ones(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_shape_mismatch_raises(self, rng):
        model = Toy(rng)
        state = model.state_dict()
        state["scale"] = np.ones(5)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_buffers_in_state_dict(self):
        bn = BatchNorm2d(3)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state

    def test_buffer_roundtrip(self, rng):
        bn = BatchNorm2d(2)
        bn(Tensor(rng.normal(size=(4, 2, 3, 3))))  # updates running stats
        state = bn.state_dict()
        bn2 = BatchNorm2d(2)
        bn2.load_state_dict(state)
        np.testing.assert_allclose(bn2.running_mean, bn.running_mean)
        np.testing.assert_allclose(bn2.running_var, bn.running_var)

    def test_load_casts_payload_to_float64(self, rng):
        """Parameters and buffers load as float64 whatever the payload's
        floating dtype."""
        for model in (Toy(rng), BatchNorm2d(2)):
            state = {k: v.astype(np.float32) for k, v in model.state_dict().items()}
            model.load_state_dict(state)
            assert all(v.dtype == np.float64 for v in model.state_dict().values())
            for _, buf in model.named_buffers():
                assert buf.dtype == np.float64

    def test_set_unknown_buffer_raises(self):
        bn = BatchNorm2d(2)
        with pytest.raises(KeyError):
            bn._set_buffer("nope", np.ones(2))


class TestForwardContract:
    def test_base_forward_raises(self):
        with pytest.raises(NotImplementedError):
            Module()(1)

    def test_repr_contains_children(self, rng):
        assert "Linear" in repr(Toy(rng))
