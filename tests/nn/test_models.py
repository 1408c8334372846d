"""Model zoo: shapes, registry, architecture contracts."""

import numpy as np
import pytest

from repro.nn import SGD, Tensor, losses, no_grad
from repro.nn.models import (
    MODEL_BUILDERS,
    LeNet5,
    ModifiedLeNet5,
    MLP,
    build_model,
    resnet,
)
from repro.training import TrainConfig
from repro.training.trainer import make_optimizer, train

from ..conftest import make_blobs


class TestLeNet5:
    def test_mnist_shape(self, rng):
        model = LeNet5(10, rng)
        out = model(Tensor(rng.normal(size=(3, 1, 28, 28))))
        assert out.shape == (3, 10)

    def test_two_fc_layers(self, rng):
        model = LeNet5(10, rng)
        linears = [m for m in model.modules() if type(m).__name__ == "Linear"]
        assert len(linears) == 2

    def test_too_small_image_raises(self, rng):
        with pytest.raises(ValueError):
            LeNet5(10, rng, image_size=8)

    def test_trains_end_to_end(self, rng):
        model = LeNet5(3, rng)
        x = Tensor(rng.normal(size=(4, 1, 28, 28)))
        losses.cross_entropy(model(x), np.array([0, 1, 2, 0])).backward()
        assert all(p.grad is not None for p in model.parameters())


class TestModifiedLeNet5:
    def test_cifar_shape(self, rng):
        model = ModifiedLeNet5(10, rng)
        out = model(Tensor(rng.normal(size=(2, 3, 32, 32))))
        assert out.shape == (2, 10)

    def test_three_fc_layers(self, rng):
        model = ModifiedLeNet5(10, rng)
        linears = [m for m in model.modules() if type(m).__name__ == "Linear"]
        assert len(linears) == 3


class TestResNet:
    def test_depth_validation(self, rng):
        # 10 is not 6n+2; 2 and -4 are, but with n = 0 and n = -1 blocks.
        for depth in (10, 2, -4):
            with pytest.raises(ValueError, match="6n\\+2"):
                resnet(depth, 10, rng)

    @pytest.mark.parametrize("depth,blocks", [(8, 1), (20, 3), (32, 5)])
    def test_block_counts(self, rng, depth, blocks):
        model = resnet(depth, 10, rng, base_width=4)
        assert len(model.stage1) == blocks
        assert len(model.stage2) == blocks
        assert len(model.stage3) == blocks

    def test_output_shape(self, rng):
        model = resnet(8, 10, rng, base_width=4)
        out = model(Tensor(rng.normal(size=(2, 3, 32, 32))))
        assert out.shape == (2, 10)

    def test_any_input_size(self, rng):
        model = resnet(8, 5, rng, base_width=4, in_channels=1)
        out = model(Tensor(rng.normal(size=(2, 1, 28, 28))))
        assert out.shape == (2, 5)

    def test_projection_shortcut_present_on_downsample(self, rng):
        model = resnet(8, 10, rng, base_width=4)
        assert not model.stage1[0].has_projection
        assert model.stage2[0].has_projection
        assert model.stage3[0].has_projection

    def test_gradients_reach_stem(self, rng):
        model = resnet(8, 10, rng, base_width=4)
        out = model(Tensor(rng.normal(size=(2, 3, 16, 16))))
        losses.cross_entropy(out, np.array([0, 1])).backward()
        assert model.stem_conv.weight.grad is not None


class TestMLP:
    def test_flattens_images(self, rng):
        model = MLP(48, 4, rng)
        out = model(Tensor(rng.normal(size=(2, 3, 4, 4))))
        assert out.shape == (2, 4)

    def test_hidden_config(self, rng):
        model = MLP(10, 2, rng, hidden=(16, 8))
        linears = [m for m in model.modules() if type(m).__name__ == "Linear"]
        assert [l.out_features for l in linears] == [16, 8, 2]


class TestRegistry:
    def test_contains_paper_models(self):
        for name in ("lenet5", "modified_lenet5", "resnet32", "resnet56"):
            assert name in MODEL_BUILDERS

    @pytest.mark.parametrize("name", ["lenet5", "mlp", "resnet8_slim"])
    def test_build_and_forward(self, rng, name):
        model = build_model(name, 10, rng, in_channels=1, image_size=28)
        out = model(Tensor(rng.normal(size=(2, 1, 28, 28))))
        assert out.shape == (2, 10)

    def test_modified_lenet_needs_32(self, rng):
        model = build_model("modified_lenet5", 10, rng, in_channels=3, image_size=32)
        assert model(Tensor(rng.normal(size=(1, 3, 32, 32)))).shape == (1, 10)

    def test_unknown_model_raises(self, rng):
        with pytest.raises(ValueError):
            build_model("alexnet", 10, rng)

    def test_identical_seeds_give_identical_models(self):
        a = build_model("lenet5", 10, np.random.default_rng(5))
        b = build_model("lenet5", 10, np.random.default_rng(5))
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data)


#: (in_channels, image_size) of the paper dataset each registry entry serves:
#: MNIST / Fashion-MNIST for LeNet-5 and the MLP, CIFAR for the rest.
PAPER_INPUT = {
    "lenet5": (1, 28),
    "mlp": (1, 28),
    "modified_lenet5": (3, 32),
    "resnet8": (3, 32),
    "resnet8_slim": (3, 32),
    "resnet20": (3, 32),
    "resnet32": (3, 32),
    "resnet56": (3, 32),
}


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_every_registered_model_takes_an_sgd_step_at_paper_input_size(name):
    channels, size = PAPER_INPUT[name]
    rng = np.random.default_rng(0)
    model = build_model(name, 10, rng, in_channels=channels, image_size=size)
    x = Tensor(rng.normal(size=(2, channels, size, size)))
    loss = losses.cross_entropy(model(x), np.array([0, 1]))
    loss.backward()
    assert all(param.grad is not None for param in model.parameters())
    SGD(model.parameters(), lr=0.01).step()
    assert np.isfinite(loss.item())
    model.eval()
    with no_grad():
        out = model(x).data
    assert out.shape == (2, 10) and np.isfinite(out).all()


#: Parameter counts at ``PAPER_INPUT`` with 10 classes.  LeNet-5 is
#: conv 1→6 and 6→16 (5×5), then FC 256→120→10; the modified LeNet-5 is
#: the CIFAR variant, FC 400→120→84→10; the MLP is 784→64→10; the
#: ResNets are 3 stages of n batch-normed basic blocks at widths 16/32/64
#: (4/8/16 for ``resnet8_slim``) with 1×1 projection shortcuts where a
#: stage downsamples.
PARAMETER_COUNTS = {
    "lenet5": 34_622,
    "mlp": 50_890,
    "modified_lenet5": 62_006,
    "resnet8": 78_042,
    "resnet8_slim": 5_214,
    "resnet20": 272_474,
    "resnet32": 466_906,
    "resnet56": 855_770,
}


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_parameter_count_pins_the_architecture(name):
    channels, size = PAPER_INPUT[name]
    model = build_model(name, 10, np.random.default_rng(0), in_channels=channels, image_size=size)
    assert model.num_parameters() == PARAMETER_COUNTS[name]


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_every_registered_model_trains_in_float64(name):
    """Parameters, buffers and momentum state are float64 from the builder
    on, and training keeps them so, whatever dtype the images came in."""
    channels, size = PAPER_INPUT[name]
    model = build_model(name, 3, np.random.default_rng(0), in_channels=channels, image_size=size)
    blobs = make_blobs(num_samples=4, shape=(channels, size, size))
    data = type(blobs)(images=blobs.images.astype(np.float32), labels=blobs.labels,
                       num_classes=blobs.num_classes)
    config = TrainConfig(epochs=1, batch_size=2, learning_rate=0.01, momentum=0.9)
    optimizer = make_optimizer(model, config)
    history = train(model, data, config, np.random.default_rng(0), optimizer=optimizer)
    assert np.isfinite(history.epochs[-1].mean_loss)
    for key, value in model.state_dict().items():
        if np.issubdtype(value.dtype, np.floating):
            assert value.dtype == np.float64, key
    assert all(param.grad.dtype == np.float64 for param in model.parameters())
    assert all(v is not None and v.dtype == np.float64 for v in optimizer._velocity)
