"""float32 end-to-end: model and optimizer state follow the dataset dtype.

``ArrayDataset(dtype=np.float32)`` has been opt-in since the runtime PR,
but parameters were pinned to float64, so the im2col hot path upcast at
the first parameter contraction.  Now :func:`repro.training.trainer.train`
moves the model to the dataset's floating dtype (``Module.astype``), the
optimizer state follows through ``zeros_like``, and state loads preserve
the cast.  The float64 default is a no-op cast — bit-identical to the
historical path.
"""

import numpy as np
import pytest

from repro.data import FederatedDataset
from repro.federated import FedAvgAggregator, FederatedSimulation
from repro.nn import BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU, Tensor, stack_modules
from repro.nn import functional as F
from repro.nn.losses import distillation_loss
from repro.nn.models import MLP, RegistryModelFactory
from repro.runtime.task import capture_rng, restore_rng
from repro.training import TrainConfig
from repro.training.trainer import make_optimizer, train
from repro.unlearning import (
    GoldfishConfig,
    GoldfishLossConfig,
    GoldfishUnlearner,
    IncompetentTeacherConfig,
    IncompetentTeacherUnlearner,
)
from repro.unlearning.baselines import incompetent
from repro.unlearning.protocols import _GoldfishClientTask, _IncompetentClientTask

from ..conftest import make_blob_federation, make_blobs

CONFIG = TrainConfig(epochs=2, batch_size=10, learning_rate=0.1, momentum=0.9)


def fresh_model(seed=42):
    return MLP(16, 3, np.random.default_rng(seed))


def cast_dataset(data, dtype):
    return type(data)(
        images=data.images, labels=data.labels,
        num_classes=data.num_classes, dtype=dtype,
    )


def dataset(dtype=None, seed=0):
    data = make_blobs(num_samples=80, num_classes=3, shape=(1, 4, 4), seed=seed)
    return data if dtype is None else cast_dataset(data, dtype)


class TestModuleAstype:
    def test_parameters_and_buffers_cast(self):
        model = fresh_model()
        model.astype(np.float32)
        assert model.dtype == np.float32
        for _, param in model.named_parameters():
            assert param.data.dtype == np.float32
        for _, buf in model.named_buffers():
            if np.issubdtype(buf.dtype, np.floating):
                assert buf.dtype == np.float32

    def test_load_state_dict_preserves_module_dtype(self):
        float64_state = fresh_model().state_dict()
        model = fresh_model().astype(np.float32)
        model.load_state_dict(float64_state)  # float64 payload
        assert all(
            param.data.dtype == np.float32 for param in model.parameters()
        )
        # And the float64 default still loads float32 payloads as float64.
        reference = fresh_model()
        reference.load_state_dict(
            {k: v.astype(np.float32) for k, v in float64_state.items()}
        )
        assert all(
            param.data.dtype == np.float64 for param in reference.parameters()
        )

    def test_non_floating_dtype_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="floating"):
            fresh_model().astype(np.int64)


class TestTrainingFollowsDatasetDtype:
    def test_float64_default_bit_identical(self):
        first, second = fresh_model(), fresh_model()
        train(first, dataset(), CONFIG, np.random.default_rng(0))
        train(second, dataset(), CONFIG, np.random.default_rng(0))
        state = first.state_dict()
        assert all(v.dtype == np.float64 for v in state.values())
        for key, value in second.state_dict().items():
            np.testing.assert_array_equal(state[key], value)

    def test_float32_dataset_trains_float32_model(self):
        model = fresh_model()
        optimizer = make_optimizer(model, CONFIG)
        history = train(
            model, dataset(np.float32), CONFIG, np.random.default_rng(0),
            optimizer=optimizer,
        )
        assert all(v.dtype == np.float32 for v in model.state_dict().values())
        # Optimizer state followed (momentum buffers built lazily).
        assert any(v is not None for v in optimizer._velocity)
        assert all(
            v is None or v.dtype == np.float32 for v in optimizer._velocity
        )
        assert np.isfinite(history.epochs[-1].mean_loss)

    def test_float32_close_to_float64(self):
        """Same run at both precisions: small numerical drift only."""
        reference, low = fresh_model(), fresh_model()
        train(reference, dataset(), CONFIG, np.random.default_rng(0))
        train(low, dataset(np.float32), CONFIG, np.random.default_rng(0))
        for key, value in reference.state_dict().items():
            np.testing.assert_allclose(
                value, low.state_dict()[key], rtol=5e-2, atol=5e-3
            )

    def test_forward_hot_path_stays_float32(self):
        """No op in the forward graph silently upcasts activations."""
        model = fresh_model()
        model.astype(np.float32)
        images = dataset(np.float32).images[:8]
        logits = model(Tensor(images))
        assert logits.dtype == np.float32


class TestFederatedFloat32:
    def test_round_runs_and_aggregates(self):
        clients, test = make_blob_federation(
            3, per_client=24, test_size=30, seed=0
        )
        to32 = lambda d: cast_dataset(d, np.float32)
        fed = FederatedDataset(
            client_datasets=[to32(c) for c in clients], test_set=to32(test)
        )
        factory = RegistryModelFactory(
            name="mlp", num_classes=3, in_channels=1, image_size=4
        )
        sim = FederatedSimulation(
            factory, fed,
            FedAvgAggregator(),
            TrainConfig(epochs=1, batch_size=8, learning_rate=0.1),
            seed=0,
        )
        history = sim.run(2)
        assert np.isfinite(history.rounds[-1].global_loss)
        assert 0.0 <= history.final_accuracy <= 1.0


class TestKernelsPreserveDtype:
    """conv2d (lone and stacked) / max_pool2d allocate their im2col, col2im
    and mask buffers from the operands' dtype: float32 in, float32 out,
    float32 gradients — whatever the stride and padding."""

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (3, 2)])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_conv_float32(self, stride, padding, stacked):
        rng = np.random.default_rng(0)
        lead = (2,) if stacked else ()
        x = Tensor(rng.normal(size=lead + (3, 2, 7, 6)).astype(np.float32),
                   requires_grad=True)
        weight = Tensor(rng.normal(size=lead + (4, 2, 3, 2)).astype(np.float32),
                        requires_grad=True)
        bias = Tensor(rng.normal(size=lead + (4,)).astype(np.float32),
                      requires_grad=True)
        out = F.conv2d(x, weight, bias, stride=stride, padding=padding)
        assert out.dtype == np.float32
        out.backward(np.ones(out.shape, dtype=np.float32))
        for tensor in (x, weight, bias):
            assert tensor.grad.dtype == np.float32
            assert tensor.grad.shape == tensor.shape

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_max_pool_float32(self, k):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 4 * k, 2 * k)).astype(np.float32),
                   requires_grad=True)
        out = F.max_pool2d(x, k)
        assert out.dtype == np.float32
        out.backward(np.ones(out.shape, dtype=np.float32))
        assert x.grad.dtype == np.float32


class TestGoldfishFollowsDatasetDtype:
    """The Goldfish task and ``GoldfishUnlearner.unlearn`` make
    trainer.train's cast: a float32 retain / forget set trains a float32
    student against float32 teacher logits
    (otherwise B1 would compute in float32 and Goldfish in float64 — the
    very comparison the paper makes, skewed)."""

    CONFIG = GoldfishConfig(
        loss=GoldfishLossConfig(),
        train=TrainConfig(epochs=2, batch_size=8, learning_rate=0.05),
    )

    def tasks(self, dtype):
        factory = RegistryModelFactory(
            name="lenet5", num_classes=3, in_channels=1, image_size=28
        )
        teacher_state = factory().state_dict()
        tasks = []
        for member in range(2):
            data = cast_dataset(
                make_blobs(num_samples=24, num_classes=3, shape=(1, 28, 28), seed=member),
                dtype,
            )
            tasks.append(_GoldfishClientTask(
                task_id=member,
                model_factory=factory,
                model_state=factory().state_dict(),
                teacher_state=teacher_state,
                dataset=data,
                indices=np.arange(6, 24),
                forget_indices=np.arange(6),
                config=self.CONFIG,
                rng_state=capture_rng(np.random.default_rng(member)),
            ))
        return tasks

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_task_and_unlearner_agree_in_the_dataset_dtype(self, dtype):
        for task in self.tasks(dtype):
            one = task.run()
            student, teacher = task.model_factory(), task.model_factory()
            student.load_state_dict(task.model_state)
            teacher.load_state_dict(task.teacher_state)
            rng = restore_rng(task.rng_state)
            other = GoldfishUnlearner(self.CONFIG).unlearn(
                student, teacher, task.dataset.subset(task.indices), task.forget_set(), rng
            )
            assert one.extra["teacher_logits"].dtype == dtype
            np.testing.assert_array_equal(
                one.extra["teacher_logits"], other.teacher_logits
            )
            assert len(one.history) == len(other.history)
            assert one.rng_state == rng.bit_generator.state
            for key, value in one.state.items():
                assert value.dtype == dtype, key
                np.testing.assert_array_equal(value, student.state_dict()[key])

    def test_unlearner_casts_student_and_teacher(self):
        task = self.tasks(np.float32)[0]
        student, teacher = task.model_factory(), task.model_factory()
        result = GoldfishUnlearner(self.CONFIG).unlearn(
            student, teacher, task.dataset.subset(task.indices), task.forget_set(),
            np.random.default_rng(0),
        )
        assert student.dtype == teacher.dtype == np.float32
        assert result.teacher_logits.dtype == np.float32


class TestIncompetentTeacherFollowsDatasetDtype:
    """B3 makes the same cast: a float32 retain / forget set trains a
    float32 student against float32 teacher logits, so a
    ``federated_incompetent_teacher`` round's unlearning clients come back
    in the dtype its normal clients' ``TrainTask``s do."""

    CONFIG = IncompetentTeacherConfig(
        train=TrainConfig(epochs=2, batch_size=8, learning_rate=0.05)
    )

    def test_student_state_and_losses_are_float32(self, monkeypatch):
        data = cast_dataset(
            make_blobs(num_samples=30, num_classes=3, shape=(1, 4, 4)), np.float32
        )
        factory = RegistryModelFactory(
            name="mlp", num_classes=3, in_channels=1, image_size=4
        )
        loss_dtypes = []

        def recording_loss(*args, **kwargs):
            loss = distillation_loss(*args, **kwargs)
            loss_dtypes.append(loss.dtype)
            return loss

        monkeypatch.setattr(incompetent, "distillation_loss", recording_loss)
        task = _IncompetentClientTask(
            task_id=0,
            model_factory=factory,
            model_state=factory().state_dict(),
            competent_state=factory().state_dict(),
            incompetent_state=factory().state_dict(),
            dataset=data,
            indices=np.arange(6, 30),
            forget_indices=np.arange(6),
            config=self.CONFIG,
            rng_state=capture_rng(np.random.default_rng(0)),
        )
        result = task.run()
        assert len(result.history) == 2
        for key, value in result.state.items():
            assert value.dtype == np.float32, key
        # Two distillation terms per step, three steps per epoch.
        assert loss_dtypes == [np.float32] * 12

        student = factory()
        IncompetentTeacherUnlearner(self.CONFIG).unlearn(
            student, factory(), factory(), task.dataset.subset(task.indices),
            task.forget_set(), np.random.default_rng(0),
        )
        assert student.dtype == np.float32
        assert all(param.data.dtype == np.float32 for param in student.parameters())
        assert loss_dtypes == [np.float32] * 24


class TestScalarOperandsKeepDtype:
    """A Python scalar beside a float32 tensor is lifted in float32:
    ``var + eps`` and ``sum / count`` (so ``Tensor.mean``) no longer promote
    batch norm to float64; float64 stays float64.  Every layer the paper's
    models are built from keeps float32 through forward and backward, lone
    and (where it stacks) stacked."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_binary_ops_with_scalars(self, dtype):
        x = Tensor(np.arange(1, 7, dtype=dtype).reshape(2, 3), requires_grad=True)
        outs = [x + 1e-5, 2 + x, x - 0.5, 3 - x, x * 0.1, 2 * x, x / 3.0, 1.0 / x,
                x.mean(), x.mean(axis=0), x.var(axis=1)]
        for out in outs:
            assert out.dtype == dtype
        sum(out.sum() for out in outs).backward()
        assert x.grad.dtype == dtype

    @staticmethod
    def layer(name, member=0):
        rng = np.random.default_rng(member)
        layer = {
            "batchnorm": lambda: BatchNorm2d(4),
            "conv": lambda: Conv2d(4, 2, 3, rng, padding=1),
            "linear": lambda: Linear(6, 3, rng),
            "maxpool": lambda: MaxPool2d(2),
            "relu": lambda: ReLU(),
            "flatten": lambda: Flatten(),
        }[name]()
        for param in layer.parameters():
            param.data = param.data + rng.normal(size=param.shape)
        return layer.astype(np.float32)

    @staticmethod
    def batch(name, lead=()):
        shape = (5, 6) if name == "linear" else (3, 4, 4, 4)
        return Tensor(
            np.random.default_rng(7).normal(size=lead + shape).astype(np.float32),
            requires_grad=True,
        )

    @pytest.mark.parametrize("name", ["batchnorm", "conv", "linear", "maxpool", "relu", "flatten"])
    def test_lone_layer_stays_float32(self, name):
        layer, x = self.layer(name), self.batch(name)
        out = layer(x)
        assert out.dtype == np.float32
        out.backward(np.ones(out.shape, dtype=np.float32))
        assert x.grad.dtype == np.float32
        for param in layer.parameters():
            assert param.grad.dtype == np.float32
        for _, buf in layer.named_buffers():
            assert buf.dtype == np.float32

    @pytest.mark.parametrize("name", ["conv", "linear", "maxpool", "relu", "flatten"])
    def test_stacked_layer_stays_float32(self, name):
        stacked = stack_modules([self.layer(name, member) for member in range(3)])
        x = self.batch(name, lead=(3,))
        out = stacked(x)
        assert out.dtype == np.float32
        out.backward(np.ones(out.shape, dtype=np.float32))
        assert x.grad.dtype == np.float32
        for param in stacked.parameters():
            assert param.data.dtype == np.float32
            assert param.grad.dtype == np.float32
