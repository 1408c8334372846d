"""Stacked-vs-looped parity for the vmap layer (:mod:`repro.nn.vmap`).

The vectorized client path's whole correctness story rests on one claim:
slice ``k`` of a stacked forward/backward/step is **bit-identical** to
client ``k``'s standalone run.  These tests pin that claim layer by
layer — values, gradients and optimizer trajectories — with exact
equality, not tolerances.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.losses import (
    HARD_LOSSES,
    cross_entropy,
    focal_loss,
    get_hard_loss,
    label_smoothing_loss,
    nll_from_logits,
)
from repro.nn.models import MLP, LeNet5, ModifiedLeNet5
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor
from repro.nn.vmap import (
    VmapUnsupported,
    get_stacked_loss,
    ragged_support_reason,
    stack_modules,
    stackable_reason,
)

from ..conftest import generated

K = 3  # stack size used throughout
N = 4  # per-client batch size


def rngs(seed=0, count=K):
    return [np.random.default_rng(seed + i) for i in range(count)]


def stacked_input(shape, seed=7):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(K,) + shape)


def assert_exact(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.dtype == b.dtype
    np.testing.assert_array_equal(a, b)


def forward_backward_parity(members, stacked, x):
    """Run stacked vs per-member forward+backward; compare bit for bit.

    ``x`` is a ``(K, N, ...)`` array.  The backward seeds both paths with
    the same upstream gradient of ones (sum loss); input gradients are
    compared too, covering parameterless layers (pooling, ReLU).
    """
    stacked_in = Tensor(x, requires_grad=True)
    out = stacked(stacked_in)
    out.sum().backward()
    for k, member in enumerate(members):
        ref_in = Tensor(x[k].copy(), requires_grad=True)
        ref = member(ref_in)
        ref.sum().backward()
        assert_exact(out.data[k], ref.data)
        assert_exact(stacked_in.grad[k], ref_in.grad)
        stacked_params = list(stacked.parameters())
        member_params = list(member.parameters())
        assert len(stacked_params) == len(member_params)
        for sp, mp in zip(stacked_params, member_params):
            assert_exact(sp.grad[k], mp.grad)


class TestStackedLinear:
    def test_forward_backward_bit_exact(self):
        members = [Linear(5, 3, rng) for rng in rngs()]
        stacked = stack_modules(members)
        forward_backward_parity(members, stacked, stacked_input((N, 5)))

    def test_no_bias_variant(self):
        members = [Linear(5, 3, rng, bias=False) for rng in rngs()]
        stacked = stack_modules(members)
        forward_backward_parity(members, stacked, stacked_input((N, 5)))


class TestStackedConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_forward_backward_bit_exact(self, stride, padding):
        members = [
            Conv2d(2, 4, 3, rng, stride=stride, padding=padding) for rng in rngs()
        ]
        stacked = stack_modules(members)
        forward_backward_parity(members, stacked, stacked_input((N, 2, 8, 8)))


class TestStackedPooling:
    def test_merged_batch_is_bit_exact(self):
        members = [MaxPool2d(2) for _ in range(K)]
        stacked = stack_modules(members)
        forward_backward_parity(members, stacked, stacked_input((N, 2, 6, 6)))


class TestStackedSGD:
    def test_momentum_trajectory_bit_exact(self):
        """Three optimizer steps with momentum + weight decay: every
        slice's parameters track its standalone twin exactly."""
        members = [Linear(5, 3, rng) for rng in rngs()]
        twins = [Linear(5, 3, rng) for rng in rngs()]  # same init (same seeds)
        stacked = stack_modules(members)
        opt = SGD(stacked.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-3)
        twin_opts = [
            SGD(t.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-3)
            for t in twins
        ]
        for step in range(3):
            x = stacked_input((N, 5), seed=50 + step)
            opt.zero_grad()
            stacked(Tensor(x)).sum().backward()
            opt.step()
            for k, (twin, twin_opt) in enumerate(zip(twins, twin_opts)):
                twin_opt.zero_grad()
                twin(Tensor(x[k].copy())).sum().backward()
                twin_opt.step()
        stacked.sync_back()
        for member, twin in zip(members, twins):
            for (name, got), (_, want) in zip(
                member.state_dict().items(), twin.state_dict().items()
            ):
                assert_exact(got, want)

    def test_stack_optimizer_state_and_synced_members_stay_float64(self):
        members = [MLP(8, 3, rng) for rng in rngs()]
        stacked = stack_modules(members)
        opt = SGD(stacked.parameters(), lr=0.1, momentum=0.9)
        for step in range(2):
            opt.zero_grad()
            stacked(Tensor(stacked_input((N, 8), seed=60 + step))).sum().backward()
            opt.step()
        for param in stacked.parameters():
            assert param.data.dtype == param.grad.dtype == np.float64
        assert all(v.dtype == np.float64 for v in opt._velocity)
        stacked.sync_back()
        for member in members:
            assert all(v.dtype == np.float64 for v in member.state_dict().values())


class TestStackedModels:
    @pytest.mark.parametrize(
        "build,shape",
        [
            (lambda rng: MLP(16, 3, rng), (N, 1, 4, 4)),
            (lambda rng: MLP(16, 3, rng), (N, 16)),  # pre-flattened input
            (lambda rng: LeNet5(3, rng, in_channels=1, image_size=16), (N, 1, 16, 16)),
            (
                lambda rng: ModifiedLeNet5(3, rng, in_channels=2, image_size=16),
                (N, 2, 16, 16),
            ),
        ],
    )
    def test_model_zoo_forward_backward_bit_exact(self, build, shape):
        members = [build(rng) for rng in rngs()]
        stacked = stack_modules(members)
        forward_backward_parity(members, stacked, stacked_input(shape))

    def test_sequential_of_supported_layers(self):
        def build(rng):
            return Sequential(
                Flatten(), Linear(18, 8, rng), ReLU(), Linear(8, 3, rng)
            )

        members = [build(rng) for rng in rngs()]
        stacked = stack_modules(members)
        forward_backward_parity(members, stacked, stacked_input((N, 2, 3, 3)))

    def test_sync_back_restores_slice_states(self):
        members = [MLP(8, 3, rng) for rng in rngs()]
        originals = [m.state_dict() for m in members]
        stacked = stack_modules(members)
        states = stacked.slice_states()
        for state, original in zip(states, originals):
            assert set(state) == set(original)
            for key in state:
                assert_exact(state[key], original[key])


class TestStackedLosses:
    """The hard losses take ``(K, N, C)`` logits themselves (the
    ``stacked_*`` twins these ids name are gone): slice ``k`` of the
    stacked call equals the loss of slice ``k`` alone."""

    @pytest.mark.parametrize(
        "stacked_fn,ref_fn",
        [
            pytest.param(cross_entropy, cross_entropy,
                         id="stacked_cross_entropy-cross_entropy"),
            # nll_from_logits composes the same ops as cross_entropy
            pytest.param(cross_entropy, nll_from_logits,
                         id="stacked_cross_entropy-nll_from_logits"),
            pytest.param(focal_loss, focal_loss,
                         id="stacked_focal_loss-focal_loss"),
            pytest.param(label_smoothing_loss, label_smoothing_loss,
                         id="stacked_label_smoothing_loss-label_smoothing_loss"),
        ],
    )
    def test_per_slice_value_and_grad_bit_exact(self, stacked_fn, ref_fn):
        logits = stacked_input((N, 5), seed=3)
        labels = np.random.default_rng(4).integers(0, 5, size=(K, N))
        stacked_in = Tensor(logits.copy(), requires_grad=True)
        loss_vec = stacked_fn(stacked_in, labels)
        assert loss_vec.shape == (K,)
        loss_vec.sum().backward()
        for k in range(K):
            ref_in = Tensor(logits[k].copy(), requires_grad=True)
            ref_loss = ref_fn(ref_in, labels[k])
            ref_loss.backward()
            assert_exact(loss_vec.data[k], ref_loss.data)
            assert_exact(stacked_in.grad[k], ref_in.grad)

    def test_registry_covers_every_stacked_name(self):
        # One registry: the name bench/probes.py imports is get_hard_loss.
        assert get_stacked_loss is get_hard_loss
        for name in HARD_LOSSES:
            assert callable(get_stacked_loss(name))
        with pytest.raises(ValueError, match="unknown hard loss"):
            get_stacked_loss("mse")


class TestRejection:
    def test_batchnorm_buffers_rejected_with_reason(self):
        def build(rng):
            return Sequential(Conv2d(1, 2, 3, rng), BatchNorm2d(2))

        members = [build(rng) for rng in rngs()]
        with pytest.raises(VmapUnsupported, match="buffer"):
            stack_modules(members)
        assert "buffer" in stackable_reason(members[0])

    def test_structural_mismatch_rejected(self):
        a = Sequential(Linear(4, 3, np.random.default_rng(0)))
        b = Sequential(ReLU())
        with pytest.raises(VmapUnsupported, match="structure"):
            stack_modules([a, b])

    def test_shape_mismatch_rejected(self):
        a = Linear(4, 3, np.random.default_rng(0))
        b = Linear(5, 3, np.random.default_rng(1))
        with pytest.raises(VmapUnsupported, match="in_features"):
            stack_modules([a, b])

    def test_stackable_reason_none_for_supported_model(self):
        assert stackable_reason(MLP(8, 3, np.random.default_rng(0))) is None

    def test_subclass_overriding_forward_does_not_inherit_stackable(self):
        class Doubled(Linear):
            def forward(self, x):
                return super().forward(x) * 2.0

        members = [Doubled(4, 3, rng) for rng in rngs()]
        with pytest.raises(VmapUnsupported, match="Doubled has no stacked implementation"):
            stack_modules(members)
        assert "Doubled" in stackable_reason(Sequential(members[0]))

    @pytest.mark.parametrize("with_bias", [(True, False, False), (False, False, True)],
                             ids=["first-only", "later-only"])
    @pytest.mark.parametrize("build", [
        lambda rng, bias: Linear(4, 3, rng, bias=bias),
        lambda rng, bias: Conv2d(1, 2, 3, rng, bias=bias),
    ], ids=["Linear", "Conv2d"])
    def test_bias_presence_mismatch_rejected(self, build, with_bias):
        members = [build(rng, bias) for rng, bias in zip(rngs(), with_bias)]
        with pytest.raises(VmapUnsupported, match="bias presence"):
            stack_modules(members)

    @pytest.mark.parametrize("build,attr", [
        (lambda rng, i: Conv2d(1, 2, 3, rng, stride=1 + i), "stride"),
        (lambda rng, i: Conv2d(1, 2, 3, rng, padding=i), "padding"),
        (lambda rng, i: Conv2d(1, 2, 3 + i, rng), "kernel_size"),
        (lambda rng, i: Linear(4 + i, 3, rng), "in_features"),
        (lambda rng, i: Linear(4, 3 + i, rng), "out_features"),
        (lambda rng, i: MaxPool2d(2 + i), "kernel_size"),
    ], ids=["Conv2d.stride", "Conv2d.padding", "Conv2d.kernel_size", "Linear.in_features",
            "Linear.out_features", "MaxPool2d"])
    def test_attribute_mismatch_rejected(self, build, attr):
        # Only the last member differs: the check reads every member.  A
        # shape attribute is read before the weights it shapes, so members
        # of different widths give the fallback error, not np.stack's.
        members = [build(rng, int(i == K - 1)) for i, rng in enumerate(rngs())]
        with pytest.raises(VmapUnsupported, match=f"differ in {attr}"):
            stack_modules(members)

    def test_per_member_state_rejected(self):
        # A stack shares one value per attribute: a member's generator
        # (or any other non-plain state) has no stacked form.
        class Noisy(ReLU):
            stackable = True

            def __init__(self, rng):
                super().__init__()
                self.rng = rng

        for count in (1, K):
            with pytest.raises(VmapUnsupported, match="rng is per-member state"):
                stack_modules([Noisy(rng) for rng in rngs(count=count)])

    def test_sequential_length_mismatch_rejected(self):
        a = Sequential(ReLU(), Flatten())
        b = Sequential(ReLU())
        for members in ([a, b], [b, a]):
            with pytest.raises(VmapUnsupported, match=r"structure.*layer1"):
                stack_modules(members)

    def test_bare_batchnorm_rejected(self):
        assert "buffer" in stackable_reason(BatchNorm2d(2))


class TestRaggedRows:
    """Ragged (zero-padded) stacks: slice ``k`` restricted to its true
    ``row_counts[k]`` rows must be bit-identical to the member running
    its true-size batch alone — each member's GEMMs are issued at the
    member's true row count, so padding never perturbs the reduction."""

    ROWS = [4, 2, 3]

    def ragged_input(self, shape, seed=7):
        x = stacked_input(shape, seed=seed)
        for k, rows in enumerate(self.ROWS):
            x[k, rows:] = 0.0
        return x

    def ragged_parity(self, members, stacked, x):
        stacked_in = Tensor(x, requires_grad=True)
        out = stacked(stacked_in)
        out.sum().backward()
        for k, (member, rows) in enumerate(zip(members, self.ROWS)):
            ref_in = Tensor(x[k, :rows].copy(), requires_grad=True)
            ref = member(ref_in)
            ref.sum().backward()
            assert_exact(out.data[k, :rows], ref.data)
            assert_exact(stacked_in.grad[k, :rows], ref_in.grad)
            for sp, mp in zip(stacked.parameters(), member.parameters()):
                assert_exact(sp.grad[k], mp.grad)
        # Padded rows contribute exactly nothing, not merely "almost".
        for k, rows in enumerate(self.ROWS):
            assert np.all(out.data[k, rows:] == 0.0)
            assert np.all(stacked_in.grad[k, rows:] == 0.0)

    def test_ragged_linear_bit_exact(self):
        members = [Linear(5, 3, rng) for rng in rngs()]
        stacked = stack_modules(members)
        stacked.set_row_counts(self.ROWS)
        self.ragged_parity(members, stacked, self.ragged_input((N, 5)))

    def test_ragged_linear_no_bias(self):
        members = [Linear(5, 3, rng, bias=False) for rng in rngs()]
        stacked = stack_modules(members)
        stacked.set_row_counts(self.ROWS)
        self.ragged_parity(members, stacked, self.ragged_input((N, 5)))

    def test_ragged_mlp_bit_exact(self):
        members = [MLP(16, 3, np.random.default_rng(40 + i)) for i in range(K)]
        stacked = stack_modules(members)
        stacked.set_row_counts(self.ROWS)
        self.ragged_parity(members, stacked, self.ragged_input((N, 1, 4, 4)))

    def test_clearing_row_counts_restores_rectangular_path(self):
        members = [Linear(5, 3, rng) for rng in rngs()]
        stacked = stack_modules(members)
        stacked.set_row_counts(self.ROWS)
        stacked.set_row_counts(None)
        forward_backward_parity(members, stacked, stacked_input((N, 5)))

    def test_ragged_support_reason(self):
        assert ragged_support_reason(
            MLP(16, 3, np.random.default_rng(0))
        ) is None
        conv_model = Sequential(
            Conv2d(1, 2, 3, np.random.default_rng(0)), Flatten(),
            Linear(8, 3, np.random.default_rng(1)),
        )
        reason = ragged_support_reason(conv_model)
        assert reason is not None and "Conv2d" in reason


# ----------------------------------------------------------------------
# Slice parity by generation
# ----------------------------------------------------------------------
@st.composite
def chains(draw):
    """A chain of stackable layers as a nested spec, with its input shape.

    An optional conv front (``Conv2d`` / ``MaxPool2d`` / ``ReLU``) over
    an image input, ``Flatten``, then an MLP tail (``Linear`` /
    ``ReLU``); runs of consecutive layers fold into nested
    ``Sequential``s.  Returns
    ``(spec, sample_shape)``.
    """
    specs = []
    if draw(st.booleans()):  # image input
        c, size = draw(st.integers(1, 3)), draw(st.sampled_from([4, 6, 8]))
        sample_shape = (c, size, size)
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["conv", "maxpool", "relu"]))
            if kind == "conv":
                kernel, stride = draw(st.sampled_from([1, 3])), draw(st.integers(1, 2))
                padding = draw(st.integers(0, 1))
                out_size = (size + 2 * padding - kernel) // stride + 1
                if out_size < 1:
                    continue
                c_out = draw(st.integers(1, 4))
                specs.append(("conv", c, c_out, kernel, stride, padding, draw(st.booleans())))
                c, size = c_out, out_size
            elif kind == "maxpool":
                if size % 2:
                    continue
                specs.append(("maxpool", 2))
                size //= 2
            else:
                specs.append(("relu",))
        specs.append(("flatten",))
        features = c * size * size
    else:
        features = draw(st.integers(1, 6))
        sample_shape = (features,)
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            out_features = draw(st.integers(1, 6))
            specs.append(("linear", features, out_features, draw(st.booleans())))
            features = out_features
        else:
            specs.append(("relu",))

    def nest(items, depth):
        if depth == 2 or len(items) < 2 or not draw(st.booleans()):
            return items
        start = draw(st.integers(0, len(items) - 1))
        stop = draw(st.integers(start + 1, len(items)))
        return items[:start] + [("seq", nest(items[start:stop], depth + 1))] + items[stop:]

    return nest(specs, 0), sample_shape


def build_chain(spec, seed):
    """One member: layers initialised from ``seed``'s generator, every
    parameter perturbed so no two members agree."""
    rng = np.random.default_rng(seed)

    def make(item):
        kind, *args = item
        if kind == "seq":
            return Sequential(*[make(inner) for inner in args[0]])
        if kind == "conv":
            c_in, c_out, kernel, stride, padding, bias = args
            return Conv2d(c_in, c_out, kernel, rng, stride=stride, padding=padding, bias=bias)
        if kind == "linear":
            return Linear(args[0], args[1], rng, bias=args[2])
        simple = {"maxpool": MaxPool2d, "relu": ReLU, "flatten": Flatten}
        return simple[kind](*args)

    model = Sequential(*[make(item) for item in spec])
    for param in model.parameters():
        param.data = param.data + rng.normal(0.0, 0.1, size=param.shape)
    return model


class TestSliceParityByGeneration:
    """Slice ``k`` of a stack is client ``k`` alone, for any chain of
    stackable layers: forward, input gradient, every parameter gradient
    and the state after one optimizer step, bit for bit; a ragged step's
    padded rows are exactly zero."""

    @generated(150)
    @given(
        chain=chains(),
        k_stack=st.integers(1, 5),
        width=st.integers(1, 4),
        ragged=st.booleans(),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_slice_k_is_client_k(self, chain, k_stack, width, ragged, seed, data):
        spec, sample_shape = chain
        members = [build_chain(spec, seed + k) for k in range(k_stack)]
        twins = [build_chain(spec, seed + k) for k in range(k_stack)]
        rows = [width] * k_stack
        if ragged and ragged_support_reason(members[0]) is None:  # the cohort gate's rule
            rows = data.draw(st.lists(st.integers(1, width), min_size=k_stack, max_size=k_stack))
            rows[data.draw(st.integers(0, k_stack - 1))] = width
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(k_stack, width) + sample_shape)
        for k, count in enumerate(rows):
            x[k, count:] = 0.0

        stacked = stack_modules(members)
        if rows != [width] * k_stack:
            stacked.set_row_counts(rows)
        stacked_in = Tensor(x.copy(), requires_grad=True)
        out = stacked(stacked_in)
        # What a ragged step's per-member losses send back: nothing into
        # the padded rows.
        upstream = rng.normal(size=out.shape)
        for k, count in enumerate(rows):
            upstream[k, count:] = 0.0
        out.backward(upstream)
        if stacked.parameters():
            SGD(stacked.parameters(), lr=0.1, momentum=0.9).step()
        states = stacked.slice_states()

        for k, (twin, count) in enumerate(zip(twins, rows)):
            twin_in = Tensor(x[k, :count].copy(), requires_grad=True)
            twin_out = twin(twin_in)
            twin_out.backward(upstream[k, :count])
            assert_exact(out.data[k, :count], twin_out.data)
            assert np.all(out.data[k, count:] == 0.0)
            assert_exact(stacked_in.grad[k, :count], twin_in.grad)
            assert np.all(stacked_in.grad[k, count:] == 0.0)
            for stacked_param, twin_param in zip(stacked.parameters(), twin.parameters()):
                assert_exact(stacked_param.grad[k], twin_param.grad)
            if twin.parameters():
                SGD(twin.parameters(), lr=0.1, momentum=0.9).step()
            assert list(states[k]) == list(twin.state_dict())
            for name, value in twin.state_dict().items():
                assert_exact(states[k][name], value)
