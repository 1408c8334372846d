"""What the lossy update codecs keep, drop and charge.

``TopKCodec`` and ``QuantCodec`` each own ``compress(delta) → (payload,
nbytes)`` and ``decompress(payload) → delta``; error feedback is their
one encode with the residual term on.  The behaviour of the compression
itself is asserted here, through the codecs, and so is the wire price —
a deterministic function of the tensor sizes, so it is an equality, not
a benchmark floor.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.models import RegistryModelFactory
from repro.runtime.codec import QuantCodec, TopKCodec, dense_nbytes, get_codec


def example_state(seed=0):
    rng = np.random.default_rng(seed)
    return {"w": rng.normal(size=(8, 8)), "b": rng.normal(size=(8,))}


def through(codec, delta):
    """What a receiver reconstructs of a float delta."""
    payload, _ = codec.compress(delta)
    return codec.decompress(payload)


class TestTopK:
    def test_keeps_largest_magnitudes(self):
        state = {"w": np.array([[0.1, -5.0], [3.0, 0.01]])}
        restored = through(get_codec("topk:0.5"), state)
        np.testing.assert_allclose(
            restored["w"], np.array([[0.0, -5.0], [3.0, 0.0]])
        )

    def test_full_fraction_is_lossless(self):
        state = example_state()
        restored = through(get_codec("topk:1"), state)
        for key in state:
            np.testing.assert_allclose(restored[key], state[key], rtol=1e-6)

    def test_keeps_at_least_one_entry_per_tensor(self):
        state = {"b": np.array([0.5, -0.1])}
        restored = through(get_codec("topk:0.01"), state)
        assert np.count_nonzero(restored["b"]) == 1
        assert restored["b"][0] == pytest.approx(0.5, rel=1e-6)

    def test_wire_size_shrinks(self):
        state = example_state()
        _, nbytes = get_codec("topk:0.1").compress(state)
        # 6 of 64 and 1 of 8 entries, a uint32 index and a float32 value each
        assert nbytes == (6 + 1) * 8
        assert nbytes < dense_nbytes(state)

    def test_validation(self):
        with pytest.raises(ValueError, match="fraction must be in"):
            TopKCodec(0.0)
        with pytest.raises(ValueError, match="fraction must be in"):
            get_codec("topk:1.5")

    @given(fraction=st.floats(0.05, 1.0), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_property_reconstruction_error_shrinks_with_fraction(
        self, fraction, seed
    ):
        """Top-k error is never larger than dropping everything, and a
        kept entry is always exact."""
        state = example_state(seed)
        restored = through(TopKCodec(fraction), state)
        for key in state:
            kept = restored[key] != 0.0
            np.testing.assert_allclose(
                restored[key][kept], state[key][kept], rtol=1e-6
            )
            # error bounded by the norm of what was dropped
            assert np.linalg.norm(restored[key] - state[key]) <= np.linalg.norm(
                state[key]
            ) + 1e-9


class TestQuantization:
    def test_roundtrip_error_bounded_by_half_level(self):
        state = example_state()
        for bits in (4, 8, 12):
            restored = through(get_codec(f"quant:{bits}"), state)
            for key in state:
                span = state[key].max() - state[key].min()
                half_level = span / ((1 << bits) - 1) / 2
                assert np.abs(restored[key] - state[key]).max() <= half_level + 1e-12

    def test_constant_tensor_exact(self):
        state = {"b": np.full(5, 3.14)}
        restored = through(get_codec("quant:2"), state)
        np.testing.assert_allclose(restored["b"], state["b"])

    def test_wire_size_accounts_bits(self):
        state = {"w": np.arange(16, dtype=np.float64).reshape(4, 4)}
        _, nbytes = get_codec("quant:8").compress(state)
        # 16 bytes of codes + 8 bytes codebook
        assert nbytes == 16 + 8

    def test_validation(self):
        with pytest.raises(ValueError, match="num_bits must be in"):
            QuantCodec(num_bits=0)
        with pytest.raises(ValueError, match="num_bits must be in"):
            get_codec("quant:17")

    def test_more_bits_less_error(self):
        state = example_state(3)
        errors = []
        for bits in (2, 6, 12):
            restored = through(get_codec(f"quant:{bits}"), state)
            errors.append(
                sum(np.abs(restored[k] - state[k]).max() for k in state)
            )
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize("bits,dtype", [(1, np.uint8), (8, np.uint8), (9, np.uint16)])
    def test_codes_are_made_at_their_wire_width(self, bits, dtype):
        payload, _ = get_codec(f"quant:{bits}").compress(example_state())
        assert {entry["codes"].dtype for entry in payload.values()} == {np.dtype(dtype)}


class TestErrorFeedback:
    """The residual term of the one lossy encode (``ef:<lossy>``)."""

    def test_residual_carries_dropped_signal(self):
        update = example_state(1)
        basis = {key: np.zeros_like(value) for key, value in update.items()}
        ef = get_codec("ef:topk:0.25")
        encoded, residual = ef.encode_with_residual(update, basis)
        reconstructed = ef.decode(encoded, basis)
        # residual = what the server did not see this round
        for key in update:
            np.testing.assert_array_equal(residual[key], update[key] - reconstructed[key])
            assert np.linalg.norm(residual[key]) > 0.0

    def test_cumulative_signal_preserved(self):
        """Over many rounds of the SAME update, the cumulative transmitted
        signal converges to the cumulative true signal (error feedback's
        raison d'être)."""
        update = example_state(2)
        basis = {key: np.zeros_like(value) for key, value in update.items()}
        ef = get_codec("ef:topk:0.2")
        transmitted_total = {k: np.zeros_like(v) for k, v in update.items()}
        rounds, residual = 30, None
        for _ in range(rounds):
            encoded, residual = ef.encode_with_residual(update, basis, residual)
            reconstructed = ef.decode(encoded, basis)
            for key in update:
                transmitted_total[key] += reconstructed[key]
        for key in update:
            # Average transmitted per round ≈ the true update.
            np.testing.assert_allclose(
                transmitted_total[key] / rounds, update[key], atol=0.25
            )

    def test_plain_codecs_ignore_and_return_no_residual(self):
        update = example_state(3)
        basis = {key: np.zeros_like(value) for key, value in update.items()}
        for spec in ("raw", "delta", "topk:0.2", "quant:4"):
            codec = get_codec(spec)
            encoded, residual = codec.encode_with_residual(update, basis, update)
            assert residual is None
            plain = codec.encode(update, basis)
            assert encoded.nbytes == plain.nbytes
            for key, value in codec.decode(plain, basis).items():
                np.testing.assert_array_equal(codec.decode(encoded, basis)[key], value)


# ----------------------------------------------------------------------
# The wire price, exactly
# ----------------------------------------------------------------------
def float_sizes(state):
    return [v.size for v in state.values() if np.issubdtype(v.dtype, np.floating)]


def exact_bytes(state):
    return sum(
        v.nbytes for v in state.values() if not np.issubdtype(v.dtype, np.floating)
    )


def topk_price(state, fraction):
    return exact_bytes(state) + sum(
        max(1, int(round(fraction * n))) * 8 for n in float_sizes(state)
    )


def quant_price(state, bits):
    return exact_bytes(state) + sum(
        math.ceil(n * bits / 8) + 8 for n in float_sizes(state)
    )


def drifted(basis, seed=0):
    rng = np.random.default_rng(seed)
    return {
        key: value + rng.normal(0.0, 1e-2, size=value.shape)
        if np.issubdtype(value.dtype, np.floating)
        else value + 1
        for key, value in basis.items()
    }


class TestWirePrice:
    MIXED = {
        "w": np.zeros((7, 9)),
        "b": np.zeros(5, dtype=np.float32),
        "one": np.zeros(1),
        "steps": np.array([3, 4], dtype=np.int64),  # ships dense: 16 B
        "flag": np.array([1], dtype=np.uint8),  # ships dense: 1 B
    }

    @pytest.mark.parametrize("fraction", [0.01, 0.05, 0.3, 1.0])
    def test_topk_is_eight_bytes_per_kept_entry(self, fraction):
        state = drifted(self.MIXED)
        for spec in (f"topk:{fraction:g}", f"ef:topk:{fraction:g}"):
            encoded = get_codec(spec).encode(state, self.MIXED)
            assert encoded.nbytes == topk_price(state, fraction)

    @pytest.mark.parametrize("bits", [1, 3, 8, 12, 16])
    def test_quant_is_packed_codes_plus_a_codebook(self, bits):
        state = drifted(self.MIXED)
        for spec in (f"quant:{bits}", f"ef:quant:{bits}"):
            encoded = get_codec(spec).encode(state, self.MIXED)
            assert encoded.nbytes == quant_price(state, bits)

    def test_reduction_vs_raw_on_a_lenet5_state(self):
        """The byte ratios ``benchmarks/test_bench_transport.py`` guards
        with floors, as the exact numbers they are: 34 622 float64
        entries in 8 tensors."""
        factory = RegistryModelFactory(
            name="lenet5", num_classes=10, in_channels=1, image_size=28
        )
        basis = factory().state_dict()
        state = drifted(basis)
        raw = get_codec("raw").encode(state, basis).nbytes
        quant = get_codec("quant:8").encode(state, basis).nbytes
        topk = get_codec("topk:0.05").encode(state, basis).nbytes
        assert raw == dense_nbytes(state) == 34_622 * 8
        assert quant == quant_price(state, 8) == 34_622 + 8 * 8 == 34_686
        assert topk == topk_price(state, 0.05) == 13_864
        assert raw / quant > 7.98  # one byte per float64, plus 8 codebooks
        assert raw / topk > 19.97  # one entry in twenty at 8 B each
