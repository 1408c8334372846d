"""The transport codec layer: versions, broadcast wire forms, update codecs."""

import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.data.dataset import ArrayDataset, FederatedDataset
from repro.federated import FedAvgAggregator, FederatedSimulation
from repro.nn.models import RegistryModelFactory
from repro.runtime import codec as codec_module
from repro.runtime.codec import (
    BroadcastDelta,
    BroadcastFull,
    BroadcastRef,
    DeltaCodec,
    QuantCodec,
    RawCodec,
    TopKCodec,
    _xor_payload,
    _xor_restore,
    available_codecs,
    decode_broadcast,
    dense_nbytes,
    encode_broadcast,
    get_codec,
    same_structure,
    state_version,
)
from repro.training import TrainConfig

from ..conftest import generated


def make_state(seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return {
        "layer0.weight": rng.normal(0.0, 0.5, size=(16, 9)).astype(dtype),
        "layer0.bias": rng.normal(0.0, 0.5, size=16).astype(dtype),
        "head.weight": rng.normal(0.0, 0.5, size=(3, 16)).astype(dtype),
        "counter": np.array([7], dtype=np.int64),  # integer buffer
    }


def nearby_state(state, scale=1e-3, seed=9):
    rng = np.random.default_rng(seed)
    out = {}
    for key, value in state.items():
        if np.issubdtype(value.dtype, np.floating):
            out[key] = value + rng.normal(0.0, scale, size=value.shape).astype(
                value.dtype
            )
        else:
            out[key] = value.copy()
    return out


def assert_states_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        assert a[key].dtype == b[key].dtype
        np.testing.assert_array_equal(a[key], b[key])


class TestStateVersion:
    def test_identical_content_identical_version(self):
        a = make_state(0)
        b = {key: value.copy() for key, value in make_state(0).items()}
        assert state_version(a) == state_version(b)

    def test_any_bit_flip_changes_version(self):
        a = make_state(0)
        b = {key: value.copy() for key, value in a.items()}
        b["layer0.bias"][3] += 1e-12
        assert state_version(a) != state_version(b)

    def test_structure_participates(self):
        a = make_state(0)
        renamed = {("x" + key): value for key, value in a.items()}
        assert state_version(a) != state_version(renamed)
        assert not same_structure(a, renamed)


class TestBroadcastWire:
    def test_cold_cache_ships_full(self):
        state = make_state(1)
        wire = encode_broadcast(state, state_version(state), None, None)
        assert isinstance(wire, BroadcastFull)
        decoded, version = decode_broadcast(wire, None, None)
        assert_states_equal(decoded, state)
        assert version == state_version(state)

    def test_same_version_ships_ref(self):
        state = make_state(1)
        version = state_version(state)
        wire = encode_broadcast(state, version, version, state)
        assert isinstance(wire, BroadcastRef)
        assert wire.nbytes < 64
        decoded, _ = decode_broadcast(wire, version, state)
        assert_states_equal(decoded, state)

    def test_warm_cache_ships_lossless_delta(self):
        base = make_state(1)
        state = nearby_state(base, scale=1e-6)
        wire = encode_broadcast(
            state, state_version(state), state_version(base), base
        )
        assert isinstance(wire, BroadcastDelta)
        assert wire.nbytes < dense_nbytes(state)
        decoded, _ = decode_broadcast(wire, state_version(base), base)
        assert_states_equal(decoded, state)  # bitwise, by construction

    def test_unrelated_states_fall_back_to_full(self):
        # Incompressible XOR (independent random states) must not ship a
        # delta bigger than the dense payload.
        base = make_state(1)
        state = make_state(2)
        wire = encode_broadcast(
            state, state_version(state), state_version(base), base
        )
        decoded, _ = decode_broadcast(
            wire, state_version(base), base
        )
        assert_states_equal(decoded, state)

    def test_structure_change_ships_full(self):
        base = make_state(1)
        state = {"other": np.zeros(4)}
        wire = encode_broadcast(
            state, state_version(state), state_version(base), base
        )
        assert isinstance(wire, BroadcastFull)

    def test_ref_against_wrong_cache_raises(self):
        state = make_state(1)
        wire = BroadcastRef(version="deadbeef")
        with pytest.raises(ValueError):
            decode_broadcast(wire, "cafebabe", state)

    def test_delta_against_wrong_base_raises(self):
        base = make_state(1)
        state = nearby_state(base)
        wire = encode_broadcast(
            state, state_version(state), state_version(base), base
        )
        assert isinstance(wire, BroadcastDelta)
        with pytest.raises(ValueError):
            decode_broadcast(wire, "cafebabe", base)


class TestRegistry:
    def test_families_registered(self):
        assert set(available_codecs()) >= {"raw", "delta", "topk", "quant"}

    def test_specs_resolve_and_cache(self):
        assert isinstance(get_codec("raw"), RawCodec)
        assert isinstance(get_codec("delta"), DeltaCodec)
        topk = get_codec("topk:0.1")
        assert isinstance(topk, TopKCodec) and topk.fraction == 0.1
        quant = get_codec("quant:8")
        assert isinstance(quant, QuantCodec) and quant.num_bits == 8
        assert get_codec("quant:8") is quant  # shared instance per spec

    @pytest.mark.parametrize(
        "spec", ["", "nope", "topk", "quant", "raw:1", "delta:x", "topk:2.0", "quant:0"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            get_codec(spec)


class TestLosslessCodecs:
    @pytest.mark.parametrize("spec", ["raw", "delta"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_roundtrip(self, spec, dtype):
        codec = get_codec(spec)
        assert codec.lossless
        basis = make_state(3, dtype=dtype)
        state = nearby_state(basis, scale=1e-4, seed=4)
        encoded = codec.encode(state, basis)
        assert encoded.codec == spec
        decoded = codec.decode(encoded, basis)
        assert_states_equal(decoded, state)

    def test_delta_beats_raw_on_nearby_states(self):
        basis = make_state(3)
        state = nearby_state(basis, scale=1e-8, seed=4)
        raw_bytes = get_codec("raw").encode(state, basis).nbytes
        delta_bytes = get_codec("delta").encode(state, basis).nbytes
        assert delta_bytes < raw_bytes

    def test_delta_never_exceeds_dense(self):
        basis = make_state(3)
        state = make_state(4)  # unrelated: incompressible XOR
        encoded = get_codec("delta").encode(state, basis)
        assert encoded.nbytes <= dense_nbytes(state)
        assert_states_equal(get_codec("delta").decode(encoded, basis), state)


class TestLossyCodecs:
    @pytest.mark.parametrize("spec", ["topk:0.1", "quant:8"])
    def test_deterministic_and_smaller(self, spec):
        codec = get_codec(spec)
        assert not codec.lossless
        basis = make_state(5)
        state = nearby_state(basis, scale=1e-2, seed=6)
        first, first_bytes = codec.roundtrip(state, basis)
        second, second_bytes = codec.roundtrip(state, basis)
        assert first_bytes == second_bytes
        assert_states_equal(first, second)  # pure function of the input
        assert first_bytes < dense_nbytes(state)

    @pytest.mark.parametrize("spec", ["topk:0.1", "quant:8"])
    def test_integer_buffers_survive_exactly(self, spec):
        codec = get_codec(spec)
        basis = make_state(5)
        state = nearby_state(basis, scale=1e-2, seed=6)
        decoded, _ = codec.roundtrip(state, basis)
        np.testing.assert_array_equal(decoded["counter"], state["counter"])
        assert decoded["counter"].dtype == state["counter"].dtype

    @pytest.mark.parametrize("spec", ["topk:0.1", "quant:8"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_preserves_dtype_and_approximates(self, spec, dtype):
        codec = get_codec(spec)
        basis = make_state(5, dtype=dtype)
        state = nearby_state(basis, scale=1e-2, seed=6)
        decoded, _ = codec.roundtrip(state, basis)
        for key, value in decoded.items():
            assert value.dtype == state[key].dtype
        # The reconstruction tracks the true update direction.
        for key in ("layer0.weight", "head.weight"):
            err = float(np.abs(decoded[key] - state[key]).max())
            assert err <= float(np.abs(state[key] - basis[key]).max()) + 1e-12

    def test_quant_low_bit_ships_narrow_codes(self):
        codec = get_codec("quant:4")
        basis = make_state(5)
        state = nearby_state(basis, scale=1e-2, seed=6)
        payload, _ = codec.encode(state, basis).payload
        for entry in payload.values():
            assert entry["codes"].dtype == np.uint8


# ----------------------------------------------------------------------
# The byte-plane XOR payload: losslessness by generation, decoder fuzz
# ----------------------------------------------------------------------
DTYPES = (np.float64, np.float32, np.float16, np.int64, np.int32, np.uint8, np.bool_)
SHAPES = (
    (), (0,), (3, 0), (1,), (7,), (37,), (3, 5), (2, 3, 7), (1, 61), (257,), (19, 23),
)
SPECIALS = (np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-45, 6e-8)  # incl. subnormals


def _draw(rng, dtype, shape):
    if np.issubdtype(dtype, np.floating):
        return rng.normal(0.0, 0.5, size=shape)
    if dtype is np.bool_:
        return rng.random(size=shape) < 0.5
    return rng.integers(0, 256 if dtype is np.uint8 else 1000, size=shape)


def _sprinkle(rng, value):
    """Overwrite about a quarter of a float array with special values."""
    if np.issubdtype(value.dtype, np.floating) and value.size:
        flat = value.reshape(-1)  # a view: ``value`` is contiguous
        hits = rng.integers(0, flat.size, size=max(1, flat.size // 4))
        flat[hits] = rng.choice(SPECIALS, size=hits.size).astype(value.dtype)


@st.composite
def state_pairs(draw):
    """``(state, base)`` of one structure: 0-6 keys over mixed dtypes and
    awkward shapes, related as the transport meets them (identical, a
    small perturbation, unrelated) or salted with IEEE special values."""
    keys = draw(
        st.lists(st.text("abw.01", min_size=1, max_size=5), unique=True, max_size=6)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    relation = draw(st.sampled_from(["identical", "nearby", "unrelated", "specials"]))
    state, base = {}, {}
    for key in keys:
        dtype = draw(st.sampled_from(DTYPES))
        shape = draw(st.sampled_from(SHAPES))
        old = new = np.asarray(_draw(rng, dtype, shape), dtype=dtype)
        if relation == "unrelated":
            new = _draw(rng, dtype, shape)
        elif relation != "identical" and np.issubdtype(dtype, np.floating):
            new = old + rng.normal(0.0, 1e-3, size=shape).astype(dtype)
        elif relation != "identical":  # integer / bool buffers: a few bits flip
            new = old ^ (_draw(rng, dtype, shape) * (rng.random(size=shape) < 0.1))
        # 0-d arithmetic returns scalars; states hold arrays, and own them.
        base[key] = np.array(old, dtype=dtype).reshape(shape)
        state[key] = np.array(new, dtype=dtype).reshape(shape)
        if relation == "specials":
            _sprinkle(rng, state[key])
            _sprinkle(rng, base[key])
    return state, base


def assert_bit_identical(decoded, state):
    assert set(decoded) == set(state)
    for key, value in state.items():
        assert decoded[key].dtype == value.dtype
        assert decoded[key].shape == value.shape
        assert decoded[key].tobytes() == value.tobytes()  # NaN payloads, -0.0


class TestXorPayloadGenerated:
    @generated(150)
    @given(state_pairs())
    def test_payload_restores_bit_identical_or_declines(self, pair):
        state, base = pair
        payload = _xor_payload(state, base)
        if payload:  # b"" = "cannot beat dense"; then the callers ship dense
            assert len(payload) < dense_nbytes(state)
            assert_bit_identical(_xor_restore(payload, base), state)

    @generated(150)
    @given(state_pairs())
    def test_delta_codec_roundtrip_and_form(self, pair):
        state, base = pair
        codec = get_codec("delta")
        encoded = codec.encode(state, base)
        kind, payload = encoded.payload
        if kind == "xor":
            assert encoded.nbytes == len(payload) < dense_nbytes(state)
        else:
            assert kind == "dense" and encoded.nbytes == dense_nbytes(state)
        assert_bit_identical(codec.decode(encoded, base), state)

    @generated(150)
    @given(state_pairs())
    def test_broadcast_roundtrip_and_form(self, pair):
        state, base = pair
        version, cached = state_version(state), state_version(base)
        memo = {}
        wire = encode_broadcast(state, version, cached, base, memo)
        if version == cached:
            assert isinstance(wire, BroadcastRef)
        elif isinstance(wire, BroadcastDelta):
            assert len(wire.payload) < dense_nbytes(state)
        else:
            assert isinstance(wire, BroadcastFull)
        decoded, decoded_version = decode_broadcast(wire, cached, base)
        assert decoded_version == version
        assert_bit_identical(decoded, state)
        # The memo answers the second receiver with the same wire form.
        again = encode_broadcast(state, version, cached, base, memo)
        assert type(again) is type(wire) and again.nbytes == wire.nbytes


def payload_planes(base):
    return max((value.dtype.itemsize for value in base.values()), default=0)


def stored_payload(state, base):
    """The format from its description, every plane stored — what the
    decoder must accept whatever the encoder would have chosen: one zero
    ``<u4`` per plane, then plane k = the k-th most significant byte of
    every element at least k + 1 bytes wide, keys sorted."""
    words = []
    for key in sorted(state):
        xored = bytes(a ^ b for a, b in zip(state[key].tobytes(), base[key].tobytes()))
        width = state[key].dtype.itemsize
        words += [xored[i : i + width][::-1] for i in range(0, len(xored), width)]
    planes = payload_planes(base)
    return bytes(4 * planes) + bytes(
        word[k] for k in range(planes) for word in words if len(word) > k
    )


def mlp_state(seed, scale=0.05):
    """A state of the ``fed_fanout`` model's shape (16 643 float64)."""
    rng = np.random.default_rng(seed)
    shapes = {"l0.w": (64, 256), "l0.b": (64,), "l2.w": (3, 64), "l2.b": (3,)}
    return {key: rng.normal(0.0, scale, size=shape) for key, shape in shapes.items()}


class TestXorRestoreFailsClosed:
    """ROADMAP 4f's rule for this decoder: bytes that are not a payload
    for the base's structure give ``ValueError`` or a state of exactly
    that structure — never another exception, never another structure."""

    @staticmethod
    def restore_or_reject(payload, base):
        try:
            decoded = _xor_restore(payload, base)
        except ValueError:
            return None
        assert same_structure(decoded, base)
        return decoded

    @generated(150)
    @given(state_pairs(), st.data())
    def test_mutated_payloads(self, pair, data):
        state, base = pair
        payload = _xor_payload(state, base) or stored_payload(state, base)
        assert_bit_identical(_xor_restore(payload, base), state)
        tail = data.draw(st.binary(min_size=1, max_size=9), label="tail")
        assert self.restore_or_reject(payload + tail, base) is None
        if not payload:  # a state without keys: nothing to cut, flip or forge
            return
        cut = data.draw(st.integers(0, len(payload) - 1), label="cut")
        assert self.restore_or_reject(payload[:cut], base) is None
        at = data.draw(st.integers(0, len(payload) - 1), label="flip at")
        flipped = bytearray(payload)
        flipped[at] ^= data.draw(st.integers(1, 255), label="flip bits")
        self.restore_or_reject(bytes(flipped), base)
        plane = data.draw(st.integers(0, payload_planes(base) - 1), label="plane")
        lie = data.draw(
            st.one_of(st.integers(0, 64), st.integers(0, 2**32 - 1)), label="lie"
        )
        forged = bytearray(payload)
        forged[4 * plane : 4 * plane + 4] = lie.to_bytes(4, "little")
        self.restore_or_reject(bytes(forged), base)

    @generated(150)
    @given(state_pairs(), st.binary(max_size=600))
    def test_arbitrary_bytes(self, pair, blob):
        self.restore_or_reject(blob, pair[1])

    def test_zlib_errors_surface_as_value_error_naming_the_plane(self):
        base = make_state(1)
        payload = bytearray(_xor_payload(nearby_state(base, scale=1e-9), base))
        assert int.from_bytes(payload[:4], "little")  # plane 0 is deflated
        payload[8 * 4 + 3] ^= 0xFF  # inside plane 0's deflate stream
        with pytest.raises(ValueError, match="plane 0"):
            _xor_restore(bytes(payload), base)

    def test_deflate_bomb_is_bounded_by_the_plane_not_its_claim(self):
        base = mlp_state(0)
        bomb = zlib.compress(bytes(64 << 20), 1)  # 290 KB claiming 64 MB
        elements = dense_nbytes(base) // 8
        header = np.zeros(8, dtype="<u4")
        header[0] = len(bomb)
        payload = header.tobytes() + bomb + bytes(7 * elements)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="plane 0"):
                _xor_restore(payload, base)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The restored planes, one plane's worth of inflate output and zlib's
        # copy of the input it refused to consume: 3.7x dense, not 500x.
        assert peak < 8 * dense_nbytes(base)

    def test_empty_payload_means_declined_and_never_decodes(self):
        noise = np.frombuffer(np.random.default_rng(1).bytes(8 * 4096), dtype=np.int64)
        zeros = np.zeros_like(noise)
        assert _xor_payload({"w": noise}, {"w": zeros}) == b""  # no plane shrinks
        with pytest.raises(ValueError, match="header"):
            _xor_restore(b"", {"w": zeros})


# ----------------------------------------------------------------------
# Bytes never grow; the lossless ratio is a tier-1 number (ROADMAP 3e)
# ----------------------------------------------------------------------
def single_stream_xor_payload(state, base):
    """The encoder this repository shipped through PR 16, kept as the size
    reference: per-key byte shuffle, one deflate stream over everything."""
    parts = []
    for key in sorted(state):
        value = np.ascontiguousarray(state[key])
        xored = np.bitwise_xor(
            value.view(np.uint8).ravel(),
            np.ascontiguousarray(base[key]).view(np.uint8).ravel(),
        )
        parts.append(
            np.ascontiguousarray(xored.reshape(-1, value.dtype.itemsize).T).tobytes()
        )
    return zlib.compress(b"".join(parts), 1)


class TestPlaneFormatNeverGrows:
    def test_fed_fanout_shaped_federation(self, monkeypatch):
        """8 clients x 96 samples, 16x16 registry MLP, one local epoch,
        three rounds — the ``fed_fanout`` benchmark's federation."""
        # Orthogonal prototypes three noise deviations apart: hard enough
        # that training never converges and updates stay full-entropy.
        rng = np.random.default_rng(5)
        basis, _ = np.linalg.qr(rng.normal(size=(256, 3)))
        labels = np.arange(8 * 96 + 60) % 3
        images = (3.0 * basis.T).reshape(3, 1, 16, 16)[labels] + rng.normal(
            size=(labels.size, 1, 16, 16)
        )
        full = ArrayDataset(images=images, labels=labels, num_classes=3, name="fanout")
        fed = FederatedDataset(
            client_datasets=[
                full.subset(range(i * 96, (i + 1) * 96)) for i in range(8)
            ],
            test_set=full.subset(range(8 * 96, 8 * 96 + 60)),
        )
        factory = RegistryModelFactory(
            name="mlp", num_classes=3, in_channels=1, image_size=16
        )
        sim = FederatedSimulation(
            factory, fed, FedAvgAggregator(),
            TrainConfig(epochs=1, batch_size=16, learning_rate=0.02),
            seed=5, codec="delta",
        )
        pairs = []  # (state, base): client updates, then global deltas

        def recording(state, base):
            pairs.append((state, base))
            return _xor_payload(state, base)

        globals_ = [dict(sim.server.global_state)]
        with monkeypatch.context() as patch:
            patch.setattr(codec_module, "_xor_payload", recording)
            for round_index in range(3):
                sim.run_round(round_index)
                globals_.append(dict(sim.server.global_state))
        assert len(pairs) == 3 * 8
        pairs += list(zip(globals_[1:], globals_[:-1]))

        sizes = []
        for state, base in pairs:
            payload = _xor_payload(state, base)
            assert payload
            assert len(payload) <= len(single_stream_xor_payload(state, base))
            assert_bit_identical(_xor_restore(payload, base), state)
            sizes.append(len(payload))
        # The simulation's uplink meter read these very payloads.
        assert sim.transport_report()["bytes_up"] == sum(sizes[:24])
        # Measured at PR 17: 1.2101 (the single-stream reference: 1.2028).
        # Six of eight planes are stored, so a deflate build whose output
        # differs by a tenth moves this by under a hundredth.
        assert sum(dense_nbytes(state) for state, _ in pairs) / sum(sizes) >= 1.20
