"""The transport codec layer: versions, broadcast wire forms, update codecs."""

import re
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
    RawCodec,
    _xor_payload,
    _xor_restore,
    decode_broadcast,
    dense_nbytes,
    encode_broadcast,
    get_codec,
    same_structure,
    state_version,
)
from repro.runtime.task import TrainResult, encode_trained_state
from repro.training import TrainConfig, TrainHistory

from ..conftest import generated
from ..reference_codec import reference_xor_payload
from .test_wire import roundtrip as wire_roundtrip


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
    def test_specs_resolve_and_cache(self):
        assert isinstance(get_codec("raw"), RawCodec)
        assert isinstance(get_codec("delta"), DeltaCodec)
        assert get_codec("delta") is get_codec("delta")  # one shared instance

    @pytest.mark.parametrize(
        "spec",
        [
            "", "nope", "topk", "quant", "raw:1", "delta:x", "topk:2.0", "quant:0",
            "raw:", "delta:", "topk:0.05", "quant:8", "ef:topk:0.05",
            # An exact lookup: no case folding, no trimming, no wrapping.
            "RAW", "Delta", " raw", "delta ", "ef:raw", "ef:delta",
            None, ["raw"],
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            get_codec(spec)

    @pytest.mark.parametrize(
        "spec", ["topk:0.05", "raw:", "quant:8", "ef:topk:0.05", "delta:"]
    )
    def test_simulation_rejects_a_bad_codec_before_building_a_model(self, spec):
        built = []

        def factory():
            built.append(1)
            return RegistryModelFactory(
                name="mlp", num_classes=2, in_channels=1, image_size=4
            )()

        rng = np.random.default_rng(0)
        data = ArrayDataset(
            images=rng.normal(size=(8, 1, 4, 4)),
            labels=np.arange(8) % 2,
            num_classes=2,
        )
        fed = FederatedDataset(
            client_datasets=[data.subset(range(4)), data.subset(range(4, 8))],
            test_set=data,
        )
        with pytest.raises(ValueError, match="unknown codec"):
            FederatedSimulation(
                factory, fed, FedAvgAggregator(), TrainConfig(epochs=1),
                codec=spec,
            )
        assert built == []


class TestLosslessCodecs:
    @pytest.mark.parametrize("spec", ["raw", "delta"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_roundtrip(self, spec, dtype):
        codec = get_codec(spec)
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
    def test_the_reference_encoders_payloads_still_decode(self, pair):
        """The wire format did not change with the encoder: what the
        level-1, probe-every-plane encoder wrote restores bit for bit."""
        state, base = pair
        payload = reference_xor_payload(state, base)
        if payload:
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
# The stop rule: planes of noise are stored without a deflate probe
# ----------------------------------------------------------------------
def header_of(payload, base):
    return np.frombuffer(payload[: 4 * payload_planes(base)], dtype="<u4")


class TestNoisePlanesAreNotProbed:
    @pytest.fixture
    def deflate_calls(self, monkeypatch):
        """Every deflate the codec starts: ``zlib.compress`` and
        ``zlib.compressobj`` both count."""
        calls = []
        for name in ("compress", "compressobj"):
            original = getattr(zlib, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(zlib, name, counting)
        return calls

    def test_only_the_planes_that_carry_xor_zeros_are_deflated(self, deflate_calls):
        rng = np.random.default_rng(3)
        base = rng.integers(0, 256, size=(4096, 8), dtype=np.uint8)
        # Little-endian words: byte 7 is plane 0, byte 0 is plane 7.
        xor = rng.integers(0, 256, size=(4096, 8), dtype=np.uint8)
        xor[:, 7] = 0  # plane 0 never changes
        xor[rng.random(4096) < 0.5, 6] = 0  # plane 1 changes half the time
        state = {"w": (base ^ xor).view(np.float64).reshape(-1)}
        basis = {"w": base.view(np.float64).reshape(-1)}
        payload = _xor_payload(state, basis)
        assert len(deflate_calls) == 2  # planes 0 and 1; none of the six noise planes
        assert header_of(payload, basis).tolist()[2:] == [0] * 6
        assert all(header_of(payload, basis)[:2])
        assert_bit_identical(_xor_restore(payload, basis), state)

    def test_an_unchanged_key_beside_a_noisy_one_still_deflates(self):
        """The zero share is the whole plane's: a noisy key sorted first
        does not hide the zero runs of the unchanged key after it."""
        rng = np.random.default_rng(4)
        noisy_old, noisy_new, same = (
            rng.normal(size=2048).astype(np.float64) for _ in range(3)
        )
        state = {"a.noisy": noisy_new, "b.same": same}
        base = {"a.noisy": noisy_old, "b.same": same.copy()}
        payload = _xor_payload(state, base)
        assert header_of(payload, base).all()  # every plane shipped deflated
        # The unchanged half travels as zero runs: about half of dense.
        assert len(payload) < 0.56 * dense_nbytes(state)
        assert_bit_identical(_xor_restore(payload, base), state)

    def test_a_mixed_width_state_roundtrips(self):
        base = {
            "counter": np.arange(300, dtype=np.int64) * 1_000_003,
            "weight": np.random.default_rng(5).normal(size=(40, 30)).astype(np.float32),
        }
        state = {
            "counter": base["counter"] + 7,
            "weight": base["weight"] + np.float32(1e-3),
        }
        payload = _xor_payload(state, base)
        assert payload and len(header_of(payload, base)) == 8
        assert_bit_identical(_xor_restore(payload, base), state)


class TestDeltaDecodeFailsClosed:
    """The uplink payload arrives from a worker or a peer: only
    ``("xor", bytes-like)`` and ``("dense", dict)`` decode."""

    @pytest.mark.parametrize(
        "kind, form",
        [
            ("dense", lambda xor: ("dense", [1, 2])),
            ("dense", lambda xor: ("dense", xor)),
            ("zip", lambda xor: ("zip", xor)),
            ("xor", lambda xor: ("xor", None)),
            ("xor", lambda xor: ("xor", "not bytes")),
            (None, lambda xor: None),
        ],
        ids=["dense-list", "dense-bytes", "zip-xor-bytes", "xor-none", "xor-str", "none"],
    )
    def test_rejected_with_a_value_error_naming_the_kind(self, kind, form):
        base = make_state(1)
        xor = _xor_payload(nearby_state(base), base)
        assert xor
        encoded = codec_module.EncodedUpdate(codec="delta", payload=form(xor), nbytes=0)
        with pytest.raises(ValueError, match=re.escape(f"kind {kind!r}")):
            DeltaCodec().decode(encoded, base)


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
            assert len(payload) <= len(reference_xor_payload(state, base))
            assert_bit_identical(_xor_restore(payload, base), state)
            sizes.append(len(payload))
        # The simulation's uplink meter read these very payloads.
        assert sim.transport_report()["bytes_up"] == sum(sizes[:24])
        ratio = sum(dense_nbytes(state) for state, _ in pairs) / sum(sizes)
        # Measured: 1.2319 (the level-1, probe-every-plane reference: 1.2101;
        # the single-stream one: 1.2028).  Six of eight planes are stored, so
        # this moves only with zlib's run-length output on planes 0-2, which
        # stock zlib has written alike for years; a deflate build whose
        # output on them differs by a tenth moves it by about 0.006.
        assert ratio >= 1.23


# ----------------------------------------------------------------------
# raw and delta over every dtype, IEEE special and structure change
# ----------------------------------------------------------------------
CODEC_SPECS = ("raw", "delta")
DTYPE_IDS = [np.dtype(dtype).name for dtype in DTYPES]
# The special floats, plus a quiet NaN whose payload bits are not numpy's
# default: a codec that re-derives a float instead of moving its bytes
# turns it into the canonical NaN.
NAN_WITH_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
SPECIAL_CASES = SPECIALS + (NAN_WITH_PAYLOAD,)
SPECIAL_IDS = ["nan", "inf", "-inf", "-0.0", "5e-324", "1e-45", "6e-8", "nan-payload"]


def state_of(dtype, seed=0):
    """One array of ``dtype`` for every shape in ``SHAPES``."""
    rng = np.random.default_rng(seed)
    return {
        f"t{i}": np.array(_draw(rng, dtype, shape), dtype=dtype).reshape(shape)
        for i, shape in enumerate(SHAPES)
    }


def perturbed(state, seed=1):
    """``state`` as one round of training leaves it: floats nudged,
    about a tenth of the integer / bool elements with flipped bits."""
    rng = np.random.default_rng(seed)
    out = {}
    for key, value in state.items():
        if np.issubdtype(value.dtype, np.floating):
            noise = rng.normal(0.0, 1e-3, size=value.shape).astype(value.dtype)
            out[key] = np.array(value + noise, dtype=value.dtype)
        else:
            flips = _draw(rng, value.dtype.type, value.shape)
            mask = rng.random(size=value.shape) < 0.1
            out[key] = np.array(value ^ (flips * mask), dtype=value.dtype)
    return out


class TestLosslessOverEveryDtype:
    @pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
    @pytest.mark.parametrize("spec", CODEC_SPECS)
    def test_roundtrip_is_bit_identical(self, spec, dtype):
        basis = state_of(dtype)
        state = perturbed(basis)
        codec = get_codec(spec)
        encoded = codec.encode(state, basis)
        assert encoded.codec == spec
        assert_bit_identical(codec.decode(encoded, basis), state)

    @pytest.mark.parametrize("special", SPECIAL_CASES, ids=SPECIAL_IDS)
    @pytest.mark.parametrize("spec", CODEC_SPECS)
    def test_ieee_specials_travel_bit_for_bit(self, spec, special):
        basis = make_state(3)
        state = nearby_state(basis, scale=1e-4)
        for key in ("layer0.weight", "head.weight"):
            flat = state[key].reshape(-1)
            flat[::5] = special
        codec = get_codec(spec)
        assert_bit_identical(codec.decode(codec.encode(state, basis), basis), state)

    @pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
    def test_raw_ships_the_state_itself_at_its_dense_size(self, dtype):
        state = state_of(dtype, seed=2)
        encoded = get_codec("raw").encode(state, state_of(dtype))
        assert encoded.payload is state  # no copy on the status-quo path
        assert encoded.nbytes == dense_nbytes(state)
        assert encoded.nbytes == sum(value.nbytes for value in state.values())

    @pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
    def test_delta_of_unrelated_states_never_exceeds_dense(self, dtype):
        basis = state_of(dtype, seed=5)
        state = state_of(dtype, seed=6)
        codec = get_codec("delta")
        encoded = codec.encode(state, basis)
        assert encoded.nbytes <= dense_nbytes(state)
        assert_bit_identical(codec.decode(encoded, basis), state)

    @pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
    def test_broadcast_restores_it_from_a_cold_warm_or_current_cache(self, dtype):
        base = state_of(dtype)
        state = perturbed(base)
        version, cached = state_version(state), state_version(base)
        forms = set()
        for cache in ((None, None), (cached, base), (version, state)):
            wire = encode_broadcast(state, version, *cache)
            forms.add(type(wire))
            decoded, decoded_version = decode_broadcast(wire, *cache)
            assert decoded_version == version
            assert_bit_identical(decoded, state)
        assert BroadcastFull in forms and BroadcastRef in forms


class TestCodecContract:
    @pytest.mark.parametrize("spec", CODEC_SPECS)
    def test_encoding_is_deterministic(self, spec):
        basis = make_state(3)
        state = nearby_state(basis)
        codec = get_codec(spec)
        first, second = codec.encode(state, basis), codec.encode(state, basis)
        assert first.nbytes == second.nbytes
        if spec == "delta":
            assert first.payload == second.payload  # ("xor", bytes)
        else:
            assert_bit_identical(first.payload, second.payload)

    @pytest.mark.parametrize("spec", CODEC_SPECS)
    def test_neither_the_state_nor_the_basis_is_mutated(self, spec):
        basis = make_state(3)
        state = nearby_state(basis)
        basis_copy = {key: value.copy() for key, value in basis.items()}
        state_copy = {key: value.copy() for key, value in state.items()}
        codec = get_codec(spec)
        codec.decode(codec.encode(state, basis), basis)
        assert_bit_identical(basis, basis_copy)
        assert_bit_identical(state, state_copy)

    def test_delta_decodes_into_fresh_writable_arrays(self):
        basis = make_state(3)
        state = nearby_state(basis)
        codec = get_codec("delta")
        encoded = codec.encode(state, basis)
        assert encoded.payload[0] == "xor"
        decoded = codec.decode(encoded, basis)
        for key, value in decoded.items():
            assert value.flags.writeable
            assert not np.shares_memory(value, basis[key])
            assert not np.shares_memory(value, state[key])

    @pytest.mark.parametrize(
        "change", ["no basis", "missing key", "extra key", "dtype", "shape"]
    )
    def test_delta_ships_dense_when_the_basis_does_not_fit(self, change):
        state = make_state(3)
        basis = nearby_state(state)
        if change == "no basis":
            basis = None
        elif change == "missing key":
            del basis["head.weight"]
        elif change == "extra key":
            basis["extra"] = np.zeros(3)
        elif change == "dtype":
            basis["layer0.bias"] = basis["layer0.bias"].astype(np.float32)
        else:
            basis["layer0.bias"] = np.zeros(17)
        codec = get_codec("delta")
        encoded = codec.encode(state, basis)
        kind, payload = encoded.payload
        assert kind == "dense" and payload is state
        assert encoded.nbytes == dense_nbytes(state)
        assert_bit_identical(codec.decode(encoded, basis), state)

    def test_delta_of_an_unchanged_state_is_tiny(self):
        state = mlp_state(0)
        encoded = get_codec("delta").encode(state, state)
        assert encoded.payload[0] == "xor"
        # Eight all-zero planes deflate to almost nothing.
        assert encoded.nbytes < dense_nbytes(state) // 100

    def test_delta_grows_with_the_perturbation(self):
        basis = mlp_state(0)
        codec = get_codec("delta")
        sizes = [
            codec.encode(nearby_state(basis, scale=scale), basis).nbytes
            for scale in (1e-12, 1e-6, 1e-2)
        ]
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]

    def test_an_unknown_name_lists_the_two_codecs(self):
        with pytest.raises(ValueError, match=r"available: \['delta', 'raw'\]"):
            get_codec("topk:0.05")


class TestEncodeTrainedState:
    """The task-side half of the codec every ``TrainTask`` return takes."""

    @pytest.mark.parametrize("with_basis", [False, True])
    def test_raw_returns_the_dense_state(self, with_basis):
        basis = make_state(3)
        state = nearby_state(basis)
        out, update, nbytes = encode_trained_state(
            "raw", state, basis if with_basis else None
        )
        assert out is state and update is None
        assert nbytes == dense_nbytes(state)

    def test_delta_without_a_basis_returns_the_dense_state(self):
        state = make_state(3)
        out, update, nbytes = encode_trained_state("delta", state, None)
        assert out is state and update is None
        assert nbytes == dense_nbytes(state)

    def test_delta_nulls_the_state_and_the_result_resolves_it(self):
        basis = make_state(3)
        state = nearby_state(basis, scale=1e-6)
        out, update, nbytes = encode_trained_state("delta", state, basis)
        assert out is None and update.codec == "delta"
        assert nbytes == update.nbytes < dense_nbytes(state)
        result = TrainResult(
            task_id=4, state=out, history=TrainHistory(), rng_state={},
            update=update, update_nbytes=nbytes,
        )
        assert_bit_identical(result.resolve_state(basis), state)

    def test_an_encoded_result_needs_the_basis(self):
        basis = make_state(3)
        _, update, _ = encode_trained_state("delta", nearby_state(basis), basis)
        result = TrainResult(
            task_id=4, state=None, history=TrainHistory(), rng_state={}, update=update
        )
        with pytest.raises(ValueError, match="needs the broadcast basis"):
            result.resolve_state()

    def test_a_result_with_neither_state_nor_update_raises(self):
        result = TrainResult(task_id=4, state=None, history=TrainHistory(), rng_state={})
        with pytest.raises(ValueError, match="neither a state nor an update"):
            result.resolve_state(make_state(3))

    @pytest.mark.parametrize("spec", ["topk:0.05", "quant:8", "ef:topk:0.05"])
    def test_a_deleted_codec_name_is_rejected(self, spec):
        basis = make_state(3)
        with pytest.raises(ValueError, match="unknown codec"):
            encode_trained_state(spec, nearby_state(basis), basis)


class TestUpdatesOverTheWire:
    """An encoded return crosses the pool's / cluster's framing and still
    decodes bit-identically against the basis the receiver holds."""

    @pytest.mark.parametrize("spec", CODEC_SPECS)
    def test_train_result_roundtrips_through_the_frame(self, spec):
        basis = make_state(3)
        state = nearby_state(basis, scale=1e-6)
        out, update, nbytes = encode_trained_state(spec, state, basis)
        result = TrainResult(
            task_id=("client", 2), state=out, history=TrainHistory(),
            rng_state={}, update=update, update_nbytes=nbytes,
        )
        received, sent, read, _ = wire_roundtrip(result)
        assert sent == read
        assert received.update_nbytes == nbytes
        assert_bit_identical(received.resolve_state(basis), state)
