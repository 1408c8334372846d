"""Checkpoint files: round trips, determinism and a reader that fails closed.

A checkpoint is the preamble (magic, version, header length), a JSON
header of ``[name, dtype, shape]`` entries and the arrays' raw bytes.
Generated states must come back with the same names in the same order
and the same dtype, shape and bytes; every prefix, extension, flipped
bit or forged header of a checkpoint must give :class:`ValueError` or a
state the file's bytes could hold — never another exception.

CI runs the generated classes a second time under
``--hypothesis-profile=soak``.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nn import SGD, Tensor, load_state_dict, losses, no_grad, save_state_dict
from repro.nn.models import MLP, MODEL_BUILDERS, build_model
from repro.nn.serialization import _DTYPES, _MAGIC, _PREAMBLE, _VERSION, _decode_state

from ..conftest import generated
from .test_models import PAPER_INPUT

DTYPES = ["<f4", "<f8", "<i8", "|u1", "|b1"]


@st.composite
def arrays(draw):
    """A small array of one of the model dtypes: 0-d, empty or not, and
    C-contiguous, transposed or strided.  Float bits are arbitrary, so
    NaN payloads and signed zeros come along."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    stored = shape[::-1] if layout == "transposed" else shape
    if layout == "strided" and shape:
        stored = shape[:-1] + (2 * shape[-1],)
    count = int(np.prod(stored))
    raw = draw(st.binary(min_size=count * dtype.itemsize, max_size=count * dtype.itemsize))
    if dtype == np.bool_:
        array = (np.frombuffer(raw, dtype=np.uint8) & 1).astype(bool).reshape(stored)
    else:
        array = np.frombuffer(raw, dtype=dtype).reshape(stored)
    if layout == "transposed":
        array = array.T
    elif layout == "strided" and shape:
        array = array[..., ::2]
    assert array.shape == shape
    return array


states = st.dictionaries(st.text(max_size=6), arrays(), max_size=5)


def assert_same_state(actual, expected):
    assert list(actual) == list(expected)
    for name, want in expected.items():
        got = actual[name]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


def checkpoint(tmp_path_factory, state):
    path = tmp_path_factory.mktemp("ckpt") / "state.ckpt"
    save_state_dict(state, str(path))
    return path


def forge(entries, body=b""):
    """A checkpoint file with a header of the caller's choosing."""
    header = json.dumps(entries).encode()
    return _PREAMBLE.pack(_MAGIC, _VERSION, len(header)) + header + body


class TestRoundTripByGeneration:
    @given(state=states)
    @generated(150)
    def test_dtype_shape_bytes_and_order_come_back(self, tmp_path_factory, state):
        path = checkpoint(tmp_path_factory, state)
        loaded = load_state_dict(str(path))
        assert_same_state(loaded, state)
        for array in loaded.values():
            assert array.flags.c_contiguous and array.flags.writeable

    @given(state=states)
    @generated(50)
    def test_one_state_saves_to_one_byte_string(self, tmp_path_factory, state):
        first = checkpoint(tmp_path_factory, state).read_bytes()
        copy = {name: array.copy() for name, array in state.items()}
        assert checkpoint(tmp_path_factory, copy).read_bytes() == first


class TestReaderFailsClosed:
    """Only ``ValueError`` escapes the reader, and whatever it accepts fits
    in the bytes it was given."""

    @staticmethod
    def decode_or_reject(data):
        try:
            state = _decode_state(bytes(data))
        except ValueError:
            return None
        assert isinstance(state, dict)
        for array in state.values():
            assert array.dtype.str in _DTYPES
        assert sum(array.nbytes for array in state.values()) <= len(data)
        return state

    @given(state=states, data=st.data())
    @generated(150)
    def test_mutated_checkpoints(self, tmp_path_factory, state, data):
        blob = checkpoint(tmp_path_factory, state).read_bytes()
        assert_same_state(self.decode_or_reject(blob), state)
        for cut in range(len(blob)):
            assert self.decode_or_reject(blob[:cut]) is None, cut
        tail = data.draw(st.binary(min_size=1, max_size=9), label="tail")
        assert self.decode_or_reject(blob + tail) is None
        flipped = bytearray(blob)
        at = data.draw(st.integers(0, len(blob) - 1), label="flip at")
        flipped[at] ^= data.draw(st.integers(1, 255), label="flip bits")
        self.decode_or_reject(flipped)
        _, _, length = _PREAMBLE.unpack_from(blob)
        lie = data.draw(st.integers(0, 2**32 - 1), label="header length")
        forged = bytearray(blob)
        forged[_PREAMBLE.size - 4 : _PREAMBLE.size] = lie.to_bytes(4, "little")
        assert (self.decode_or_reject(forged) is None) == (lie != length)

    @given(state=states.filter(bool), data=st.data())
    @generated(150)
    def test_header_lies(self, state, data):
        entries = [[name, array.dtype.str, list(array.shape)] for name, array in state.items()]
        body = b"".join(array.tobytes() for array in state.values())
        victim = data.draw(st.integers(0, len(entries) - 1), label="entry")
        lie = data.draw(
            st.sampled_from(
                ["negative", "grow", "big-endian", "object", "string", "unknown", "duplicate"]
            ),
            label="lie",
        )
        name, dtype, shape = entries[victim]
        if lie == "negative":
            entries[victim][2] = [-1] + shape
        elif lie == "grow":
            entries[victim][2] = [dim + 1 for dim in shape] or [2]
        elif lie == "big-endian":
            entries[victim][1] = dtype.replace("<", ">").replace("|", ">")
        elif lie == "object":
            entries[victim][1] = "|O"
        elif lie == "string":
            entries[victim][1] = "<U2"
        elif lie == "unknown":
            entries[victim][1] = data.draw(st.text(max_size=5), label="dtype")
        else:
            entries.append(list(entries[victim]))
            body += state[name].tobytes()
        accepted = self.decode_or_reject(forge(entries, body))
        if lie != "unknown" or entries[victim][1] not in _DTYPES:
            assert accepted is None
        if lie == "negative":  # refused as a shape, not by its byte count
            with pytest.raises(ValueError, match="shape"):
                _decode_state(forge(entries, body))

    @given(blob=st.binary(max_size=300))
    @generated(150)
    def test_arbitrary_bytes(self, blob):
        self.decode_or_reject(blob)
        self.decode_or_reject(_PREAMBLE.pack(_MAGIC, _VERSION, len(blob)) + blob)

    def test_a_nested_header_is_refused(self):
        deep = b"[" * 100_000 + b"]" * 100_000
        with pytest.raises(ValueError, match="nests too deeply"):
            _decode_state(_PREAMBLE.pack(_MAGIC, _VERSION, len(deep)) + deep)

    def test_a_size_claim_allocates_nothing(self):
        blob = forge([["w", "<f8", [2**31, 2**31]]], bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="runs past the end"):
                _decode_state(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_an_npz_archive_is_not_a_checkpoint(self, tmp_path, rng):
        path = tmp_path / "old.npz"
        np.savez(path, w=rng.normal(size=(3,)))
        with pytest.raises(ValueError, match="bad magic"):
            load_state_dict(str(path))


class TestStateDictPersistence:
    def test_file_layout(self, tmp_path):
        state = {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "n": np.int64(7)}
        path = tmp_path / "state.ckpt"
        save_state_dict(state, str(path))
        data = path.read_bytes()
        magic, version, length = _PREAMBLE.unpack_from(data)
        assert (magic, version) == (b"RPROCKPT", 1)
        header = data[_PREAMBLE.size : _PREAMBLE.size + length]
        assert json.loads(header) == [["w", "<f4", [2, 3]], ["n", "<i8", []]]
        assert data[_PREAMBLE.size + length :] == state["w"].tobytes() + state["n"].tobytes()

    def test_writes_exactly_the_path_given(self, tmp_path, rng):
        path = tmp_path / "ckpt"
        save_state_dict({"x": rng.normal(size=(2,))}, str(path))
        assert [child.name for child in tmp_path.iterdir()] == ["ckpt"]

    def test_big_endian_arrays_are_stored_little_endian(self, tmp_path):
        state = {"x": np.arange(4, dtype=">i4")}
        path = str(tmp_path / "ckpt")
        save_state_dict(state, path)
        loaded = load_state_dict(path)["x"]
        assert loaded.dtype.str == "<i4"
        np.testing.assert_array_equal(loaded, state["x"])

    def test_a_non_numeric_array_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="not numeric"):
            save_state_dict({"x": np.array(["a"], dtype=object)}, str(tmp_path / "ckpt"))

    def test_creates_directories(self, tmp_path, rng):
        path = str(tmp_path / "deep" / "nested" / "ckpt")
        save_state_dict({"x": rng.normal(size=(2,))}, path)
        assert load_state_dict(path)


class TestModelPersistence:
    def test_model_roundtrip(self, tmp_path, rng):
        model = MLP(8, 3, rng)
        path = str(tmp_path / "model")
        save_state_dict(model.state_dict(), path)
        other = MLP(8, 3, np.random.default_rng(999))
        other.load_state_dict(load_state_dict(path))
        for (_, pa), (_, pb) in zip(model.named_parameters(), other.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data)

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_every_registered_model_comes_back_bit_for_bit(self, tmp_path, name):
        # One SGD step in train mode first, so the ResNets' batch-norm
        # running buffers are not at their initial values either.
        channels, size = PAPER_INPUT[name]
        rng = np.random.default_rng(0)
        model = build_model(name, 10, rng, in_channels=channels, image_size=size)
        x = Tensor(rng.normal(size=(2, channels, size, size)))
        losses.cross_entropy(model(x), np.array([0, 1])).backward()
        SGD(model.parameters(), lr=0.01).step()
        path = str(tmp_path / name)
        save_state_dict(model.state_dict(), path)

        other = build_model(name, 10, np.random.default_rng(1), in_channels=channels,
                            image_size=size)
        other.load_state_dict(load_state_dict(path))
        expected, loaded = model.state_dict(), other.state_dict()
        assert list(loaded) == list(expected)
        for key, value in expected.items():
            assert loaded[key].dtype == value.dtype
            np.testing.assert_array_equal(loaded[key], value)
        model.eval()
        other.eval()
        with no_grad():
            np.testing.assert_array_equal(other(x).data, model(x).data)
