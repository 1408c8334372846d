"""The lossy codecs against the pre-merge code, by generation.

``tests/reference_codecs.py`` keeps the lossy path as it stood before
the codecs absorbed their compressors (compressor classes, a feedback
class, codecs wrapping both).  For generated states, bases, fractions,
bit widths and residuals the library must price the same bytes, ship the
same payload entries, decode the same state and carry the same residual
— bit for bit, round after round — and fail where the reference fails
(an empty float tensor has no top entry and no min/max).

CI runs this a second time under ``--hypothesis-profile=soak``.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.runtime.codec import get_codec

from ..conftest import generated
from ..reference_codecs import reference_codec

FLOATS = (np.float64, np.float32)
INTEGERS = (np.int64, np.int32, np.uint8)
SHAPES = ((), (1,), (1, 1), (2,), (7,), (37,), (3, 5), (2, 3, 4), (129,))
EMPTY_SHAPES = ((0,), (3, 0))  # a float one makes either family raise
KEYS = st.text("abw.01", min_size=1, max_size=5)


@st.composite
def lossy_specs(draw):
    """An inner spec, over the whole argument range of both families."""
    if draw(st.booleans()):
        bits = draw(st.integers(1, 16))
        return f"quant:{bits}"
    fraction = draw(
        st.one_of(
            st.sampled_from([1.0, 0.5, 0.05, 0.01]),
            st.floats(1e-4, 1.0, allow_nan=False),
        )
    )
    return f"topk:{fraction!r}"


@st.composite
def rounds_of_states(draw):
    """``(basis, [state per round])`` of one structure: 0-6 keys over
    float32/float64 tensors and integer buffers, awkward shapes, the
    states a small drift, a large one or nothing at all from the basis;
    a float key's basis may be the other float width (the codec subtracts
    in the wider one and reconstructs in the basis dtype)."""
    keys = draw(
        st.lists(KEYS, unique=True, min_size=draw(st.sampled_from([0, 1, 2, 3])), max_size=6)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_rounds = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 1e6]))
    basis, states = {}, [{} for _ in range(num_rounds)]
    for key in keys:
        shape = draw(st.sampled_from(SHAPES if draw(st.integers(0, 11)) else EMPTY_SHAPES))
        if draw(st.integers(0, 3)) == 0:
            dtype = draw(st.sampled_from(INTEGERS))
            basis[key] = np.array(rng.integers(0, 200, size=shape), dtype=dtype)
            for state in states:
                state[key] = np.array(rng.integers(0, 200, size=shape), dtype=dtype)
            continue
        dtype = draw(st.sampled_from(FLOATS))
        basis_dtype = dtype if draw(st.integers(0, 4)) else draw(st.sampled_from(FLOATS))
        constant = draw(st.integers(0, 5)) == 0  # zero span: the codebook's other branch
        basis[key] = np.array(rng.normal(0.0, 0.5, size=shape), dtype=basis_dtype)
        for state in states:
            drift = 0.25 if constant else rng.normal(0.0, 1.0, size=shape)
            state[key] = np.array(basis[key] + scale * drift, dtype=dtype)
    return basis, states


@st.composite
def first_residuals(draw, basis):
    """The residual a client walks in with: none, an empty one, one that
    matches the float keys, or one left over from another structure."""
    floats = [k for k, v in basis.items() if np.issubdtype(v.dtype, np.floating)]
    kind = draw(st.sampled_from(["absent", "empty", "matching", "mismatched"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "absent":
        return None
    if kind == "empty":
        return {}
    residual = {key: rng.normal(0.0, 1e-2, size=basis[key].shape) for key in floats}
    if kind == "mismatched":
        residual["no.such.key"] = np.ones(3)
    return residual


def attempt(call):
    """``(result, None)`` or ``(None, exception type)``."""
    try:
        return call(), None
    except (ValueError, IndexError) as exc:
        return None, type(exc)


def assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_states(got, want, what):
    assert (got is None) == (want is None), what
    if want is not None:
        assert list(got) == list(want), what
        for key in want:
            assert_same_bits(got[key], want[key], f"{what}[{key!r}]")


def assert_same_update(got, want):
    """Spec, price and every array of the two encoded updates."""
    assert got.codec == want.codec
    assert got.nbytes == want.nbytes
    (payload, exact), (compressed, want_exact) = got.payload, want.payload
    assert_same_states(exact, want_exact, "exact part")
    assert (payload is None) == (compressed is None)
    if compressed is not None:
        assert list(payload) == list(compressed.payload)
        for key, entry in compressed.payload.items():
            assert list(payload[key]) == list(entry)
            for field, value in entry.items():
                if isinstance(value, np.ndarray):
                    assert_same_bits(payload[key][field], value, f"{key}.{field}")
                else:
                    assert payload[key][field] == value


class TestAgainstThePreMergeCodecs:
    @generated(150)
    @given(data=st.data(), inner=lossy_specs(), rounds=rounds_of_states())
    def test_bytes_states_and_residuals_are_the_reference(self, data, inner, rounds):
        basis, states = rounds
        feedback = data.draw(st.booleans())
        spec = f"ef:{inner}" if feedback else inner
        codec, reference = get_codec(spec), reference_codec(spec)
        assert codec.spec == reference.spec
        residual = want_residual = data.draw(first_residuals(basis))
        for state in states:
            if feedback:
                want, want_error = attempt(
                    lambda: reference.encode_with_residual(state, basis, want_residual)
                )
            else:
                want, want_error = attempt(lambda: (reference.encode(state, basis), None))
            got, got_error = attempt(
                lambda: codec.encode_with_residual(state, basis, residual)
            )
            assert got_error == want_error
            if want_error is not None:
                return
            (encoded, residual), (want_encoded, want_residual) = got, want
            assert_same_update(encoded, want_encoded)
            assert_same_states(residual, want_residual, "residual")
            decoded = codec.decode(encoded, basis)
            assert_same_states(decoded, reference.decode(want_encoded, basis), "decoded")
            for key, value in state.items():
                if not np.issubdtype(value.dtype, np.floating):
                    assert_same_bits(decoded[key], value, f"integer buffer {key!r}")
            # The next round trains from what the server reconstructed.
            basis = decoded

    @generated(60)
    @given(inner=lossy_specs(), rounds=rounds_of_states())
    def test_feedback_without_a_residual_is_the_inner_codec(self, inner, rounds):
        basis, states = rounds
        ef, plain = get_codec(f"ef:{inner}"), get_codec(inner)
        got, got_error = attempt(lambda: ef.encode(states[0], basis))
        want, want_error = attempt(lambda: plain.encode(states[0], basis))
        assert got_error == want_error
        if want_error is None:
            assert got.nbytes == want.nbytes
            assert_same_states(
                ef.decode(got, basis), plain.decode(want, basis), "decoded"
            )
