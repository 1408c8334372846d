"""Independent reference for the lossy update codecs.

``repro.runtime.codec``'s ``TopKCodec`` / ``QuantCodec`` compress, price
and reconstruct their own payload, and ``ef:<lossy>`` is the same encode
with the residual term switched on — so "``ef:`` without a residual
equals its inner codec" no longer compares two implementations.  This is
the lossy path as it stood before that merge (PR 22's
``repro/federated/compression.py`` and the ``_LossyDeltaCodec`` /
``TopKCodec`` / ``QuantCodec`` / ``ErrorFeedbackCodec`` classes of
``repro/runtime/codec.py``, verbatim apart from the imports, which were
function-local, and ``ErrorFeedbackCodec.__init__`` resolving its inner
spec through :func:`reference_codec` instead of the library's registry):
compressors that know the payload, codecs that wrap them, a feedback
class between the two.  ``tests/runtime/test_codec_reference.py``
compares the library against it bit for bit — bytes priced, states
decoded, residuals carried — over generated states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.codec import EncodedUpdate, StateDict, UpdateCodec, dense_nbytes

_INDEX_BYTES = 4  # uint32 indices on the wire
_FLOAT_BYTES = 4  # float32 values on the wire


@dataclass
class CompressedState:
    """A compressed model state plus exact wire-size accounting."""

    payload: Dict[str, object]
    scheme: str
    payload_bytes: int
    original_bytes: int

    @property
    def compression_ratio(self) -> float:
        """original / compressed — higher is better."""
        if self.payload_bytes == 0:
            raise ValueError("empty payload has no meaningful ratio")
        return self.original_bytes / self.payload_bytes


class Compressor:
    """Interface: compress a state; decompress back to dense arrays."""

    def compress(self, state: StateDict) -> CompressedState:
        raise NotImplementedError

    def decompress(self, compressed: CompressedState) -> StateDict:
        raise NotImplementedError

    @staticmethod
    def _dense_bytes(state: StateDict) -> int:
        # Wire format for the uncompressed baseline is float32.
        return sum(value.size * _FLOAT_BYTES for value in state.values())


class TopKCompressor(Compressor):
    """Keep the ``fraction`` largest-magnitude entries of every tensor.

    At least one entry per tensor is always kept, so tiny tensors (biases)
    survive. The payload stores flat indices and float32 values.
    """

    def __init__(self, fraction: float) -> None:
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction

    def compress(self, state: StateDict) -> CompressedState:
        payload: Dict[str, object] = {}
        total_bytes = 0
        for key, value in state.items():
            flat = value.ravel()
            k = max(1, int(round(self.fraction * flat.size)))
            top = np.argpartition(np.abs(flat), -k)[-k:]
            top.sort()
            payload[key] = {
                "shape": value.shape,
                "indices": top.astype(np.uint32),
                "values": flat[top].astype(np.float32),
            }
            total_bytes += k * (_INDEX_BYTES + _FLOAT_BYTES)
        return CompressedState(
            payload=payload,
            scheme=f"topk({self.fraction})",
            payload_bytes=total_bytes,
            original_bytes=self._dense_bytes(state),
        )

    def decompress(self, compressed: CompressedState) -> StateDict:
        state: StateDict = {}
        for key, entry in compressed.payload.items():
            dense = np.zeros(int(np.prod(entry["shape"])), dtype=np.float64)
            dense[entry["indices"]] = entry["values"].astype(np.float64)
            state[key] = dense.reshape(entry["shape"])
        return state


class QuantizationCompressor(Compressor):
    """Uniform ``num_bits``-bit quantization with per-tensor codebooks.

    Each tensor is mapped to ``2^b`` evenly spaced levels between its min
    and max; the payload carries the packed level indices plus the two
    float32 codebook endpoints. Worst-case error per entry is half a level
    width.
    """

    def __init__(self, num_bits: int = 8) -> None:
        if not 1 <= num_bits <= 16:
            raise ValueError(f"num_bits must be in [1, 16], got {num_bits}")
        self.num_bits = num_bits

    def compress(self, state: StateDict) -> CompressedState:
        levels = (1 << self.num_bits) - 1
        payload: Dict[str, object] = {}
        total_bytes = 0
        for key, value in state.items():
            low = float(value.min())
            high = float(value.max())
            span = high - low
            if span == 0.0:
                codes = np.zeros(value.shape, dtype=np.uint16)
            else:
                codes = np.round((value - low) / span * levels).astype(np.uint16)
            payload[key] = {"low": low, "high": high, "codes": codes}
            total_bytes += int(np.ceil(value.size * self.num_bits / 8)) + 2 * _FLOAT_BYTES
        return CompressedState(
            payload=payload,
            scheme=f"quant{self.num_bits}",
            payload_bytes=total_bytes,
            original_bytes=self._dense_bytes(state),
        )

    def decompress(self, compressed: CompressedState) -> StateDict:
        levels = (1 << self.num_bits) - 1
        state: StateDict = {}
        for key, entry in compressed.payload.items():
            low, high = entry["low"], entry["high"]
            span = high - low
            if span == 0.0:
                state[key] = np.full(entry["codes"].shape, low, dtype=np.float64)
            else:
                state[key] = entry["codes"].astype(np.float64) / levels * span + low
        return state


class IdentityCompressor(Compressor):
    """No-op compressor — the dense-upload baseline for benchmarks."""

    def compress(self, state: StateDict) -> CompressedState:
        payload = {key: value.astype(np.float32) for key, value in state.items()}
        dense = self._dense_bytes(state)
        return CompressedState(
            payload=payload, scheme="identity",
            payload_bytes=dense, original_bytes=dense,
        )

    def decompress(self, compressed: CompressedState) -> StateDict:
        return {
            key: value.astype(np.float64)
            for key, value in compressed.payload.items()
        }


class ErrorFeedback:
    """Client-side residual memory around a lossy compressor.

    Each round: compress ``update + residual``; the new residual is
    whatever the compressor dropped. Guarantees the *cumulative*
    transmitted signal tracks the cumulative true signal — the standard
    fix for top-k's bias.
    """

    def __init__(self, compressor: Compressor) -> None:
        if isinstance(compressor, IdentityCompressor):
            raise ValueError("error feedback around a lossless compressor is pointless")
        self.compressor = compressor
        self._residual: StateDict = {}

    def compress(self, update: StateDict) -> Tuple[CompressedState, StateDict]:
        """Returns (wire payload, what the server will reconstruct)."""
        if self._residual:
            if set(self._residual) != set(update):
                raise KeyError("update structure changed between rounds")
            corrected = {
                key: update[key] + self._residual[key] for key in update
            }
        else:
            corrected = {key: value.copy() for key, value in update.items()}
        compressed = self.compressor.compress(corrected)
        reconstructed = self.compressor.decompress(compressed)
        self._residual = {
            key: corrected[key] - reconstructed[key] for key in corrected
        }
        return compressed, reconstructed

    @property
    def residual_norm(self) -> float:
        """L2 norm of the carried-over compression error."""
        if not self._residual:
            return 0.0
        return float(
            np.sqrt(sum(float((v ** 2).sum()) for v in self._residual.values()))
        )

    def reset(self) -> None:
        self._residual = {}


def _split_lossy_keys(state: StateDict) -> Tuple[List[str], List[str]]:
    """Float arrays take the lossy path; integer buffers (step counters,
    BN sample counts) must survive exactly and ship dense."""
    lossy = [k for k, v in state.items() if np.issubdtype(v.dtype, np.floating)]
    exact = [k for k in state if k not in lossy]
    return lossy, exact


class _LossyDeltaCodec(UpdateCodec):
    """Shared shape of the lossy codecs: compress ``local − basis``.

    Float entries take the configured delta compressor
    (:mod:`repro.federated.compression`); non-float entries (step
    counters, BN sample counts) must survive exactly and ship dense.
    Reconstruction is ``basis + decompressed_delta`` in the basis dtype.
    Deterministic: compression and values are pure functions of the
    update, so runs reproduce per seed on every backend.
    """

    lossless = False
    _compressor = None  # set by subclasses

    def _narrow(self, compressed) -> None:
        """Optional post-compress hook to shrink the wire payload."""

    def encode(self, state: StateDict, basis: StateDict) -> EncodedUpdate:
        lossy, exact = _split_lossy_keys(state)
        delta = {key: state[key] - basis[key] for key in lossy}
        compressed = self._compressor.compress(delta) if delta else None
        if compressed is not None:
            self._narrow(compressed)
        exact_part = {key: state[key] for key in exact}
        nbytes = (compressed.payload_bytes if compressed else 0) + dense_nbytes(
            exact_part
        )
        return EncodedUpdate(
            codec=self.spec, payload=(compressed, exact_part), nbytes=nbytes
        )

    def decode(self, encoded: EncodedUpdate, basis: StateDict) -> StateDict:
        compressed, exact_part = encoded.payload
        state = dict(exact_part)
        if compressed is not None:
            for key, delta in self._compressor.decompress(compressed).items():
                base = basis[key]
                state[key] = base + np.asarray(delta, dtype=base.dtype)
        return state


class TopKCodec(_LossyDeltaCodec):
    """Top-k sparsified delta: ``topk:<fraction>``.

    Keeps the ``fraction`` largest-magnitude entries of ``local − basis``
    per tensor (at least one, so biases survive) and reconstructs
    ``basis + sparse_delta``.
    """

    def __init__(self, fraction: float) -> None:
        self._compressor = TopKCompressor(fraction)
        self.fraction = fraction
        self.spec = f"topk:{fraction:g}"


class QuantCodec(_LossyDeltaCodec):
    """Uniformly quantized delta: ``quant:<bits>``.

    QSGD-style uniform b-bit quantization of ``local − basis`` with
    per-tensor codebooks; reconstruction is ``basis + dequantized``.
    """

    def __init__(self, num_bits: int) -> None:
        self._compressor = QuantizationCompressor(num_bits)
        self.num_bits = num_bits
        self.spec = f"quant:{num_bits}"

    def _narrow(self, compressed) -> None:
        # Ship the codes at their actual width: for <=8 bits the pipe
        # should carry 1 byte per entry, not uint16's 2 (metering already
        # prices the logical bit width via payload_bytes; uint8 codes
        # dequantize identically — values, not widths).
        if self.num_bits <= 8:
            for entry in compressed.payload.values():
                entry["codes"] = entry["codes"].astype(np.uint8)


class ErrorFeedbackCodec(UpdateCodec):
    """``ef:<lossy-spec>`` — client-side error feedback around a lossy codec.

    Wraps :class:`~repro.federated.compression.ErrorFeedback` around the
    inner codec's compressor: each round the client adds the residual its
    *previous* compression dropped to this round's float delta before
    compressing, so the cumulative transmitted signal tracks the
    cumulative true signal (the standard fix for top-k's bias; Seide et
    al., Karimireddy et al.).  The wire format is the inner codec's —
    the server decodes ``ef:topk:0.05`` exactly as it would
    ``topk:0.05`` — only the *client-side* pre-compression correction
    changes.

    The residual is per-client state, not a codec attribute: codec
    instances are shared process-wide (and encode runs inside worker
    processes), so the residual travels with the task
    (``TrainTask.residual`` in, ``TrainResult.residual`` out) and lives
    on the :class:`~repro.federated.client.Client` between rounds.  It
    never crosses the simulated FL wire — transport metering excludes
    it by construction (it is not a model-state task field).

    A residual whose structure no longer matches the current delta
    (model architecture changed, federation reinitialised) is silently
    dropped and feedback restarts from zero — the same behaviour as a
    fresh client.
    """

    lossless = False

    def __init__(self, inner_spec: str) -> None:
        inner = reference_codec(inner_spec)
        if not isinstance(inner, _LossyDeltaCodec):
            raise ValueError(
                f"ef wraps lossy delta codecs (topk/quant), got {inner_spec!r}"
            )
        self.inner = inner
        self.spec = f"ef:{inner.spec}"

    def encode_with_residual(
        self,
        state: StateDict,
        basis: StateDict,
        residual: Optional[StateDict] = None,
    ) -> Tuple[EncodedUpdate, Optional[StateDict]]:
        """Encode with feedback: ``(encoded update, residual to carry)``."""
        lossy, exact = _split_lossy_keys(state)
        delta = {key: state[key] - basis[key] for key in lossy}
        compressed = None
        new_residual = residual
        if delta:
            feedback = ErrorFeedback(self.inner._compressor)
            if residual and set(residual) == set(delta):
                feedback._residual = residual
            compressed, _ = feedback.compress(delta)
            self.inner._narrow(compressed)
            new_residual = feedback._residual
        exact_part = {key: state[key] for key in exact}
        nbytes = (compressed.payload_bytes if compressed else 0) + dense_nbytes(
            exact_part
        )
        return (
            EncodedUpdate(
                codec=self.spec, payload=(compressed, exact_part), nbytes=nbytes
            ),
            new_residual,
        )

    def encode(self, state: StateDict, basis: StateDict) -> EncodedUpdate:
        # Residual-free entry point (first round / callers without client
        # state): feedback contributes nothing, output equals the inner
        # codec's bit for bit.
        return self.encode_with_residual(state, basis, None)[0]

    def decode(self, encoded: EncodedUpdate, basis: StateDict) -> StateDict:
        compressed, exact_part = encoded.payload
        state = dict(exact_part)
        if compressed is not None:
            for key, delta in self.inner._compressor.decompress(compressed).items():
                base = basis[key]
                state[key] = base + np.asarray(delta, dtype=base.dtype)
        return state


def reference_codec(spec: str) -> UpdateCodec:
    """The pre-merge codec for a lossy spec (``topk:<f>``, ``quant:<b>``,
    ``ef:<lossy>``) — the three lossy factories, without the registry."""
    name, _, arg = spec.partition(":")
    if name == "topk":
        return TopKCodec(float(arg))
    if name == "quant":
        return QuantCodec(int(arg))
    if name == "ef":
        return ErrorFeedbackCodec(arg)
    raise ValueError(f"not a lossy codec spec: {spec!r}")
