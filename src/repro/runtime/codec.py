"""Zero-redundancy transport primitives: versions, broadcast wire forms,
and pluggable update codecs.

Federated training is communication-bound in practice: every round the
current pipeline ships the **full global model** inside every
:class:`~repro.runtime.task.TrainTask` and every client ships a **full
state dict** back, even though (a) all of a round's tasks carry the *same*
global state and (b) the aggregators only ever fold what *changed*.  This
module provides the three pieces that remove the redundancy:

Version addressing
    :func:`state_version` computes a stable content hash of a state dict.
    Two states with identical bytes have identical versions, no matter
    which process computed them — so a transport can ask "does the other
    side already hold this exact model?" without shipping it.

Broadcast wire forms (downlink, always lossless)
    :class:`BroadcastFull` / :class:`BroadcastDelta` / :class:`BroadcastRef`
    are the three shapes a model broadcast takes on the wire, chosen
    against the receiver's cached version by :func:`encode_broadcast`:
    a bare ref when the receiver already holds the version (the common
    case inside a round — every client gets the same global state), a
    byte-plane XOR delta against the receiver's cached version when it
    holds the *previous* round's model, and the full state on a cold
    cache (first contact, or a respawned worker).  XOR deltas are
    **lossless by construction**: decoding XORs the same bytes back, so
    the reconstructed state is bit-identical with no float-rounding
    caveats.  The delta travels plane-major and only the byte planes
    deflate shrinks are deflated — the low mantissa planes of a float
    delta are noise (:func:`_xor_payload` has the format and the
    measurements).  :class:`~repro.runtime.pool.WorkerPool` keeps one
    cache per worker slot and drives this protocol transparently.

Update codecs (uplink, pluggable)
    :class:`UpdateCodec` implementations encode a client's *return* —
    ``local − received``, the quantity aggregation folds anyway — against
    the broadcast it trained from.  ``raw`` (dense state, the status quo)
    and ``delta`` (the downlink's byte-plane XOR, bit-identical) are
    lossless; ``topk:<frac>`` and ``quant:<bits>`` are the two standard
    lossy FL compressors
    (deterministic functions of their input, so runs stay reproducible
    per seed on every backend), each the one place that compresses,
    prices and reconstructs its payload, and ``ef:<lossy>`` is either
    with client-side error feedback.  Codecs are resolved by spec string
    via :func:`get_codec`, which is what ``FederationSpec.compression``
    and the CLI's ``--codec`` flag feed.

Encoding happens *inside* :meth:`TrainTask.run` and decoding inside
:meth:`~repro.federated.client.Client.absorb_train_result`, so the exact
same transform runs on every backend — serial results equal pool results
for lossy codecs too, and the worker pool's pipes naturally carry the
encoded payload instead of the dense state.
"""

from __future__ import annotations

import copy
import hashlib
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

# {name: array} model snapshot — mirrors repro.federated.state_math.StateDict
# without importing it (runtime must stay import-light and cycle-free).
StateDict = Dict[str, np.ndarray]

_VERSION_BYTES = 16  # hex chars of the content hash shipped as a ref
# Deltas are latency-sensitive.  Over the planes that get deflated, level 6
# takes 2.6x level 1's time for 7 % fewer bytes there — 0.6 % of a payload
# (16x16 MLP client updates and global deltas).
_ZLIB_LEVEL = 1
_INDEX_BYTES = 4  # top-k: uint32 flat indices on the wire
_FLOAT_BYTES = 4  # top-k values, quantization codebook endpoints: float32


def dense_nbytes(state: StateDict) -> int:
    """Bytes of the dense in-memory encoding (actual dtypes, no pickle)."""
    return int(sum(np.asarray(value).nbytes for value in state.values()))


def state_version(state: StateDict) -> str:
    """Stable content hash of a state dict (its transport *version*).

    Hashes keys, dtypes, shapes and raw bytes, so two states compare
    equal exactly when a bitwise comparison would — across processes,
    platforms and hash randomisation.
    """
    digest = hashlib.sha1()
    for key in sorted(state):
        value = np.ascontiguousarray(state[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(value.dtype).encode("ascii"))
        digest.update(str(value.shape).encode("ascii"))
        digest.update(value.tobytes())
    return digest.hexdigest()[:_VERSION_BYTES]


def same_structure(a: StateDict, b: StateDict) -> bool:
    """Whether two states share keys, dtypes and shapes (delta-compatible)."""
    if set(a) != set(b):
        return False
    return all(
        a[key].dtype == b[key].dtype and a[key].shape == b[key].shape for key in a
    )


# ----------------------------------------------------------------------
# Lossless XOR payloads (shared by BroadcastDelta and DeltaCodec)
# ----------------------------------------------------------------------
def _byte_rows(state: StateDict) -> List[np.ndarray]:
    """Each array's memory as an ``(elements, itemsize)`` uint8 view, in
    sorted-key order."""
    values = [np.ascontiguousarray(state[key]) for key in sorted(state)]
    return [v.view(np.uint8).reshape(-1, v.dtype.itemsize) for v in values]


def _byte_planes(rows: List[np.ndarray]) -> List[List[np.ndarray]]:
    """Byte plane ``k`` as the column views whose concatenation it is:
    the ``k``-th most significant byte (little-endian memory order) of
    every element at least ``k + 1`` bytes wide, arrays in order."""
    width = max((r.shape[1] for r in rows), default=0)
    return [
        [r[:, r.shape[1] - 1 - k] for r in rows if r.shape[1] > k]
        for k in range(width)
    ]


def _xor_payload(state: StateDict, base: StateDict) -> bytes:
    """Byte-plane XOR delta of ``state`` vs ``base``; ``b""`` when it
    cannot be smaller than the dense state.

    XOR on the raw IEEE bytes is perfectly invertible — no arithmetic,
    no rounding — and near-identical states XOR to words whose high
    (sign / exponent / leading mantissa) bytes are zero while the low
    mantissa bytes are noise, which deflate can only grow.  So the bytes
    travel **plane-major** (:func:`_byte_planes`, all keys at once) and
    deflate is decided per plane.  One client update of the 16x16
    registry MLP, 16 643 float64, on the 2-core development host (one
    deflate stream over the same bytes: 109 060 B in 2.4-2.8 ms)::

        plane                0      1       2 .. 7
        entropy, bits/byte   0.05   2.85    7.98-7.99
        deflated bytes       412    8 135   16 659 each (raw: 16 643)
        deflate ms           0.03   0.41    0.16-0.29 each

    Planes are walked from most to least significant and deflated while
    that makes them smaller; from the first that does not shrink on, the
    rest are stored raw — one wasted probe, not six.  Once what is packed
    plus what must still be stored reaches :func:`dense_nbytes` the walk
    stops and ``b""`` is returned: a pair with nothing in common stops
    paying for a delta its callers would discard for the dense form.

    Layout: one ``<u4`` per plane (deflated length, 0 = stored), then the
    planes back to back.  Plane count and raw plane sizes follow from
    the structure both sides hold (callers check :func:`same_structure`),
    so nothing else is framed.  Stored planes are outside zlib's
    Adler-32; integrity stays with the transport —
    :mod:`repro.cluster.wire` CRC32s every frame, pipes are reliable.
    """
    planes = _byte_planes(
        [a ^ b for a, b in zip(_byte_rows(state), _byte_rows(base))]
    )
    sizes = [sum(map(len, columns)) for columns in planes]
    header = np.zeros(len(planes), dtype="<u4")
    parts: List[Any] = [header]
    total, limit = header.nbytes, sum(sizes)  # limit == dense_nbytes(state)
    deflating = True
    for k, columns in enumerate(planes):
        plane = np.concatenate(columns)
        if deflating:
            packed = zlib.compress(plane, _ZLIB_LEVEL)
            deflating = len(packed) < len(plane)
            if deflating:
                header[k] = len(packed)
                plane = packed
        parts.append(plane)
        total += len(plane)
        if total + (0 if deflating else sum(sizes[k + 1 :])) >= limit:
            return b""
    return b"".join(parts)


def _xor_restore(payload: bytes, base: StateDict) -> StateDict:
    """Invert :func:`_xor_payload` against the same base (bit-exact).

    Fails closed and bounded: bytes that are not a payload for this
    structure — short header, short, long or corrupt plane, trailing
    bytes — raise :class:`ValueError` naming the plane, and a deflated
    plane is inflated to at most one byte past the size the structure
    dictates, so a deflate bomb costs a plane, not what it claims.
    """
    rows = _byte_rows(base)
    restored = [np.empty_like(r) for r in rows]
    planes = _byte_planes(restored)
    view = memoryview(payload)
    offset = 4 * len(planes)
    if len(view) < offset:
        raise ValueError(
            f"xor payload: {len(view)} bytes cannot hold a {len(planes)}-plane header"
        )
    header = np.frombuffer(view[:offset], dtype="<u4").tolist()
    for k, (columns, packed) in enumerate(zip(planes, header)):
        size = sum(map(len, columns))
        chunk = view[offset : offset + (packed or size)]
        offset += len(chunk)
        if packed:
            inflater = zlib.decompressobj()
            try:
                chunk = inflater.decompress(chunk, size + 1)
            except zlib.error as exc:
                raise ValueError(f"xor payload plane {k}: {exc}") from None
            if not inflater.eof or inflater.unused_data:
                raise ValueError(
                    f"xor payload plane {k}: deflate stream is truncated, "
                    f"extended or longer than {size} bytes"
                )
        if len(chunk) != size:
            raise ValueError(
                f"xor payload plane {k}: {len(chunk)} bytes for a {size}-byte plane"
            )
        plane = np.frombuffer(chunk, dtype=np.uint8)
        start = 0
        for column in columns:
            column[:] = plane[start : start + len(column)]
            start += len(column)
    if offset != len(view):
        raise ValueError(
            f"xor payload: {len(view) - offset} bytes past its {len(planes)} planes"
        )
    state: StateDict = {}
    for key, xored, basis in zip(sorted(base), restored, rows):
        xored ^= basis
        state[key] = xored.view(base[key].dtype).reshape(base[key].shape)
    return state


# ----------------------------------------------------------------------
# Broadcast wire forms (downlink)
# ----------------------------------------------------------------------
@dataclass
class BroadcastFull:
    """Cold-cache broadcast: the whole state travels."""

    version: str
    state: StateDict

    @property
    def nbytes(self) -> int:
        return dense_nbytes(self.state) + _VERSION_BYTES


@dataclass
class BroadcastDelta:
    """Warm-cache broadcast: XOR of the new version against the cached one.

    ``payload`` is :func:`_xor_payload`'s byte-plane form; only a receiver
    holding ``base_version`` (same structure, same bytes) can decode it.
    """

    version: str
    base_version: str
    payload: bytes

    @property
    def nbytes(self) -> int:
        return len(self.payload) + 2 * _VERSION_BYTES


@dataclass
class BroadcastRef:
    """The receiver already holds this exact version — ship only its name."""

    version: str

    @property
    def nbytes(self) -> int:
        return _VERSION_BYTES


BroadcastWire = Any  # BroadcastFull | BroadcastDelta | BroadcastRef


def encode_broadcast(
    state: StateDict,
    version: str,
    cached_version: Optional[str],
    cached_state: Optional[StateDict],
    delta_cache: Optional[Dict[Tuple[str, str], bytes]] = None,
) -> BroadcastWire:
    """Choose the smallest lossless wire form against a receiver cache.

    Ref when the receiver holds exactly this version; XOR delta when it
    holds a different version of the same structure (and the compressed
    delta actually beats the dense state — pathological pairs fall back
    to full); full state otherwise (cold cache, structure change).

    ``delta_cache`` optionally memoizes delta payloads by
    ``(version, base_version)`` — versions are content hashes, so a pair
    determines the payload exactly, and a round that broadcasts one new
    global state to W same-cache workers deflates it once instead of W
    times.  The caller owns the mapping (and its eviction).
    """
    if cached_version == version:
        return BroadcastRef(version)
    if (
        cached_version is not None
        and cached_state is not None
        and same_structure(state, cached_state)
    ):
        key = (version, cached_version)
        payload = delta_cache.get(key) if delta_cache is not None else None
        if payload is None:
            payload = _xor_payload(state, cached_state)
            if delta_cache is not None:
                delta_cache[key] = payload
        if payload:
            return BroadcastDelta(
                version=version, base_version=cached_version, payload=payload
            )
    return BroadcastFull(version=version, state=state)


def decode_broadcast(
    wire: BroadcastWire,
    cached_version: Optional[str],
    cached_state: Optional[StateDict],
) -> Tuple[StateDict, str]:
    """Reconstruct the broadcast state against the local cache.

    Returns ``(state, version)``; the caller installs them as its new
    cache.  Raises :class:`ValueError` when a ref/delta names a version
    the cache does not hold — senders track the receiver's cache, so
    this only fires on protocol bugs, and the error is caught and
    reported like any task failure.
    """
    if isinstance(wire, BroadcastFull):
        return wire.state, wire.version
    if isinstance(wire, BroadcastRef):
        if cached_version != wire.version or cached_state is None:
            raise ValueError(
                f"broadcast ref to version {wire.version} but cache holds "
                f"{cached_version}"
            )
        return cached_state, wire.version
    if isinstance(wire, BroadcastDelta):
        if cached_version != wire.base_version or cached_state is None:
            raise ValueError(
                f"broadcast delta against version {wire.base_version} but "
                f"cache holds {cached_version}"
            )
        return _xor_restore(wire.payload, cached_state), wire.version
    raise TypeError(f"not a broadcast wire form: {type(wire).__name__}")


# ----------------------------------------------------------------------
# Update codecs (uplink)
# ----------------------------------------------------------------------
@dataclass
class EncodedUpdate:
    """One encoded client return: self-describing payload + wire size.

    ``codec`` is the registry spec that produced the payload, so the
    receiver needs no out-of-band agreement to decode; ``nbytes`` is the
    payload's wire size (actual array bytes for dense forms, compressed
    payload bytes otherwise), which is what the transport metering sums.
    """

    codec: str
    payload: Any
    nbytes: int


class UpdateCodec:
    """Interface: encode a trained local state against its broadcast basis.

    ``lossless`` codecs must satisfy ``decode(encode(s, b), b) == s``
    **bitwise** — they exist purely to shrink the wire.  Lossy codecs may
    transform the state but must be deterministic functions of their
    inputs, so results remain reproducible per seed on every backend.
    """

    spec: str = ""
    lossless: bool = False

    def encode(self, state: StateDict, basis: StateDict) -> EncodedUpdate:
        raise NotImplementedError

    def decode(self, encoded: EncodedUpdate, basis: StateDict) -> StateDict:
        raise NotImplementedError

    def encode_with_residual(
        self,
        state: StateDict,
        basis: StateDict,
        residual: Optional[StateDict] = None,
    ) -> Tuple[EncodedUpdate, Optional[StateDict]]:
        """:meth:`encode` for a client that keeps state between rounds:
        ``(encoded update, residual to carry into its next encode)``.
        Only the ``ef:*`` codecs read ``residual`` or return one."""
        return self.encode(state, basis), None

    def roundtrip(self, state: StateDict, basis: StateDict) -> Tuple[StateDict, int]:
        """Encode + decode in one step: ``(wire-equivalent state, nbytes)``."""
        encoded = self.encode(state, basis)
        return self.decode(encoded, basis), encoded.nbytes

    def __repr__(self) -> str:
        kind = "lossless" if self.lossless else "lossy"
        return f"{type(self).__name__}({self.spec!r}, {kind})"


class RawCodec(UpdateCodec):
    """The status quo: the dense local state travels unmodified."""

    spec = "raw"
    lossless = True

    def encode(self, state: StateDict, basis: StateDict) -> EncodedUpdate:
        return EncodedUpdate(codec=self.spec, payload=state, nbytes=dense_nbytes(state))

    def decode(self, encoded: EncodedUpdate, basis: StateDict) -> StateDict:
        return encoded.payload


class DeltaCodec(UpdateCodec):
    """Lossless delta vs the broadcast basis: byte-plane XOR, deflated
    where that helps (:func:`_xor_payload`, the downlink's format too).

    The receiver holds the basis (it broadcast it), so only what changed
    needs to travel — and because the delta is a byte-level XOR rather
    than a float subtraction, reconstruction is bit-exact by construction
    (``a ⊕ b ⊕ b = a``; no Sterbenz conditions, no exception lists).
    Falls back to the dense state when the structure changed or the
    delta would not actually be smaller.  The payload is ``("xor",
    bytes)`` or ``("dense", state)``.
    """

    spec = "delta"
    lossless = True

    def encode(self, state: StateDict, basis: StateDict) -> EncodedUpdate:
        if basis is not None and same_structure(state, basis):
            payload = _xor_payload(state, basis)
            if payload:
                return EncodedUpdate(
                    codec=self.spec, payload=("xor", payload), nbytes=len(payload)
                )
        return EncodedUpdate(
            codec=self.spec, payload=("dense", state), nbytes=dense_nbytes(state)
        )

    def decode(self, encoded: EncodedUpdate, basis: StateDict) -> StateDict:
        kind, payload = encoded.payload
        if kind == "dense":
            return payload
        return _xor_restore(payload, basis)


class _LossyDeltaCodec(UpdateCodec):
    """Shared shape of the lossy codecs: compress ``local − basis``.

    Float entries take the subclass's :meth:`compress` /
    :meth:`decompress` pair, which is the one place that knows the
    payload and its wire price; non-float entries (step counters, BN
    sample counts) must survive exactly and ship dense.  Reconstruction
    is ``basis + decompressed_delta`` in the basis dtype.  Deterministic:
    compression and values are pure functions of the update, so runs
    reproduce per seed on every backend.

    **Error feedback** (``ef:<lossy-spec>``, :attr:`feedback`) is this
    same encode with the residual term switched on: each round the
    client adds the residual its *previous* compression dropped to this
    round's float delta before compressing, and carries what this
    compression drops into the next, so the cumulative transmitted
    signal tracks the cumulative true signal (the standard fix for
    top-k's bias; Seide et al., Karimireddy et al.).  The wire format
    does not change — the server decodes ``ef:topk:0.05`` exactly as it
    would ``topk:0.05`` — only the *client-side* pre-compression
    correction does.

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
    feedback = False  # on for the ``ef:<spec>`` copy get_codec makes

    def compress(self, delta: StateDict) -> Tuple[Dict[str, Any], int]:
        """``(payload, wire bytes)`` of a float delta, one entry per key."""
        raise NotImplementedError

    def decompress(self, payload: Dict[str, Any]) -> StateDict:
        """The float64 delta a receiver reconstructs from ``payload``."""
        raise NotImplementedError

    def encode_with_residual(
        self,
        state: StateDict,
        basis: StateDict,
        residual: Optional[StateDict] = None,
    ) -> Tuple[EncodedUpdate, Optional[StateDict]]:
        """The one lossy encode: split float / exact keys, ``state −
        basis`` (``+ residual`` under feedback), compress, price."""
        lossy = [k for k, v in state.items() if np.issubdtype(v.dtype, np.floating)]
        delta = {key: state[key] - basis[key] for key in lossy}
        payload, nbytes = None, 0
        new_residual = residual if self.feedback else None
        if delta:
            if self.feedback and residual and set(residual) == set(delta):
                delta = {key: delta[key] + residual[key] for key in delta}
            payload, nbytes = self.compress(delta)
            if self.feedback:
                sent = self.decompress(payload)
                new_residual = {key: delta[key] - sent[key] for key in delta}
        exact_part = {key: state[key] for key in state if key not in lossy}
        return (
            EncodedUpdate(
                codec=self.spec,
                payload=(payload, exact_part),
                nbytes=nbytes + dense_nbytes(exact_part),
            ),
            new_residual,
        )

    def encode(self, state: StateDict, basis: StateDict) -> EncodedUpdate:
        return self.encode_with_residual(state, basis)[0]

    def decode(self, encoded: EncodedUpdate, basis: StateDict) -> StateDict:
        payload, exact_part = encoded.payload
        state = dict(exact_part)
        if payload is not None:
            for key, delta in self.decompress(payload).items():
                base = basis[key]
                state[key] = base + np.asarray(delta, dtype=base.dtype)
        return state


class TopKCodec(_LossyDeltaCodec):
    """Top-k sparsified delta: ``topk:<fraction>``.

    Keeps the ``fraction`` largest-magnitude entries of ``local − basis``
    per tensor (at least one, so biases survive) and reconstructs
    ``basis + sparse_delta``.  A kept entry travels as a uint32 flat
    index and a float32 value: 8 bytes.
    """

    def __init__(self, fraction: float) -> None:
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction
        self.spec = f"topk:{fraction:g}"

    def compress(self, delta: StateDict) -> Tuple[Dict[str, Any], int]:
        payload: Dict[str, Any] = {}
        nbytes = 0
        for key, value in delta.items():
            flat = value.ravel()
            k = max(1, int(round(self.fraction * flat.size)))
            top = np.argpartition(np.abs(flat), -k)[-k:]
            top.sort()
            payload[key] = {
                "shape": value.shape,
                "indices": top.astype(np.uint32),
                "values": flat[top].astype(np.float32),
            }
            nbytes += k * (_INDEX_BYTES + _FLOAT_BYTES)
        return payload, nbytes

    def decompress(self, payload: Dict[str, Any]) -> StateDict:
        delta: StateDict = {}
        for key, entry in payload.items():
            dense = np.zeros(int(np.prod(entry["shape"])), dtype=np.float64)
            dense[entry["indices"]] = entry["values"].astype(np.float64)
            delta[key] = dense.reshape(entry["shape"])
        return delta


class QuantCodec(_LossyDeltaCodec):
    """Uniformly quantized delta: ``quant:<bits>``.

    QSGD-style uniform b-bit quantization of ``local − basis`` with
    per-tensor codebooks: each tensor is mapped to ``2^b`` evenly spaced
    levels between its min and max, and travels as the packed level
    indices plus the two float32 codebook endpoints.  Worst-case error
    per entry is half a level width; reconstruction is ``basis +
    dequantized``.
    """

    def __init__(self, num_bits: int) -> None:
        if not 1 <= num_bits <= 16:
            raise ValueError(f"num_bits must be in [1, 16], got {num_bits}")
        self.num_bits = num_bits
        self.spec = f"quant:{num_bits}"

    def compress(self, delta: StateDict) -> Tuple[Dict[str, Any], int]:
        levels = (1 << self.num_bits) - 1
        # Codes ship at their actual width: for <=8 bits the pipe carries
        # 1 byte per entry, not uint16's 2 (the price below is the
        # logical bit width either way).
        code_dtype = np.uint8 if self.num_bits <= 8 else np.uint16
        payload: Dict[str, Any] = {}
        nbytes = 0
        for key, value in delta.items():
            low = float(value.min())
            high = float(value.max())
            span = high - low
            if span == 0.0:
                codes = np.zeros(value.shape, dtype=code_dtype)
            else:
                codes = np.round((value - low) / span * levels).astype(code_dtype)
            payload[key] = {"low": low, "high": high, "codes": codes}
            nbytes += int(np.ceil(value.size * self.num_bits / 8)) + 2 * _FLOAT_BYTES
        return payload, nbytes

    def decompress(self, payload: Dict[str, Any]) -> StateDict:
        levels = (1 << self.num_bits) - 1
        delta: StateDict = {}
        for key, entry in payload.items():
            low, high = entry["low"], entry["high"]
            span = high - low
            if span == 0.0:
                delta[key] = np.full(entry["codes"].shape, low, dtype=np.float64)
            else:
                delta[key] = entry["codes"].astype(np.float64) / levels * span + low
        return delta


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _with_feedback(inner_spec: str) -> UpdateCodec:
    """``ef:<inner_spec>``: the inner codec's class, residual term on."""
    inner = get_codec(inner_spec)
    if not isinstance(inner, _LossyDeltaCodec) or inner.feedback:
        raise ValueError(
            f"ef wraps lossy delta codecs (topk/quant), got {inner_spec!r}"
        )
    codec = copy.copy(inner)
    codec.feedback = True
    codec.spec = f"ef:{inner.spec}"
    return codec


# family -> (builder, what a spec without its argument is told); a family
# whose second entry is ``None`` takes no argument.
_FAMILIES: Dict[str, Tuple[Callable[..., UpdateCodec], Optional[str]]] = {
    "raw": (RawCodec, None),
    "delta": (DeltaCodec, None),
    "topk": (
        lambda arg: TopKCodec(float(arg)),
        "topk needs a fraction, e.g. 'topk:0.05'",
    ),
    "quant": (
        lambda arg: QuantCodec(int(arg)),
        "quant needs a bit width, e.g. 'quant:8'",
    ),
    "ef": (_with_feedback, "ef wraps a lossy codec, e.g. 'ef:topk:0.05'"),
}
_INSTANCES: Dict[str, UpdateCodec] = {}


def available_codecs() -> List[str]:
    """Codec family names."""
    return sorted(_FAMILIES)


def get_codec(spec: str) -> UpdateCodec:
    """Resolve a codec spec string (``raw``, ``delta``, ``topk:0.05``,
    ``quant:8``, ``ef:topk:0.05``) to a shared codec instance; raises on
    typos eagerly."""
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"codec spec must be a non-empty string, got {spec!r}")
    if spec in _INSTANCES:
        return _INSTANCES[spec]
    name, _, arg = spec.partition(":")
    try:
        build, missing_arg = _FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown codec {name!r}; available: {available_codecs()}"
        ) from None
    if missing_arg is None:
        if arg:
            raise ValueError(f"codec {name!r} takes no argument, got {arg!r}")
        codec = build()
    elif not arg:
        raise ValueError(missing_arg)
    else:
        codec = build(arg)
    _INSTANCES[spec] = codec
    return codec
