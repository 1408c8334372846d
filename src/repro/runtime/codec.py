"""Zero-redundancy transport primitives: versions, broadcast wire forms,
and the lossless update codecs.

Federated training is communication-bound in practice: every round the
current pipeline ships the **full global model** inside every
:class:`~repro.runtime.task.TrainTask` and every client ships a **full
state dict** back, even though (a) all of a round's tasks carry the *same*
global state and (b) the aggregators only ever fold what *changed*.  This
module provides the three pieces that remove the redundancy:

Version addressing
    :func:`state_version` computes a stable content hash of a state dict,
    :func:`dataset_version` one of a dataset.  Two payloads with identical
    bytes have identical versions, no matter which process computed them —
    so a transport can ask "does the other side already hold this exact
    model, or these exact samples?" without shipping them.

Wire forms (downlink, always lossless)
    :class:`BroadcastFull` / :class:`BroadcastDelta` / :class:`BroadcastRef`
    are the three shapes a payload takes on the wire, chosen against what
    the receiver holds by :func:`encode_broadcast`: a bare ref when the
    receiver already holds the version (the common case — inside a round
    every client gets the same global state, and across rounds a client
    keeps its dataset), a byte-plane XOR delta of a state against one the
    receiver holds with the same structure (the previous round's model),
    and the full payload otherwise (first contact, or a respawned
    worker).  XOR deltas are **lossless by construction**: decoding XORs
    the same bytes back, so the reconstructed state is bit-identical with
    no float-rounding caveats.  The delta travels plane-major, and only the byte planes
    that carry XOR zeros are run-length deflated — the low mantissa
    planes of a float delta are noise, and a plane with too few zero
    bytes is stored without a deflate probe (:func:`_xor_payload` has
    the format, the stop rule and the measurements).  The dispatch core
    keeps one bounded content-addressed store per receiver
    (:class:`~repro.runtime.dispatch.WorkerStore`) and its mirror in the
    parent, and drives this protocol for every task field that carries
    arrays.

Update codecs (uplink, lossless)
    :class:`UpdateCodec` implementations encode a client's *return*
    against the broadcast it trained from.  ``raw`` ships the dense
    state (the status quo); ``delta`` ships the downlink's byte-plane
    XOR against the basis, so the decoded state is bit-identical.
    :func:`get_codec` resolves either name, which is what
    :class:`~repro.federated.simulation.FederatedSimulation`'s ``codec=``
    feeds.

Encoding happens *inside* :meth:`TrainTask.run` and decoding inside
:meth:`~repro.federated.client.Client.absorb_train_result`, so the exact
same transform runs on every backend, and the worker pool's pipes
naturally carry the encoded payload instead of the dense state.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

# {name: array} model snapshot — mirrors repro.federated.state_math.StateDict
# without importing it (runtime must stay import-light and cycle-free).
StateDict = Dict[str, np.ndarray]

_VERSION_BYTES = 16  # hex chars of the content hash shipped as a ref
# Planes are deflated with zlib's run-length strategy (``Z_RLE``): an XOR
# plane's redundancy is runs of zero bytes, and on the planes that get
# deflated it writes 24 % fewer bytes than the default strategy at level 1
# in 0.7x its time, and 12 % fewer than level 6 (16x16 MLP client updates
# and global deltas).  zlib's run-length deflater ignores the level, so any
# level from 1 up writes the same bytes.
_ZLIB_LEVEL = 1
# A plane with fewer zero bytes than this share is noise and is stored
# without a deflate probe, and so is every plane after it.  Counting zero
# bytes costs 3 us on a 16 643-byte plane, the probe 0.2-0.3 ms.  Uniform
# noise has 1/256 zero bytes; over 297 ``fed_fanout`` pairs plane 2 held
# 0.3-5.4 % and shrank only above ~0.7 % (by 30 B there, 2.3 KB at 4 %), and
# planes 3-7 held 0.3-0.6 %.  At 1/128 the mean payload is 126 B (0.1 %)
# smaller than at 1/64, for 0.2 ms more per encode.
_MIN_ZERO_SHARE = 1 / 64


def dense_nbytes(state: StateDict) -> int:
    """Bytes of the dense in-memory encoding (actual dtypes, no pickle)."""
    return int(sum(np.asarray(value).nbytes for value in state.values()))


def _hash_array(digest, key: str, value) -> None:
    value = np.ascontiguousarray(value)
    digest.update(key.encode("utf-8"))
    digest.update(str(value.dtype).encode("ascii"))
    digest.update(str(value.shape).encode("ascii"))
    digest.update(value)  # its buffer: the raw bytes, uncopied


def state_version(state: StateDict) -> str:
    """Stable content hash of a state dict (its transport *version*).

    Hashes keys, dtypes, shapes and raw bytes, so two states compare
    equal exactly when a bitwise comparison would — across processes,
    platforms and hash randomisation.
    """
    digest = hashlib.sha1()
    for key in sorted(state):
        _hash_array(digest, key, state[key])
    return digest.hexdigest()[:_VERSION_BYTES]


def dataset_version(dataset: Any) -> str:
    """Stable content hash of an :class:`~repro.data.dataset.ArrayDataset`:
    its images and labels as :func:`state_version` hashes arrays, plus its
    class count and name."""
    digest = hashlib.sha1(f"dataset:{dataset.num_classes}:{dataset.name}".encode("utf-8"))
    _hash_array(digest, "images", dataset.images)
    _hash_array(digest, "labels", dataset.labels)
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
    deflate is decided per plane.  Over 297 ``fed_fanout`` pairs (8 client
    updates and one global delta per round of the 16x16 registry MLP,
    16 643 float64 per plane, 33 rounds) on the 2-core development host,
    mean bytes and ms per plane::

        plane                     0          1         2          3 .. 7
        zero bytes                98.4-100 % 26-92 %   0.3-5.4 %  0.3-0.6 %
        Z_RLE deflated bytes      141        4 762     16 161     16 659 each
        Z_RLE deflate ms          0.03       0.26      0.29       0.21 each
        default level 1, bytes    283        6 183     16 189     16 659 each
        default level 1, ms       0.03       0.37      0.42       0.34 each

    Planes are walked from most to least significant and run-length
    deflated (``Z_RLE``) while that makes them smaller.  A plane whose
    zero bytes are fewer than :data:`_MIN_ZERO_SHARE` of it is noise and
    is stored without a probe; from it, or from the first deflated plane
    that does not shrink, the rest are stored raw.  Counting zeros costs
    3 us a plane, so noise planes cost nothing but their copy.  Per update
    this encodes in 0.65 ms (level 1 probing down to the first plane that
    grew: 1.58 ms) and decodes in 0.41 ms (0.54 ms), and the mean payload
    is 104 436 B (105 899 B; each of the 297 is 683-1 996 B smaller).
    Once what is packed plus what must still be stored reaches
    :func:`dense_nbytes` the walk stops and ``b""`` is returned: a pair
    with nothing in common stops paying for a delta its callers would
    discard for the dense form.

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
            zeros = len(plane) - np.count_nonzero(plane)
            deflating = zeros >= _MIN_ZERO_SHARE * len(plane)
        if deflating:
            deflater = zlib.compressobj(
                _ZLIB_LEVEL, zlib.DEFLATED, zlib.MAX_WBITS, 8, zlib.Z_RLE
            )
            packed = deflater.compress(plane) + deflater.flush()
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
    """The receiver holds nothing to build on: the whole payload travels."""

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
    """Choose the smallest lossless wire form against what a receiver holds.

    Ref when ``cached_version`` is exactly this version; XOR delta when
    ``cached_state`` is a different version of the same structure (and
    the compressed delta actually beats the dense state — pathological
    pairs fall back to full); full payload otherwise (nothing to build
    on, structure change).

    ``delta_cache`` optionally memoizes delta payloads by
    ``(version, base_version)`` — versions are content hashes, so a pair
    determines the payload exactly, and a round that broadcasts one new
    global state to W workers holding the same base deflates it once
    instead of W times.  The caller owns the mapping (and its eviction).
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

    Every codec satisfies ``decode(encode(s, b), b) == s`` **bitwise** —
    it exists purely to shrink the wire.
    """

    spec: str = ""

    def encode(self, state: StateDict, basis: StateDict) -> EncodedUpdate:
        raise NotImplementedError

    def decode(self, encoded: EncodedUpdate, basis: StateDict) -> StateDict:
        raise NotImplementedError


class RawCodec(UpdateCodec):
    """The status quo: the dense local state travels unmodified."""

    spec = "raw"

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
        """Fails closed: the payload comes from a worker or a peer, so
        anything but ``("xor", bytes-like)`` or ``("dense", dict)`` raises
        :class:`ValueError` naming what arrived."""
        form = encoded.payload
        pair = isinstance(form, tuple) and len(form) == 2
        kind, payload = form if pair else (None, form)
        if kind == "dense" and isinstance(payload, dict):
            return payload
        if kind == "xor" and isinstance(payload, (bytes, bytearray, memoryview)):
            return _xor_restore(payload, basis)
        raise ValueError(
            f"delta payload of kind {kind!r} carrying a {type(payload).__name__}; "
            "expected ('xor', bytes) or ('dense', dict)"
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_CODECS: Dict[str, UpdateCodec] = {"raw": RawCodec(), "delta": DeltaCodec()}


def get_codec(spec: str) -> UpdateCodec:
    """The shared codec instance named ``spec`` (``"raw"`` or ``"delta"``);
    raises on anything else, eagerly."""
    try:
        return _CODECS[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown codec {spec!r}; available: {sorted(_CODECS)}"
        ) from None
