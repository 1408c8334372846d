"""Independent reference for the XOR delta encoder.

``repro.runtime.codec._xor_payload`` deflates each byte plane with
zlib's run-length strategy and stores a plane with too few zero bytes
without a deflate probe.  This is the encoder as it stood before that
change: level-1 deflate with the default strategy, probing every plane
down to the first that does not shrink.  The code is verbatim apart
from its name; the plane helpers it calls are the library's, unchanged
by that change.  Its payloads are the wire format the decoder must keep
reading, and its sizes the bound the encoder must not exceed;
``tests/runtime/test_codec.py`` checks both.
"""

from __future__ import annotations

import zlib
from typing import Any, List

import numpy as np

from repro.runtime.codec import StateDict, _byte_planes, _byte_rows

_ZLIB_LEVEL = 1


def reference_xor_payload(state: StateDict, base: StateDict) -> bytes:
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
