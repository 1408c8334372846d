"""Checkpoint persistence: a state dict as one flat checkpoint file.

The file is a fixed preamble, a JSON header and the raw array bytes::

    magic    8 bytes  b"RPROCKPT"
    version  <u2      1
    length   <u4      byte length of the header
    header   JSON     [[name, dtype, shape], ...] in state order
    arrays            each array's little-endian C-order bytes, back to back

``dtype`` is a little-endian NumPy type string (``"<f8"``, ``"|b1"``, ...)
from a fixed set of boolean, integer, float and complex types; ``shape``
is a list of non-negative integers.  Saving one state twice writes the
same bytes.

:func:`load_state_dict` fails closed.  Anything that is not exactly such
a file — a bad magic or version, a header past the end of the file or
not the JSON above, a dtype outside the set (object, string or
big-endian), a negative dimension, a duplicate name, an array cut short
or bytes after the last one — raises :class:`ValueError`.  The reader
reads the file once, checks every array against the file's length before
it copies any, never unpickles and returns either the whole state or
nothing.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Dict

import numpy as np

_MAGIC = b"RPROCKPT"
_VERSION = 1
_PREAMBLE = struct.Struct("<8sHI")
# numpy 1.x allows 32 dimensions (2.x allows 64); a checkpoint keeps to
# what every supported numpy reads.
_MAX_NDIM = 32
_MAX_DIM = np.iinfo(np.intp).max

#: The dtypes a checkpoint holds, keyed by their little-endian type string.
_DTYPES = {
    name: np.dtype(name)
    for name in (
        "|b1",
        "|i1",
        "<i2",
        "<i4",
        "<i8",
        "|u1",
        "<u2",
        "<u4",
        "<u8",
        "<f2",
        "<f4",
        "<f8",
        "<c8",
        "<c16",
    )
}


def _encode_state(state: Dict[str, np.ndarray]) -> bytes:
    """A state dict's checkpoint bytes."""
    entries, arrays = [], []
    for name, value in state.items():
        array = np.asarray(value)
        dtype = array.dtype.newbyteorder("<")
        if dtype.str not in _DTYPES:
            raise ValueError(f"cannot checkpoint {name!r}: dtype {array.dtype} is not numeric")
        entries.append([name, dtype.str, list(array.shape)])
        arrays.append(array.astype(dtype, copy=False).tobytes())
    header = json.dumps(entries, separators=(",", ":")).encode("ascii")
    return b"".join([_PREAMBLE.pack(_MAGIC, _VERSION, len(header)), header, *arrays])


def _decode_state(data: bytes) -> Dict[str, np.ndarray]:
    """The state dict in checkpoint bytes; :class:`ValueError` on anything else."""
    if len(data) < _PREAMBLE.size:
        raise ValueError("checkpoint is shorter than its preamble")
    magic, version, length = _PREAMBLE.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    if version != _VERSION:
        raise ValueError(f"checkpoint version {version}; this reader reads {_VERSION}")
    offset = _PREAMBLE.size + length
    if offset > len(data):
        raise ValueError("checkpoint header runs past the end of the file")
    try:
        entries = json.loads(data[_PREAMBLE.size : offset].decode("utf-8"))
    except RecursionError:
        raise ValueError("checkpoint header nests too deeply") from None
    if not isinstance(entries, list):
        raise ValueError("checkpoint header is not a list of arrays")
    layout = []
    names = set()
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"checkpoint header entry {entry!r} is not [name, dtype, shape]")
        name, dtype_str, shape = entry
        if not isinstance(name, str):
            raise ValueError(f"checkpoint array name {name!r} is not a string")
        if name in names:
            raise ValueError(f"checkpoint names array {name!r} twice")
        names.add(name)
        dtype = _DTYPES.get(dtype_str) if isinstance(dtype_str, str) else None
        if dtype is None:
            raise ValueError(
                f"array {name!r}: dtype {dtype_str!r} is not a little-endian numeric type"
            )
        if not (
            isinstance(shape, list)
            and len(shape) <= _MAX_NDIM
            and all(type(dim) is int and 0 <= dim <= _MAX_DIM for dim in shape)
        ):
            raise ValueError(f"array {name!r}: shape {shape!r} is not a list of sizes")
        count = 1
        for dim in shape:
            count *= dim
        end = offset + count * dtype.itemsize
        if end > len(data):
            raise ValueError(f"array {name!r} runs past the end of the file")
        layout.append((name, dtype, shape, offset, count))
        offset = end
    if offset != len(data):
        raise ValueError(f"{len(data) - offset} trailing bytes after the last array")
    return {
        name: np.frombuffer(data, dtype, count, start).reshape(shape).copy()
        for name, dtype, shape, start, count in layout
    }


def save_state_dict(state: Dict[str, np.ndarray], path: str) -> None:
    """Write a state dict to the checkpoint file ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(_encode_state(state))


def load_state_dict(path: str) -> Dict[str, np.ndarray]:
    """Read a state dict previously written by :func:`save_state_dict`."""
    with open(path, "rb") as handle:
        return _decode_state(handle.read())
