"""Dense 4-D float64 arrays plus the FQG1 binary file format and CSV export.

Layout is fixed: (batch, channels, height, width), row-major, batch
outermost.  Values are validated to be finite at every public boundary so
downstream numerics never see NaN/Inf.
"""

from __future__ import annotations

import csv
import io
import os
import struct
import tempfile

import numpy as np

from .errors import FormatError, ShapeError, UsageError

MAGIC = b"FQG1"
DTYPE_CODES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}  # written files are always code 0

_HEADER = struct.Struct("<4sBB4I")  # magic, dtype code, ndim, dims


class Tensor4:
    """Immutable (batch, channels, height, width) array of float64."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise ShapeError(f"expected 4 dims, got {arr.ndim}")
        if min(arr.shape) < 1:
            raise ShapeError(f"dims must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ShapeError("non-finite values rejected at API boundary")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor4 is immutable")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.data.shape

    def __repr__(self):
        return f"Tensor4(dims={self.dims})"

    def __eq__(self, other):
        return isinstance(other, Tensor4) and np.array_equal(self.data, other.data)


def atomic_write_bytes(path, payload: bytes):
    """Write file contents via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def tensor_to_bytes(a: Tensor4) -> bytes:
    header = _HEADER.pack(MAGIC, 0, 4, *a.dims)
    payload = np.ascontiguousarray(a.data, dtype=DTYPE_CODES[0]).tobytes()
    return header + payload


def write_tensor(path, a: Tensor4):
    """Serialize to the FQG1 format (little-endian float64, row-major)."""
    atomic_write_bytes(path, tensor_to_bytes(a))


def tensor_from_bytes(blob: bytes) -> Tensor4:
    if len(blob) < _HEADER.size:
        raise FormatError(f"truncated header: {len(blob)} bytes, need {_HEADER.size} (offset {len(blob)})")
    magic, code, ndim, b, c, h, w = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0")
    if code not in DTYPE_CODES:
        raise FormatError(f"unsupported dtype code {code} at offset 4")
    if ndim != 4:
        raise FormatError(f"unsupported ndim {ndim} at offset 5")
    if min(b, c, h, w) < 1:
        raise FormatError(f"non-positive dim in {(b, c, h, w)} at offset 6")
    dt = DTYPE_CODES[code]
    n = b * c * h * w
    expected = _HEADER.size + n * dt.itemsize
    if len(blob) != expected:
        raise FormatError(
            f"payload is {len(blob) - _HEADER.size} bytes, expected {n * dt.itemsize} (offset {min(len(blob), expected)})"
        )
    arr = np.frombuffer(blob, dtype=dt, offset=_HEADER.size).reshape(b, c, h, w)
    return Tensor4(arr.astype(np.float64))


def read_tensor(path) -> Tensor4:
    with open(path, "rb") as fh:
        return tensor_from_bytes(fh.read())


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def csv_to_bytes(column_names, rows) -> bytes:
    names = list(column_names)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for i, row in enumerate(rows):
        cells = list(row)
        if len(cells) != len(names):
            raise UsageError(f"row {i} has {len(cells)} cells, header has {len(names)}")
        writer.writerow([_format_cell(v) for v in cells])
    return buf.getvalue().encode("utf-8")


def write_csv(path, column_names, rows):
    """RFC-4180-style CSV with a header row; floats keep 17 significant digits."""
    atomic_write_bytes(path, csv_to_bytes(column_names, rows))
