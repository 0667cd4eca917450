"""Dense 4-D float64 arrays, the FQG1 binary file format, CSV export and seeded RNG.

Layout is fixed: (batch, channels, height, width), row-major, batch
outermost.  Values are validated to be finite at every public boundary so
downstream numerics never see NaN/Inf.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import io
import math
import os
import struct

import numpy as np

from .errors import DomainError, FormatError, ShapeError, UsageError

MAGIC = b"FQG1"
DTYPE_CODES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}  # written files are always code 0

_HEADER = struct.Struct("<4sBB4I")  # magic, dtype code, ndim, dims

# float64 values (1 MiB) per image-sized array that `sample`, `combine` and
# the walks over a mixture's means hold at once: each goes in ``blocks``
BLOCK_VALUES = 2**17

# glibc's malloc hands a freed block above its mmap threshold (128 KiB at
# first) back to the kernel and trims a free heap top past twice that, so a
# step faulted in again the pages of the block-sized temporaries the step
# before had freed: a `combine` of 2000 3x32x32 items made 43,978 minor
# faults and ran 1.3-1.6x slower.  With a 1 GiB trim threshold and an mmap
# threshold of 32 MiB, glibc's largest (so whole-run arrays come from the
# same heap), freed blocks serve the next step and that `combine` makes 11.
_MALLOPT = ((-1, 2**30), (-3, 2**25))  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD


def _keep_freed_blocks():
    """Apply ``_MALLOPT`` where the C library has glibc's ``mallopt``, and
    nothing elsewhere.  A refused value leaves that threshold as it was: the
    policy changes the page faults of a run, never its results."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOPT:
        mallopt(param, value)


_keep_freed_blocks()


def blocks(n_items: int, item_shape) -> list[range]:
    """Items 0..n_items-1 in consecutive blocks of at most ``BLOCK_VALUES``
    values each, as few as that cap allows; an item bigger than the cap is
    a block on its own.  Block sizes differ by at most one, the larger
    blocks first."""
    per_block = max(1, BLOCK_VALUES // math.prod(item_shape))
    count = -(-n_items // per_block)
    size, extra = divmod(n_items, count)
    starts = [k * size + min(k, extra) for k in range(count + 1)]
    return [range(start, stop) for start, stop in zip(starts, starts[1:])]


def finite(arr, message: str):
    """``arr``, scanned once: a ``DomainError(message)`` if a value is not finite."""
    if not np.isfinite(arr).all():
        raise DomainError(message)
    return arr


class Tensor4:
    """Immutable (batch, channels, height, width) array of float64.

    A C-contiguous float64 ``data`` is wrapped without a copy, so wrapping
    freezes that very array in place (it becomes read-only); anything else
    is copied first.  ``checked=True`` skips the finiteness scan for an
    array its producer has just scanned itself, raising its own error.
    """

    __slots__ = ("data",)

    def __init__(self, data, *, checked: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise ShapeError(f"expected 4 dims, got {arr.ndim}")
        if min(arr.shape) < 1:
            raise ShapeError(f"dims must be positive, got {arr.shape}")
        if not checked and not np.all(np.isfinite(arr)):
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


def philox(key: int) -> np.random.Generator:
    """A generator on the counter-based Philox stream keyed by ``key``;
    raises ``UsageError`` outside Philox's key range [0, 2**128)."""
    if not 0 <= key < 2**128:
        raise UsageError(f"RNG key {key} is outside Philox's range [0, 2**128)")
    return np.random.Generator(np.random.Philox(key=key))


@contextlib.contextmanager
def _atomic_open(path):
    """Binary handle on a same-directory temp file that is renamed to
    ``path`` when the block exits cleanly and unlinked when it raises.  The
    temp file is created with mode 0o666 less the umask, as ``open`` does.
    An ``OSError`` creating or renaming it names ``path``, not the temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from exc
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, payload: bytes):
    """Write file contents via a same-directory temp file and rename."""
    with _atomic_open(path) as fh:
        fh.write(payload)


@contextlib.contextmanager
def tensor_writer(path, dims):
    """FQG1 file of ``dims`` (little-endian float64, row-major) written a
    chunk of items at a time by the yielded ``append(t)``.  The file appears
    at ``path`` only if all ``dims[0]`` items were appended and the block
    exits cleanly."""
    dims = tuple(dims)
    written = 0

    def append(t: Tensor4):
        nonlocal written
        if t.dims[1:] != dims[1:] or written + t.dims[0] > dims[0]:
            raise ShapeError(f"chunk {t.dims} does not fit items {written}.. of {dims}")
        fh.write(t.data.astype(DTYPE_CODES[0], copy=False))
        written += t.dims[0]

    with _atomic_open(path) as fh:
        fh.write(_HEADER.pack(MAGIC, 0, 4, *dims))
        yield append
        if written != dims[0]:
            raise ShapeError(f"wrote {written} of {dims[0]} items")


def write_tensor(path, a: Tensor4):
    """Serialize to the FQG1 format (little-endian float64, row-major)."""
    with tensor_writer(path, a.dims) as append:
        append(a)


class TensorReader:
    """An FQG1 file opened for reading items by index.

    Opening reads only the header and checks it and the exact file size, so
    every ``FormatError`` comes before any payload is read.
    """

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            self.dims, self._dtype = self._check_header()
        except BaseException:
            self._fh.close()
            raise

    def _check_header(self):
        head = self._fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"truncated header: {len(head)} bytes, need {_HEADER.size} (offset {len(head)})")
        magic, code, ndim, b, c, h, w = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r} at offset 0")
        if code not in DTYPE_CODES:
            raise FormatError(f"unsupported dtype code {code} at offset 4")
        if ndim != 4:
            raise FormatError(f"unsupported ndim {ndim} at offset 5")
        if min(b, c, h, w) < 1:
            raise FormatError(f"non-positive dim in {(b, c, h, w)} at offset 6")
        dt = DTYPE_CODES[code]
        size = os.fstat(self._fh.fileno()).st_size
        expected = _HEADER.size + b * c * h * w * dt.itemsize
        if size != expected:
            raise FormatError(
                f"payload is {size - _HEADER.size} bytes, expected {expected - _HEADER.size} (offset {min(size, expected)})"
            )
        return (b, c, h, w), dt

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def read(self, start: int, stop: int) -> Tensor4:
        """Items [start, stop) as float64."""
        arr = np.empty((stop - start,) + self.dims[1:], dtype=self._dtype)
        self._fh.seek(_HEADER.size + start * arr[0].nbytes)
        if self._fh.readinto(arr) != arr.nbytes:
            raise FormatError(f"file ends before item {stop} (offset {self._fh.tell()})")
        return Tensor4(arr)


def read_tensor(path) -> Tensor4:
    with TensorReader(path) as reader:
        return reader.read(0, reader.dims[0])


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
