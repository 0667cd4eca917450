import csv
import struct

import numpy as np
import pytest

from freqguide import FormatError, ShapeError, Tensor4, UsageError
from freqguide.tensor import read_tensor, tensor_from_bytes, tensor_to_bytes, write_csv, write_tensor

rng = np.random.default_rng(20240817)


def rand(dims, lo=-5.0, hi=5.0):
    return Tensor4(rng.uniform(lo, hi, dims))


class TestTensor4:
    def test_dims_and_layout(self):
        t = Tensor4(np.arange(24.0).reshape(1, 2, 3, 4))
        assert t.dims == (1, 2, 3, 4)
        assert t.data.flags["C_CONTIGUOUS"]

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((2, 2, 2)))

    def test_rejects_nan_and_inf(self):
        bad = np.zeros((1, 1, 2, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ShapeError):
            Tensor4(bad)
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(ShapeError):
            Tensor4(bad)

    def test_immutable(self):
        t = Tensor4(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0, 0, 0] = 1.0


class TestTensorFile:
    def test_float64_round_trip_bit_exact(self, tmp_path):
        t = rand((2, 3, 8, 8))
        path = tmp_path / "t.fqg"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.dims == t.dims
        assert back.data.tobytes() == t.data.tobytes()

    def test_float32_round_trip_is_nearest_float32(self, tmp_path):
        # README's layout: magic, dtype code 1 (float32), ndim 4, four uint32 dims, payload
        values = np.float32([1.0 / 3.0, -2.5, 1e-30, 3.0e38]).reshape(1, 2, 1, 2)
        path = tmp_path / "t32.fqg"
        path.write_bytes(struct.pack("<4sBB4I", b"FQG1", 1, 4, 1, 2, 1, 2) + values.astype("<f4").tobytes())
        back = read_tensor(path)
        assert back.dims == (1, 2, 1, 2)
        assert back.data.tobytes() == values.astype(np.float64).tobytes()
        assert back.data[0, 0, 0, 0] == float(np.float32(1.0 / 3.0))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fqg"
        blob = bytearray(tensor_to_bytes(rand((1, 1, 2, 2))))
        blob[:4] = b"XXXX"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="offset 0"):
            read_tensor(path)

    def test_truncated_payload(self):
        blob = tensor_to_bytes(rand((1, 1, 2, 2)))
        with pytest.raises(FormatError, match="offset"):
            tensor_from_bytes(blob[:-3])

    def test_trailing_bytes_rejected(self):
        blob = tensor_to_bytes(rand((1, 1, 2, 2)))
        with pytest.raises(FormatError):
            tensor_from_bytes(blob + b"\x00")

    def test_unsupported_dtype_code(self):
        blob = bytearray(tensor_to_bytes(rand((1, 1, 2, 2))))
        blob[4] = 9
        with pytest.raises(FormatError, match="offset 4"):
            tensor_from_bytes(bytes(blob))


class TestCsv:
    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["step", "value"], [])
        assert path.read_bytes() == b"step,value\n"

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        write_csv(path, ["step", "value"], [(1, 0.5)])
        assert path.read_bytes() == b"step,value\n1,0.5\n"

    def test_thousand_rows_parse_back_exact(self, tmp_path):
        values = rng.standard_normal(1000)
        path = tmp_path / "big.csv"
        write_csv(path, ["i", "v"], [(i, v) for i, v in enumerate(values)])
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["i", "v"]
            parsed = [float(row[1]) for row in reader]
        # 17 significant digits round-trip float64 exactly
        assert parsed == list(values)

    def test_arity_mismatch(self, tmp_path):
        with pytest.raises(UsageError):
            write_csv(tmp_path / "bad.csv", ["a", "b"], [(1, 2, 3)])
