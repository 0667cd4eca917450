import csv
import os

import numpy as np
import pytest
from conftest import fqg1_bytes, per_block, three_blocks
from hypothesis import given, settings
from hypothesis import strategies as st

from freqguide import FormatError, ShapeError, Tensor4, UsageError
from freqguide.tensor import BLOCK_VALUES, TensorReader, blocks, read_tensor, tensor_writer, write_csv, write_tensor

rng = np.random.default_rng(20240817)


def rand(dims, lo=-5.0, hi=5.0):
    return Tensor4(rng.uniform(lo, hi, dims))


class TestBlocks:
    @settings(max_examples=300, deadline=None)
    @given(
        n_items=st.integers(1, 5000),
        item_shape=st.tuples(st.integers(1, 4), st.integers(1, 300), st.integers(1, 600)),
    )
    def test_rule(self, n_items, item_shape):
        values = int(np.prod(item_shape))
        spans = blocks(n_items, item_shape)
        assert [i for items in spans for i in items] == list(range(n_items))
        sizes = [len(items) for items in spans]
        assert max(sizes) - min(sizes) <= 1 and sizes == sorted(sizes, reverse=True)
        assert all(size * values <= BLOCK_VALUES or size == 1 for size in sizes)
        # as few blocks as the cap allows
        assert len(spans) == -(-n_items // max(1, BLOCK_VALUES // values))
        if n_items * values <= BLOCK_VALUES:
            assert spans == [range(n_items)]

    def test_sizes(self):
        item = (3, 32, 32)
        per = per_block(item)  # 21 at 2**16
        assert [len(items) for items in blocks(12 * per - 4, item)] == [per] * 8 + [per - 1] * 4
        sizes = [len(items) for items in blocks(three_blocks(item), item)]
        assert len(sizes) == 3 and sizes[0] > sizes[-1]
        assert blocks(per, item) == [range(per)]
        assert blocks(3, (1, 512, 512)) == [range(0, 1), range(1, 2), range(2, 3)]


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
        values = np.float32([1.0 / 3.0, -2.5, 1e-30, 3.0e38]).reshape(1, 2, 1, 2)
        path = tmp_path / "t32.fqg"
        path.write_bytes(fqg1_bytes(values, code=1))
        back = read_tensor(path)
        assert back.dims == (1, 2, 1, 2)
        assert back.data.tobytes() == values.astype(np.float64).tobytes()
        assert back.data[0, 0, 0, 0] == float(np.float32(1.0 / 3.0))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fqg"
        path.write_bytes(fqg1_bytes(rand((1, 1, 2, 2)).data, magic=b"XXXX"))
        with pytest.raises(FormatError, match="offset 0"):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.fqg"
        path.write_bytes(fqg1_bytes(rand((1, 1, 2, 2)).data)[:-3])
        with pytest.raises(FormatError, match="offset"):
            read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.fqg"
        path.write_bytes(fqg1_bytes(rand((1, 1, 2, 2)).data) + b"\x00")
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_unsupported_dtype_code(self, tmp_path):
        path = tmp_path / "code9.fqg"
        path.write_bytes(fqg1_bytes(rand((1, 1, 2, 2)).data, code=9))
        with pytest.raises(FormatError, match="offset 4"):
            read_tensor(path)

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"FQG1\x00", r"truncated header: 5 bytes, need 22 \(offset 5\)"),
            (fqg1_bytes(np.zeros((1, 1, 2, 2)), ndim=3), r"unsupported ndim 3 at offset 5"),
            (fqg1_bytes(np.zeros((1, 0, 2, 2))), r"non-positive dim in \(1, 0, 2, 2\) at offset 6"),
            (fqg1_bytes(np.zeros((1, 1, 2, 2)))[:-3], r"payload is 29 bytes, expected 32 \(offset 51\)"),
            (fqg1_bytes(np.zeros((1, 1, 2, 2))) + b"\x00", r"payload is 33 bytes, expected 32 \(offset 54\)"),
        ],
    )
    def test_header_messages(self, tmp_path, blob, message):
        path = tmp_path / "bad.fqg"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=message):
            TensorReader(path)

    def test_non_finite_value_is_shape_error(self, tmp_path):
        values = np.zeros((3, 1, 2, 2))
        values[2, 0, 1, 1] = np.nan
        path = tmp_path / "nan.fqg"
        path.write_bytes(fqg1_bytes(values))
        with TensorReader(path) as reader:
            assert reader.read(0, 2).data.tobytes() == values[:2].tobytes()
            with pytest.raises(ShapeError):
                reader.read(2, 3)

    def test_chunks_equal_the_whole_file(self, tmp_path):
        t = rand((7, 2, 3, 4))
        whole, chunked = tmp_path / "whole.fqg", tmp_path / "chunked.fqg"
        write_tensor(whole, t)
        with tensor_writer(chunked, t.dims) as append:
            for start in range(0, 7, 3):
                append(Tensor4(t.data[start:start + 3]))
        assert chunked.read_bytes() == whole.read_bytes()
        with TensorReader(whole) as reader:
            assert reader.dims == (7, 2, 3, 4)
            for start, stop in ((0, 7), (2, 5), (6, 7)):
                assert reader.read(start, stop).data.tobytes() == t.data[start:stop].tobytes()

    def test_incomplete_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "part.fqg"
        with pytest.raises(ShapeError, match="wrote 2 of 3 items"):
            with tensor_writer(path, (3, 1, 2, 2)) as append:
                append(rand((2, 1, 2, 2)))
        assert os.listdir(tmp_path) == []


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
