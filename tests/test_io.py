import json
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bomp.core import BlockedMatrix, BlockLayout
from bomp.io import (
    load_layout,
    load_matrix,
    load_vector,
    save_layout,
    save_matrix,
    save_vector,
)


def test_vector_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    v = rng.normal(size=37) * np.exp(rng.normal(size=37) * 8)
    path = tmp_path / "v.csv"
    save_vector(path, v)
    # 17 significant digits reproduce doubles bit for bit
    np.testing.assert_array_equal(load_vector(path), v)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64)
)
# negative zero, the smallest subnormal, the smallest normal and the largest float
@example(values=[-0.0, 5e-324, 2.2250738585072009e-308, sys.float_info.max, -sys.float_info.max])
def test_property_vector_roundtrip_is_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    save_vector(path, values)
    want = np.array(values, dtype=float)
    np.testing.assert_array_equal(load_vector(path).view(np.uint64), want.view(np.uint64))


def test_matrix_roundtrip_with_sidecar(tmp_path):
    rng = np.random.default_rng(1)
    layout = BlockLayout(4, 3)
    A = BlockedMatrix(layout, rng.normal(size=(7, 12)))
    save_matrix(tmp_path / "A.csv", A, tmp_path / "A.json")
    back = load_matrix(tmp_path / "A.csv", tmp_path / "A.json")
    np.testing.assert_array_equal(back.entries, A.entries)
    assert back.layout == layout


def test_layout_roundtrip(tmp_path):
    path = tmp_path / "layout.json"
    save_layout(path, BlockLayout(5, 2), rows=11)
    rows, layout = load_layout(path)
    assert rows == 11
    assert layout == BlockLayout(5, 2)
    assert json.loads(path.read_text()) == {"m": 11, "M": 5, "d": 2}


def test_layout_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"m": 4, "M": 2}')
    with pytest.raises(ValueError, match="missing key"):
        load_layout(path)


def test_layout_bad_rows(tmp_path):
    path = tmp_path / "bad.json"
    for m in ("0", "2.5", "null"):
        path.write_text(f'{{"m": {m}, "M": 2, "d": 1}}')
        with pytest.raises(ValueError):
            load_layout(path)


def test_matrix_size_mismatch(tmp_path):
    layout_path = tmp_path / "A.json"
    save_layout(layout_path, BlockLayout(2, 2), rows=3)
    matrix_path = tmp_path / "A.csv"
    save_vector(matrix_path, np.arange(10.0))  # needs 12 numbers
    with pytest.raises(ValueError, match="holds 10 numbers"):
        load_matrix(matrix_path, layout_path)


def test_vector_reads_ragged_rows_in_file_order(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("# a comment line\n1,2\n3\n\n4, 5 # trailing comment\n")
    np.testing.assert_array_equal(load_vector(path), [1.0, 2.0, 3.0, 4.0, 5.0])


def test_vector_refuses_a_field_that_is_not_a_number(tmp_path):
    path = tmp_path / "bad.csv"
    for text in ("1,,2\n", "1,abc\n", "1,2,\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 1: "):
            load_vector(path)
