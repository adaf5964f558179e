"""Plain-text serialization of matrices, vectors, block layouts and reports.

Matrices and vectors are stored as header-less CSV of real numbers in
row-major order, printed with 17 significant digits so doubles round-trip
exactly. The block layout travels in a JSON sidecar ``{"m":…, "M":…, "d":…}``.
Every report's JSON form is :func:`json_fields` of the report, so its keys
follow the order of its dataclass fields.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .core import BlockedMatrix, BlockLayout, as_int

FLOAT_FMT = "%.17g"


def json_fields(obj) -> dict:
    """The JSON form of a dataclass instance: ``dataclasses.asdict`` with every
    tuple field turned into a list, keys in field order (nested dataclasses alike)."""
    return asdict(obj, dict_factory=_json_dict)


def _json_dict(pairs) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value for key, value in pairs}


def save_vector(path, values) -> None:
    arr = np.asarray(values, dtype=float).ravel()
    np.savetxt(path, arr.reshape(-1, 1), fmt=FLOAT_FMT, delimiter=",")


def load_vector(path) -> np.ndarray:
    """Read a CSV of numbers as a flat float vector (any line layout);
    ValueError when the file holds none."""
    with warnings.catch_warnings():
        # numpy warns about an empty file; it is refused below instead
        warnings.simplefilter("ignore", UserWarning)
        values = np.loadtxt(path, delimiter=",", dtype=float, ndmin=1).ravel()
    if not values.size:
        raise ValueError(f"{path} holds no numbers")
    return values


def save_layout(path, layout: BlockLayout, rows: int) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"m": int(rows), "M": layout.num_blocks, "d": layout.block_width},
            handle,
        )
        handle.write("\n")


def load_layout(path) -> tuple[int, BlockLayout]:
    """Read a layout sidecar; returns (rows, layout)."""
    with open(path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    if not isinstance(meta, dict):
        raise ValueError(f"layout sidecar {path} must be a JSON object")
    try:
        rows, M, d = (
            as_int(meta[key], f"layout sidecar {path}: {key}") for key in ("m", "M", "d")
        )
    except KeyError as exc:
        raise ValueError(f"layout sidecar {path} is missing key {exc}") from exc
    layout = BlockLayout(M, d)
    if rows < 1:
        raise ValueError("layout sidecar must declare m >= 1")
    return rows, layout


def save_matrix(matrix_path, matrix: BlockedMatrix, layout_path=None) -> None:
    """Write matrix entries as row-major CSV, optionally with its sidecar."""
    np.savetxt(matrix_path, matrix.entries, fmt=FLOAT_FMT, delimiter=",")
    if layout_path is not None:
        save_layout(layout_path, matrix.layout, matrix.rows)


def load_matrix(matrix_path, layout_path) -> BlockedMatrix:
    rows, layout = load_layout(layout_path)
    flat = load_vector(matrix_path)
    n = layout.ambient_dim
    if flat.size != rows * n:
        raise ValueError(
            f"{Path(matrix_path).name} holds {flat.size} numbers, layout "
            f"requires {rows}x{n}"
        )
    return BlockedMatrix(layout, flat.reshape(rows, n))
