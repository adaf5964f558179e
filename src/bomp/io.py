"""Plain-text serialization of matrices, vectors, block layouts and reports.

Matrices and vectors are stored as header-less CSV of real numbers in
row-major order, printed with 17 significant digits so doubles round-trip
exactly. The block layout travels in a JSON sidecar ``{"m":…, "M":…, "d":…}``.
Every report's JSON form is :func:`json_fields` of the report, so its keys
follow the order of its dataclass fields.
"""

from __future__ import annotations

import json
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
    """The comma-separated numbers of a file as a flat float vector, in file
    order whatever the row lengths; text after ``#`` is a comment. ValueError,
    naming the file, on a field that is not a number and on a file with none."""
    values = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.partition("#")[0].strip()
            if line:
                try:
                    values += map(float, line.split(","))
                except ValueError as exc:
                    raise ValueError(f"{path} line {number}: {exc}") from None
    if not values:
        raise ValueError(f"{path} holds no numbers")
    return np.array(values)


def load_json_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``; ValueError, naming ``what`` and
    the file, when the file holds something else or nests too deeply to parse."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError(f"{what} {path} nests too deeply to parse") from None
    if not isinstance(data, dict):
        raise ValueError(f"{what} {path} must be a JSON object")
    return data


def checked_keys(data: dict, allowed, required, what: str) -> dict:
    """``data`` unchanged; ValueError, naming ``what`` and the keys, unless every
    key is one of ``allowed`` and every name in ``required`` is a key."""
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        raise ValueError(f"{what} is missing keys: {sorted(missing)}")
    return data


def save_layout(path, layout: BlockLayout, rows: int) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"m": int(rows), "M": layout.num_blocks, "d": layout.block_width},
            handle,
        )
        handle.write("\n")


def load_layout(path) -> tuple[int, BlockLayout]:
    """Read a layout sidecar; returns (rows, layout)."""
    where, keys = f"layout sidecar {path}", ("m", "M", "d")
    meta = checked_keys(load_json_object(path, "layout sidecar"), keys, keys, where)
    rows, M, d = (as_int(meta[key], f"{where}: {key}") for key in keys)
    return rows, BlockLayout(M, d)


def save_matrix(matrix_path, matrix: BlockedMatrix, layout_path) -> None:
    """Write matrix entries as row-major CSV and its layout sidecar, the pair
    :func:`load_matrix` reads back."""
    np.savetxt(matrix_path, matrix.entries, fmt=FLOAT_FMT, delimiter=",")
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
