"""Block layouts, block-sparse vectors, mixed norms, and blocked matrix views.

Every vector of length ``n = M*d`` is viewed as a concatenation of M blocks
of uniform width d, and every m x n matrix as a concatenation of M column
blocks of shape (m, d). Block indices are 1-based in all public interfaces.
All types are immutable after construction; the operations are pure
functions and safe to call concurrently.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

DEFAULT_ZERO_TOL = 1e-10
# entries tested per step of the finiteness check, which bounds its mask
_FINITE_CHECK_ENTRIES = 1 << 16


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only float64 array.

    An ndarray that is already float64, owns its memory and is read-only is
    adopted without a copy; anything else, in particular any writable array,
    is copied and the copy made read-only.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    arr = np.array(values, dtype=float, copy=True)
    arr.setflags(write=False)
    return arr


def _check_finite(arr: np.ndarray, what: str) -> None:
    """ValueError unless every entry of ``arr`` is finite.

    Tests a bounded number of rows at a time, so the boolean mask stays small
    however large ``arr`` is. (Testing the sum instead would reject finite
    entries whose sum overflows.)
    """
    row_size = arr.shape[1] if arr.ndim == 2 else 1
    step = max(1, _FINITE_CHECK_ENTRIES // row_size)
    for start in range(0, len(arr), step):
        if not np.isfinite(arr[start : start + step]).all():
            raise ValueError(f"{what} contains non-finite entries")


def _frozen_array(values, shape, what: str) -> np.ndarray:
    arr = _read_only(values)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    _check_finite(arr, what)
    return arr


def as_int(value, what: str, minimum: int = 1) -> int:
    """``value`` as a plain int; ValueError unless it is an integer (not a
    bool) of at least ``minimum``, which is 1 (positive) or 0 (nonnegative)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        kind = "positive" if minimum == 1 else "nonnegative"
        raise ValueError(f"{what} must be a {kind} integer, got {value}")
    return value


def as_real(value, what: str, positive: bool = False) -> float:
    """``value`` as a plain float; ValueError unless it is a finite real number
    (not a bool) that is nonnegative, or positive when ``positive`` is set."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    # false for NaN too; an integer too large for a double compares exactly
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} must be finite, got {value}")
    value = float(value)
    if value < 0.0 or (positive and value == 0.0):
        raise ValueError(f"{what} must be {'positive' if positive else 'nonnegative'}, got {value}")
    return value


@dataclass(frozen=True)
class BlockLayout:
    """Partition of ``num_blocks * block_width`` coordinates into uniform blocks."""

    num_blocks: int
    block_width: int

    def __post_init__(self):
        for name in ("num_blocks", "block_width"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))

    @property
    def ambient_dim(self) -> int:
        return self.num_blocks * self.block_width

    def block_slice(self, index: int) -> slice:
        """Coordinate slice of block ``index`` (1-based)."""
        self.check_index(index)
        d = self.block_width
        return slice((index - 1) * d, index * d)

    def columns(self, indices) -> np.ndarray:
        """Coordinates of the blocks ``indices`` (1-based, unchecked): row j
        holds the d coordinates of block ``indices[j]``."""
        d = self.block_width
        return (np.asarray(indices, dtype=int).reshape(-1, 1) - 1) * d + np.arange(d)

    def check_index(self, index: int) -> None:
        if not 1 <= index <= self.num_blocks:
            raise ValueError(
                f"block index {index} out of range 1..{self.num_blocks}"
            )

    def block_indices(self) -> range:
        """All block indices, 1-based."""
        return range(1, self.num_blocks + 1)


@dataclass(frozen=True, eq=False)
class BlockSignal:
    """A length-n real vector viewed through a :class:`BlockLayout`."""

    layout: BlockLayout
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _frozen_array(self.values, (self.layout.ambient_dim,), "signal")
        object.__setattr__(self, "values", arr)

    def block(self, index: int) -> np.ndarray:
        return self.values[self.layout.block_slice(index)]

    @classmethod
    def zero(cls, layout: BlockLayout) -> "BlockSignal":
        return cls(layout, np.zeros(layout.ambient_dim))

    @classmethod
    def from_blocks(cls, layout: BlockLayout, blocks: dict) -> "BlockSignal":
        """Assemble a signal from a {block index: width-d vector} mapping."""
        values = np.zeros(layout.ambient_dim)
        for index, blk in blocks.items():
            values[layout.block_slice(index)] = np.asarray(blk, dtype=float)
        return cls(layout, values)


@dataclass(frozen=True, eq=False)
class BlockedMatrix:
    """An m x n real matrix whose columns carry the block layout."""

    layout: BlockLayout
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _read_only(self.entries)
        if arr.ndim != 2:
            raise ValueError("matrix entries must be two-dimensional")
        if arr.shape[1] != self.layout.ambient_dim:
            raise ValueError(
                f"matrix has {arr.shape[1]} columns, layout requires "
                f"{self.layout.ambient_dim}"
            )
        _check_finite(arr, "matrix")
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    def block(self, index: int) -> np.ndarray:
        """Column block ``index`` as an (m, d) view."""
        return self.entries[:, self.layout.block_slice(index)]


@dataclass(frozen=True, eq=False)
class SensingProblem:
    """Measurement matrix and observed vector, all the pursuit reads. No noise
    bound: Lemma 1 in :mod:`bomp.proofs` reads its instance's own noise."""

    matrix: BlockedMatrix
    observation: np.ndarray = field(repr=False)

    def __post_init__(self):
        y = _frozen_array(self.observation, (self.matrix.rows,), "observation")
        object.__setattr__(self, "observation", y)


def block_norms(x: BlockSignal) -> np.ndarray:
    """Per-block Euclidean norms: entry ``l`` is ||x[l]||_2."""
    d = x.layout.block_width
    return np.linalg.norm(x.values.reshape(x.layout.num_blocks, d), axis=1)


def mixed_norm(x: BlockSignal, p) -> float:
    """Mixed l2/lp norm: the lp norm of the vector of per-block l2 norms.

    ``p`` must be 1, 2, or infinity. For p=2 this coincides with the plain
    Euclidean norm of the flat vector.
    """
    w = block_norms(x)
    if p == 1:
        return float(np.sum(w))
    if p == 2:
        return float(np.linalg.norm(w))
    if p == math.inf:
        return float(np.max(w))
    raise ValueError(f"unsupported mixed-norm order {p!r}; use 1, 2, or math.inf")


def block_support(x: BlockSignal, zero_tol: float = DEFAULT_ZERO_TOL) -> tuple:
    """Block indices whose block norm exceeds ``zero_tol``, ascending.

    The default tolerance separates genuine zeros from least-squares
    round-off at double precision.
    """
    zero_tol = as_real(zero_tol, "zero_tol")
    w = block_norms(x)
    return tuple(int(i) + 1 for i in np.nonzero(w > zero_tol)[0])


def extract_blocks(A: BlockedMatrix, support) -> np.ndarray:
    """Horizontal concatenation of the column blocks indexed by ``support``.

    Blocks are concatenated in ascending index order regardless of the
    order given; duplicate or out-of-range indices are rejected. An empty
    support yields an (m, 0) matrix.
    """
    indices = [int(i) for i in support]
    for i in indices:
        A.layout.check_index(i)
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate block indices in support {indices}")
    indices.sort()
    return A.entries[:, A.layout.columns(indices).ravel()]


def gaussian_instance(
    rng: np.random.Generator,
    layout: BlockLayout,
    rows: int,
    sparsity: int,
    draw_blocks,
    epsilon: float,
):
    """Random block-sparse instance over a Gaussian dictionary; returns
    (problem, truth).

    Draws from ``rng`` in this order, which seeded streams depend on: the
    dictionary with i.i.d. entries of variance 1/rows; a uniform random
    size-``sparsity`` block support; the supported blocks as
    ``draw_blocks(rng, sparsity)``, in ascending index order; and, only when
    ``epsilon > 0``, noise rescaled to norm exactly ``epsilon``. The problem
    keeps no record of ``epsilon``; the noise is ``observation - A @ truth``.
    """
    entries = rng.normal(size=(rows, layout.ambient_dim))
    entries /= math.sqrt(rows)  # in place: no second dictionary-sized temporary
    entries.setflags(write=False)  # so the matrix adopts it without a copy
    A = BlockedMatrix(layout, entries)
    chosen = rng.choice(layout.num_blocks, size=sparsity, replace=False) + 1
    support = sorted(int(i) for i in chosen)
    truth = BlockSignal.from_blocks(layout, dict(zip(support, draw_blocks(rng, sparsity))))
    noise = np.zeros(rows)
    if epsilon > 0.0:
        raw = rng.normal(size=rows)
        noise = raw * (epsilon / np.linalg.norm(raw))
    y = A.entries @ truth.values + noise
    return SensingProblem(matrix=A, observation=y), truth
