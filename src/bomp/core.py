"""Block layouts, block-sparse vectors, mixed norms, and blocked matrix views.

Every vector of length ``n = M*d`` is viewed as a concatenation of M blocks
of uniform width d, and every m x n matrix as a concatenation of M column
blocks of shape (m, d). Block indices are 1-based in all public interfaces.
All types are immutable after construction; the operations are pure
functions and safe to call concurrently. They keep no state between calls,
and a draw touches only the Generator and the arrays its caller passes: the
experiments draw on several threads at once, each trial's Generator and
slices of the stacks private to its share, so no two threads share a stream.

One power-of-two rule, ``_scaled_to_largest``, keeps every norm in range at
both ends: the norms here square at unit scale and scale back, so a norm
reads inf only past the largest double. The pursuit holds its residuals by
the same rule, and its rank screen scales R by it.
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
# The most doubles a count may ask one array for (512 PiB). Past about 8 EiB
# NumPy refuses an array with a message that names no parameter; below this,
# an allocation that fails is a MemoryError that gives its size.
MAX_ARRAY_DOUBLES = 1 << 56


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
        index = self.check_index(index)
        d = self.block_width
        return slice((index - 1) * d, index * d)

    def columns(self, indices) -> np.ndarray:
        """Coordinates of the blocks ``indices`` (1-based, unchecked): row j
        holds the d coordinates of block ``indices[j]``."""
        d = self.block_width
        return (np.asarray(indices, dtype=int).reshape(-1, 1) - 1) * d + np.arange(d)

    def check_index(self, index) -> int:
        """``index`` as a plain int: the one rule for a block index. ValueError
        unless it is an integer (not a bool) in 1..num_blocks."""
        if isinstance(index, bool) or not isinstance(index, numbers.Integral):
            raise ValueError(f"block index must be an integer, got {index!r}")
        if not 1 <= index <= self.num_blocks:
            raise ValueError(f"block index {index} out of range 1..{self.num_blocks}")
        return int(index)

    def check_support(self, indices) -> list:
        """``indices`` as an ascending list of plain ints: the one rule for a
        support. ValueError for an index :meth:`check_index` refuses or a repeat."""
        support = [self.check_index(i) for i in indices]
        if len(set(support)) != len(support):
            raise ValueError(f"duplicate block indices in support {sorted(support)}")
        return sorted(support)

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


def _scaled_to_largest(vectors: np.ndarray):
    """``(vectors * 2^-e, e)``: each row scaled by the power of two that
    brings its largest magnitude into [1/2, 1), with its exponents e. A zero
    row stays as it is (e = 0). The scaling is exact unless it rounds an
    entry into the subnormal range, which a scale up never does."""
    exponents = np.frexp(np.abs(vectors).max(axis=1))[1]
    return np.ldexp(vectors, -exponents[:, None]), exponents


def block_norms(x: BlockSignal) -> np.ndarray:
    """Per-block Euclidean norms: entry ``l`` is ||x[l]||_2, taken at unit
    scale (``_scaled_to_largest``), so a block of 1e-170 or 1e200 keeps its
    norm and only one past the largest double reads inf. The operations are
    ``np.linalg.norm``'s, with its bits wherever no unscaled square would
    underflow or overflow."""
    rho, e = _scaled_to_largest(x.values.reshape(x.layout.num_blocks, x.layout.block_width))
    return np.ldexp(np.sqrt(np.add.reduce(rho * rho, axis=1)), e)


def mixed_norm(x: BlockSignal, p) -> float:
    """Mixed l2/lp norm: the lp norm of the vector of per-block l2 norms.

    ``p`` must be 1, 2, or infinity, and not a bool. For p=2 this coincides
    with the plain Euclidean norm of the flat vector, taken from the block
    norms at unit scale as :func:`block_norms` takes them, so it too reads
    inf only past the largest double.
    """
    if isinstance(p, (bool, np.bool_)) or p not in (1, 2, math.inf):
        raise ValueError(f"unsupported mixed-norm order {p!r}; use 1, 2, or math.inf")
    w = block_norms(x)
    if p != 2:
        return float(np.sum(w) if p == 1 else np.max(w))
    (rho,), (e,) = _scaled_to_largest(w[None])
    return float(np.ldexp(np.sqrt(rho.dot(rho)), e))


def block_support(x: BlockSignal, zero_tol: float = DEFAULT_ZERO_TOL) -> tuple:
    """Block indices whose block norm exceeds ``zero_tol``, ascending.

    The default tolerance separates genuine zeros from least-squares
    round-off at double precision.
    """
    zero_tol = as_real(zero_tol, "zero_tol")
    return _support_of_norms(block_norms(x), zero_tol)


def _support_of_norms(w: np.ndarray, zero_tol: float = DEFAULT_ZERO_TOL) -> tuple:
    """:func:`block_support` from the block norms ``w``, for a caller that keeps them."""
    return tuple(int(i) + 1 for i in np.nonzero(w > zero_tol)[0])


def extract_blocks(A: BlockedMatrix, support) -> np.ndarray:
    """Horizontal concatenation of the column blocks indexed by ``support``.

    Blocks are concatenated in ascending index order regardless of the
    order given; duplicate or out-of-range indices are rejected. An empty
    support yields an (m, 0) matrix.
    """
    return A.entries[:, A.layout.columns(A.layout.check_support(support)).ravel()]


def gaussian_instance(
    rng: np.random.Generator, layout: BlockLayout, rows: int, sparsity: int, epsilon: float
):
    """Random block-sparse instance of the proof sweeps (:mod:`bomp.proofs`)
    over a Gaussian dictionary; returns (problem, truth).

    Draws from ``rng`` in this order, which seeded streams depend on: the
    dictionary with i.i.d. entries of variance 1/rows; a uniform random
    size-``sparsity`` block support; the supported blocks with i.i.d.
    standard normal entries, in ascending index order; and, only when
    ``epsilon > 0``, noise rescaled to norm exactly ``epsilon``. The problem
    keeps no record of ``epsilon``; the noise is ``observation - A @ truth``.
    This is :func:`_draw_gaussian` on a stack of one (:func:`_instance`).
    """

    def normal_blocks(rng, count):
        return rng.normal(size=(count, layout.block_width))

    return _instance(layout, rows, _draw_gaussian, rng, layout, sparsity, normal_blocks, epsilon)


def _instance(layout: BlockLayout, rows: int, draw, *args):
    """(problem, truth) of ``draw(*args, out)`` on a fresh (rows, n), (rows,), (n,)
    ``out``, made read-only after it so the wrappers adopt it uncopied and check it."""
    n = layout.ambient_dim
    entries, observation, truth = out = (np.empty((rows, n)), np.empty(rows), np.empty(n))
    draw(*args, out)
    for arr in out:
        arr.setflags(write=False)
    return SensingProblem(BlockedMatrix(layout, entries), observation), BlockSignal(layout, truth)


def _draw_gaussian(rng, layout, sparsity, draw_blocks, epsilon, out) -> None:
    """The draw shared by the proof sweeps' :func:`gaussian_instance` and the
    experiments' :func:`bomp.experiment.generate_instance`, which differ only in
    ``draw_blocks(rng, sparsity)``, a (sparsity, width) array of the supported
    blocks in ascending index order. Writes ``out``, a C-contiguous float64
    (dictionary, observation, truth) triple shaped as in :func:`_instance`; the
    blocks go into the truth through ``layout.columns``, whose indices come
    from ``rng.choice`` and need no check.

    ``rng.standard_normal(out=...)`` gives the values of ``rng.normal(size=...)``
    and leaves the generator in the same state. Nothing is checked here: the
    caller applies the finiteness checks of :class:`BlockedMatrix` and
    :class:`SensingProblem`.
    """
    entries, observation, truth = out
    rows = entries.shape[0]
    rng.standard_normal(out=entries)
    entries /= math.sqrt(rows)  # in place: no second dictionary-sized temporary
    support = np.sort(rng.choice(layout.num_blocks, size=sparsity, replace=False)) + 1
    truth[:] = 0.0
    truth[layout.columns(support)] = draw_blocks(rng, sparsity)
    noise = np.zeros(rows)
    if epsilon > 0.0:
        raw = rng.normal(size=rows)
        noise = raw * (epsilon / np.linalg.norm(raw))
    observation[:] = entries @ truth + noise
