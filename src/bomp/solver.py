"""Block orthogonal matching pursuit.

Each iteration picks the block whose columns correlate most strongly with
the current residual, then projects the observation onto the span of all
blocks chosen so far. ``run_bomp`` keeps that span as a thin QR factorization
A_S = Q R of the chosen blocks and extends it by one block per pick: the new
block is orthogonalized against Q twice (classical block Gram-Schmidt with one
re-orthogonalization, which suffices for any numerically full-rank
subdictionary) and its remainder is QR-factored into the next d columns of Q
and R. The residual update is then ``r -= q (q' r)``, and the estimate is
solved once at the end from ``R coef = Q' y``.

The rank check is deferred to the end. R has the singular values of the
subdictionary, and adding columns never raises the smallest one nor lowers
the largest (Cauchy interlacing), so one SVD of the final R detects a rank
failure at any step; only then are the leading blocks of R scanned for the
first failing prefix. ``project_least_squares`` is the one-shot SVD route,
kept as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BlockedMatrix, BlockSignal, SensingProblem, as_int, as_real, extract_blocks
from .errors import RankDeficientError

RANK_TOL = 1e-10
ORTHO_TOL = 1e-8

RESIDUAL_THRESHOLD = "residual_threshold"
FIXED_ITERATIONS = "fixed_iterations"
BOTH = "both"

STATUS_CONVERGED = "converged"
STATUS_BUDGET_EXCEEDED = "iteration_budget_exceeded"


@dataclass(frozen=True)
class StoppingRule:
    """When to stop iterating.

    ``residual_threshold`` stops once the residual norm drops to ``epsilon``
    (``max_iterations``, if given, acts as a safety budget); ``fixed_iterations``
    runs exactly ``max_iterations``; ``both`` stops at whichever fires first.
    """

    mode: str
    epsilon: float = 0.0
    max_iterations: int | None = None

    def __post_init__(self):
        if self.mode not in (RESIDUAL_THRESHOLD, FIXED_ITERATIONS, BOTH):
            raise ValueError(f"unknown stopping mode {self.mode!r}")
        object.__setattr__(self, "epsilon", as_real(self.epsilon, "epsilon"))
        if self.max_iterations is not None:
            object.__setattr__(
                self, "max_iterations", as_int(self.max_iterations, "max_iterations")
            )
        if self.mode in (RESIDUAL_THRESHOLD, BOTH) and not self.epsilon >= 0.0:
            raise ValueError("epsilon must be nonnegative")
        if (self.max_iterations is None and self.mode in (FIXED_ITERATIONS, BOTH)) or (
            self.max_iterations is not None and self.max_iterations < 1
        ):
            raise ValueError("max_iterations must be a positive integer")


@dataclass(frozen=True, eq=False)
class RecoveryTrace:
    """Per-iteration record of a pursuit run.

    ``residual_norms[k]`` is the residual norm after k iterations, so the
    list starts at ||y||_2 and has length ``iterations_run + 1``.
    """

    chosen_indices: tuple
    residual_norms: tuple
    final_estimate: BlockSignal
    iterations_run: int
    status: str = STATUS_CONVERGED

    def to_dict(self) -> dict:
        return {
            "chosen_indices": list(self.chosen_indices),
            "residual_norms": list(self.residual_norms),
            "final_estimate": self.final_estimate.values.tolist(),
            "iterations_run": self.iterations_run,
            "status": self.status,
        }


def select_block(A: BlockedMatrix, r: np.ndarray, exclude=()) -> int:
    """Index of the block maximizing ||A[l]' r||_2, smallest index on ties.

    Blocks in ``exclude`` are masked out of the argmax; they cannot win
    anyway once the residual is orthogonal to them, but masking makes the
    choice robust to round-off.
    """
    scores = block_correlation_scores(A, r)
    if exclude:
        for i in exclude:
            A.layout.check_index(i)
        scores[np.asarray(exclude, dtype=int) - 1] = -1.0
    # np.argmax returns the first maximum, which is the smallest block index
    return int(np.argmax(scores)) + 1


def block_correlation_scores(A: BlockedMatrix, r: np.ndarray) -> np.ndarray:
    """All selection scores ||A[l]' r||_2 as a length-M vector."""
    r = np.asarray(r, dtype=float)
    if r.shape != (A.rows,):
        raise ValueError(f"residual must have length {A.rows}")
    M = A.layout.num_blocks
    return np.linalg.norm(
        (A.entries.T @ r).reshape(M, A.layout.block_width), axis=1
    )


def _rank_failure(indices, sigma: np.ndarray):
    """The error for the subdictionary on ``indices`` with descending singular
    values ``sigma``, or None when it clears ``RANK_TOL``."""
    if sigma[0] == 0.0 or sigma[-1] < RANK_TOL * sigma[0]:
        return RankDeficientError(
            f"subdictionary on blocks {indices} is rank deficient "
            f"(singular values {sigma[-1]:.3e} .. {sigma[0]:.3e})"
        )
    return None


def _checked_svd(A: BlockedMatrix, indices: list):
    """Thin SVD of the subdictionary on the sorted block ``indices``.

    Returns ``(sub, U, sigma, Vt)``; raises :class:`RankDeficientError` when
    ``sub`` has more columns than rows or fails :func:`_rank_failure`.
    """
    sub = extract_blocks(A, indices)
    if sub.shape[1] > A.rows:
        raise RankDeficientError(
            f"support spans {sub.shape[1]} columns but only {A.rows} rows"
        )
    U, sigma, Vt = np.linalg.svd(sub, full_matrices=False)
    if sigma.size:
        error = _rank_failure(indices, sigma)
        if error is not None:
            raise error
    return sub, U, sigma, Vt


def project_least_squares(A: BlockedMatrix, support, y: np.ndarray):
    """Least-squares fit of ``y`` on the blocks in ``support``.

    Returns ``(estimate, residual)`` where the estimate is zero outside the
    support and ``residual = y - A @ estimate``; the residual is orthogonal
    to every supported column. Raises :class:`RankDeficientError` when the
    subdictionary's smallest singular value falls below ``RANK_TOL`` times
    its largest.

    This is the reference route: one SVD of the whole subdictionary per call.
    ``run_bomp`` reaches the same projections incrementally, and the proof
    checks and the solver's differential tests compare against this one.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (A.rows,):
        raise ValueError(f"observation must have length {A.rows}")
    indices = sorted(int(i) for i in support)
    sub, U, sigma, Vt = _checked_svd(A, indices)
    coef = Vt.T @ ((U.T @ y) / sigma)
    values = np.zeros(A.layout.ambient_dim)
    d = A.layout.block_width
    for pos, i in enumerate(indices):
        values[A.layout.block_slice(i)] = coef[pos * d : (pos + 1) * d]
    estimate = BlockSignal(A.layout, values)
    residual = y - sub @ coef
    return estimate, residual


def _raise_first_rank_failure(A: BlockedMatrix, chosen: list, R: np.ndarray, y) -> None:
    """Raise the reference error for the shortest rank-deficient prefix of ``chosen``.

    ``R`` is the triangular factor of the chosen blocks in pick order, so its
    leading (j*d) x (j*d) corner has the singular values of the first j blocks.
    """
    d = A.layout.block_width
    for j in range(1, len(chosen) + 1):
        sigma = np.linalg.svd(R[: j * d, : j * d], compute_uv=False)
        error = _rank_failure(sorted(chosen[:j]), sigma)
        if error is not None:
            # the reference reports the subdictionary's own singular values
            project_least_squares(A, chosen[:j], y)
            # reached only when the reference lands just on the other side of RANK_TOL
            raise error


def run_bomp(problem: SensingProblem, stop: StoppingRule) -> RecoveryTrace:
    """Run the pursuit until the stopping rule fires.

    The trace records the chosen block of every iteration and the residual
    norm after each projection. If the rule cannot be met before the
    iteration budget (or before the dictionary runs out of usable blocks),
    the trace comes back with status ``iteration_budget_exceeded`` instead
    of raising. A rank-deficient subdictionary at any step raises the
    :class:`RankDeficientError` that ``project_least_squares`` gives for the
    first failing prefix of the picks.
    """
    A = problem.matrix
    y = problem.observation
    d = A.layout.block_width
    # least squares needs at most rows/width blocks; never more than all of them
    capacity = min(A.layout.num_blocks, A.rows // d)
    budget = capacity if stop.max_iterations is None else min(stop.max_iterations, capacity)

    # thin QR of the chosen blocks in pick order: A_S = Q[:, :n] @ R[:n, :n]
    Q = np.empty((A.rows, budget * d))
    R = np.zeros((budget * d, budget * d))
    chosen: list[int] = []
    residual = y.copy()
    norms = [float(np.linalg.norm(residual))]
    status = STATUS_BUDGET_EXCEEDED

    check_residual = stop.mode in (RESIDUAL_THRESHOLD, BOTH)
    check_count = stop.mode in (FIXED_ITERATIONS, BOTH)

    while True:
        if check_residual and norms[-1] <= stop.epsilon:
            status = STATUS_CONVERGED
            break
        if check_count and len(chosen) == stop.max_iterations:
            status = STATUS_CONVERGED
            break
        if len(chosen) == budget:
            break
        index = select_block(A, residual, exclude=chosen)
        n = len(chosen) * d
        basis = Q[:, :n]
        block = A.block(index)
        # block Gram-Schmidt, applied twice to remove what round-off left behind
        c1 = basis.T @ block
        block = block - basis @ c1
        c2 = basis.T @ block
        block -= basis @ c2
        q, r_diag = np.linalg.qr(block)
        Q[:, n : n + d] = q
        R[:n, n : n + d] = c1 + c2
        R[n : n + d, n : n + d] = r_diag
        chosen.append(index)
        residual -= q @ (q.T @ residual)
        norms.append(float(np.linalg.norm(residual)))

    values = np.zeros(A.layout.ambient_dim)
    n = len(chosen) * d
    if n:
        if _rank_failure(chosen, np.linalg.svd(R[:n, :n], compute_uv=False)) is not None:
            _raise_first_rank_failure(A, chosen, R, y)
        coef = np.linalg.solve(R[:n, :n], Q[:, :n].T @ y)
        columns = (np.asarray(chosen)[:, None] - 1) * d + np.arange(d)
        values[columns.ravel()] = coef

    return RecoveryTrace(
        chosen_indices=tuple(chosen),
        residual_norms=tuple(norms),
        final_estimate=BlockSignal(A.layout, values),
        iterations_run=len(chosen),
        status=status,
    )
