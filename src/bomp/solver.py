"""Block orthogonal matching pursuit.

Each iteration picks the block whose columns correlate most strongly with
the current residual, then projects the observation onto the span of all
blocks chosen so far. ``run_bomp_batch`` runs the pursuit on a stack of
same-shape problems at once, and ``run_bomp`` is that kernel on a batch of
one. Per pick, one stacked product scores every residual against every
block, blocks already chosen are masked out, and each problem takes its
argmax (the smallest index on ties). Each problem keeps its span as a thin
QR factorization A_S = Q R of its chosen blocks and extends it by one block
per pick: the new block is orthogonalized against Q twice (classical block
Gram-Schmidt with one re-orthogonalization, which suffices for any
numerically full-rank subdictionary) and its remainder is QR-factored, in
one stacked call for the batch, into the next d columns of Q and R. The
residual update is then ``r -= q (q' r)``. A problem whose stopping rule
fires leaves the batch, and its estimate is solved from ``R coef = Q' y``.

The rank check is deferred to that point. R has the singular values of the
subdictionary, and adding columns never raises the smallest one nor lowers
the largest (Cauchy interlacing), so one SVD of the final R detects a rank
failure at any step; only then are the leading blocks of R scanned for the
first failing prefix. ``project_least_squares`` is the one-shot SVD route,
kept as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BlockedMatrix, BlockSignal, SensingProblem, as_int, as_real, extract_blocks
from .errors import BompError, RankDeficientError
from .io import json_fields

RANK_TOL = 1e-10

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
    iterations_run: int = field(init=False)
    status: str = STATUS_CONVERGED

    def __post_init__(self):
        object.__setattr__(self, "iterations_run", len(self.chosen_indices))

    def to_dict(self) -> dict:
        return {**json_fields(self), "final_estimate": self.final_estimate.values.tolist()}


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
    """All selection scores ||A[l]' r||_2 as a length-M vector.

    Raises :class:`BompError` when a score is not finite: an argmax over
    overflowed scores would pick a block by its index, not by correlation.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (A.rows,):
        raise ValueError(f"residual must have length {A.rows}")
    scores = _stacked_scores(A.entries[None], r[None], A.layout.block_width)[0]
    if not np.isfinite(scores).all():
        raise _overflow_error()
    return scores


def _stacked_scores(entries: np.ndarray, residuals: np.ndarray, d: int) -> np.ndarray:
    """Selection scores of a stack of problems: entry [t, l] is ||A_t[l]' r_t||_2.

    Overflow is not warned about; callers test the scores for finiteness.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        products = np.matmul(entries.transpose(0, 2, 1), residuals[:, :, None])
        return np.linalg.norm(products.reshape(len(residuals), -1, d), axis=2)


def _stacked_norms(residuals: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, each by its own dot product (as
    ``np.linalg.norm`` takes it for one vector), so a row's norm does not
    depend on the rows stacked with it. Overflow is not warned about."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(np.matmul(residuals[:, None, :], residuals[:, :, None])[:, 0, 0])


def _overflow_error() -> BompError:
    return BompError("the residual norm or the block selection scores overflow double precision")


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
    values[A.layout.columns(indices).ravel()] = coef
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
    first failing prefix of the picks; a residual norm or selection scores
    that overflow raise :class:`BompError`.

    This is :func:`run_bomp_batch` on a batch of one.
    """
    (outcome,) = run_bomp_batch([problem], stop)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_bomp_batch(problems, stop: StoppingRule) -> list:
    """Run the pursuit on each of ``problems``, which share one matrix shape
    and block layout.

    Returns one outcome per problem, in order: the trace ``run_bomp`` gives
    for that problem alone, or the exception it raises. The problems advance
    together, one pick per step, and each keeps its own stopping state, so
    no outcome depends on the others in the batch.
    """
    A = problems[0].matrix
    layout, m = A.layout, A.rows
    if any(p.matrix.layout != layout or p.matrix.rows != m for p in problems):
        raise ValueError("problems in a batch must share one matrix shape and block layout")
    d = layout.block_width
    size = len(problems)
    # least squares needs at most rows/width blocks; never more than all of them
    capacity = min(layout.num_blocks, m // d)
    budget = capacity if stop.max_iterations is None else min(stop.max_iterations, capacity)

    # a batch of one reads its dictionary in place
    entries = A.entries[None] if size == 1 else np.stack([p.matrix.entries for p in problems])
    residual = np.stack([p.observation for p in problems])
    # thin QR of each problem's chosen blocks in pick order:
    # A_S = Q[t, :, :n] @ R[t, :n, :n]
    Q = np.empty((size, m, budget * d))
    R = np.zeros((size, budget * d, budget * d))
    chosen = np.zeros((size, budget), dtype=int)
    taken = np.zeros((size, layout.num_blocks), dtype=bool)
    norms = np.empty((size, budget + 1))
    norms[:, 0] = _stacked_norms(residual)
    outcomes: list = [None] * size
    # projections only shrink the residual, so its first norm is the one to test
    active = np.isfinite(norms[:, 0])
    for t in np.flatnonzero(~active):
        outcomes[t] = _overflow_error()

    check_residual = stop.mode in (RESIDUAL_THRESHOLD, BOTH)
    check_count = stop.mode in (FIXED_ITERATIONS, BOTH)

    for k in range(budget + 1):
        converged = np.zeros(size, dtype=bool)
        if check_residual:
            converged |= norms[:, k] <= stop.epsilon
        if check_count and k == stop.max_iterations:
            converged[:] = True
        stopping = active & (converged | (k == budget))
        for t in np.flatnonzero(stopping):
            status = STATUS_CONVERGED if converged[t] else STATUS_BUDGET_EXCEEDED
            try:
                outcomes[t] = _finish(
                    problems[t], chosen[t, :k], norms[t, : k + 1], Q[t], R[t], status
                )
            except (BompError, np.linalg.LinAlgError) as exc:
                outcomes[t] = exc
        active &= ~stopping
        live = np.flatnonzero(active)
        if not live.size:
            break

        # a slice keeps views while every problem is still running; once some
        # have stopped, the rest are gathered into copies
        rows = slice(None) if live.size == size else live
        stack = entries[rows]
        scores = _stacked_scores(stack, residual[rows], d)
        finite = np.isfinite(scores).all(axis=1)
        if not finite.all():
            for t in live[~finite]:
                outcomes[t] = _overflow_error()
            active[live[~finite]] = False
            live, stack, scores = live[finite], stack[finite], scores[finite]
            if not live.size:
                break
            rows = live
        scores[taken[rows]] = -1.0
        # np.argmax returns the first maximum, which is the smallest block index
        picks = np.argmax(scores, axis=1)
        taken[live, picks] = True
        chosen[live, k] = picks + 1

        n = k * d
        # trimmed after the gather, so BLAS sees the same strides either way
        # and a problem's round-off does not depend on which others still run
        basis = Q[rows][:, :, :n]
        block = np.take_along_axis(stack, layout.columns(picks + 1)[:, None, :], axis=2)
        # block Gram-Schmidt, applied twice to remove what round-off left behind
        c1 = np.matmul(basis.transpose(0, 2, 1), block)
        block = block - np.matmul(basis, c1)
        c2 = np.matmul(basis.transpose(0, 2, 1), block)
        block -= np.matmul(basis, c2)
        q, r_diag = np.linalg.qr(block)
        Q[rows, :, n : n + d] = q
        R[rows, :n, n : n + d] = c1 + c2
        R[rows, n : n + d, n : n + d] = r_diag
        r = residual[rows]
        r -= np.matmul(q, np.matmul(q.transpose(0, 2, 1), r[:, :, None]))[:, :, 0]
        residual[rows] = r
        norms[rows, k + 1] = _stacked_norms(r)

    return outcomes


def _finish(problem, picks, norms, Q, R, status) -> RecoveryTrace:
    """The trace of one problem after its ``picks``, from its QR factors.

    The rank check runs here, once: one SVD of the final R detects a rank
    failure at any step, and only then are the prefixes scanned.
    """
    A, y = problem.matrix, problem.observation
    chosen = [int(i) for i in picks]
    values = np.zeros(A.layout.ambient_dim)
    n = len(chosen) * A.layout.block_width
    if n:
        if _rank_failure(chosen, np.linalg.svd(R[:n, :n], compute_uv=False)) is not None:
            _raise_first_rank_failure(A, chosen, R, y)
        coef = np.linalg.solve(R[:n, :n], Q[:, :n].T @ y)
        values[A.layout.columns(chosen).ravel()] = coef
    return RecoveryTrace(
        chosen_indices=tuple(chosen),
        residual_norms=tuple(norms.tolist()),
        final_estimate=BlockSignal(A.layout, values),
        status=status,
    )
