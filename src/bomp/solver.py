"""Block orthogonal matching pursuit.

Each iteration picks the block whose columns correlate most strongly with
the current residual, then projects the observation onto the span of all
blocks chosen so far. The kernel, ``_pursue``, runs the pursuit on a stack
of same-shape problems at once: a (size, m, n) array of dictionaries, which
it reads in place, and their observations. ``run_bomp`` calls it on a stack
of one, a view of its dictionary, and ``run_experiment`` on the stack it
draws its trials into. Per pick, one stacked product scores every residual
against every block, blocks already chosen are masked out, and each problem
takes its argmax (the smallest index on ties); the picked blocks come out
of a (size, m, M, d) view of the stack, which splitting the column axis
gives for any strides, in one strided copy. Each problem keeps a thin QR
factorization A_S = Q R of its chosen blocks, with Q stored as the rows of
Qt = Q', and extends it by one block per pick: the block is orthogonalized
against Q by classical block Gram-Schmidt and its remainder QR-factored, in
one stacked call, into the next d rows of Qt and columns of R. One pass
leaves in each column of the remainder a part along Q of about eps times
the column's norm before the pass. When every column kept at least half of
its squared norm, that part is at most about sqrt(2) eps relative to what
is left, so the block loses at most about sqrt(2d) times the orthogonality
that a second pass (CGS2) would leave, and the pass is skipped. A problem
with a column that kept less, as every pick nearly dependent on the chosen
blocks has, takes the second pass: the selective reorthogonalization of
Daniel, Gragg, Kaufman and Stewart (Math. Comp., 1976) with eta =
1/sqrt(2), analysed for block CGS by Barlow and Smoktunowicz (Numer. Math.,
2013), enough for any numerically full-rank subdictionary. Only the
problems that need it take it, so none depends on its batchmates. The
residual update is then ``r -= q (q' r)``. A problem gets its outcome when
its stopping rule fires, its estimate solved from ``R coef = Qt y``, or
when its scores overflow; it rides along with the batch until the last one
stops, and nothing reads it again.

The rank check is deferred to that point. R has the singular values of the
subdictionary, and adding columns never raises the smallest one nor lowers
the largest (Cauchy interlacing), so an R far from ``RANK_TOL`` clears every
prefix of the picks. A screen finds such an R without an SVD: R'R minus a
shift of 1e-8 times its trace, an upper bound on its largest eigenvalue,
has a Cholesky factor (see ``_GRAM_SCREEN``). The screen only clears. For
any other R, ``project_least_squares``, the one-shot SVD route kept as the
reference, runs on each prefix of the picks in turn: it raises for the
shortest failing prefix, or, when every prefix passes, the pursuit returns.
So the pursuit refuses exactly what the reference refuses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BlockedMatrix, BlockSignal, SensingProblem, _frozen_array, as_int, as_real
from .errors import BompError, RankDeficientError
from .io import json_fields

RANK_TOL = 1e-10
# The rank check's screen (_gram_screen_clears) clears R, scaled to S with
# largest entry 1, when S'S - tau I has a Cholesky factor, tau = _GRAM_SCREEN
# ||S||_F^2, and ||S||_F^2 = trace(S'S) >= sigma_max^2. With n columns and
# u = 2^-53, forming S'S, the shift and a Cholesky factor that completes
# (Higham, Accuracy and Stability, 2nd ed., 3.5 and 10.1) move S'S by at
# most (2n+3) u ||S||_F^2 in 2-norm. So a cleared R has sigma_min/sigma_max
# > sqrt(_GRAM_SCREEN - (2n+3) u): 1e-4, less 5e-5 relative at n = 4096, and
# above RANK_TOL for any n below 4e7. Every R with a ratio above
# sqrt(n _GRAM_SCREEN) = 1e-4 sqrt(n) clears, as ||S||_F^2 <= n sigma_max^2,
# up to the same O(n u); in between it depends on the other singular values.
_GRAM_SCREEN = 1e-8

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
    ``epsilon`` must be finite and nonnegative in every mode.
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
        elif self.mode in (FIXED_ITERATIONS, BOTH):
            raise ValueError(f"stopping mode {self.mode!r} needs max_iterations")


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


def select_block(A: BlockedMatrix, r: np.ndarray) -> int:
    """Index of the block maximizing ||A[l]' r||_2, smallest index on ties (np.argmax
    takes the first maximum): the per-residual reference of the pick, which no
    library path calls. It masks no block; the pursuit masks the blocks it chose."""
    return int(np.argmax(block_correlation_scores(A, r))) + 1


def block_correlation_scores(A: BlockedMatrix, r: np.ndarray) -> np.ndarray:
    """All selection scores ||A[l]' r||_2 as a length-M vector.

    Raises :class:`BompError` when a score is not finite: an argmax over
    overflowed scores would pick a block by its index, not by correlation.
    """
    r = _frozen_array(r, (A.rows,), "residual")
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
        products = products.reshape(len(residuals), -1, d)
        return np.sqrt(np.einsum("tld,tld->tl", products, products))


def _stacked_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, each by its own dot product, so a vector's
    norm does not depend on the vectors stacked with it. Overflow is not warned about."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(np.matmul(vectors[..., None, :], vectors[..., :, None])[..., 0, 0])


def _overflow_error() -> BompError:
    return BompError("the residual norm or the block selection scores overflow double precision")


def _estimate(layout, indices, coef: np.ndarray) -> BlockSignal:
    """The signal with ``coef`` on the blocks ``indices``, in that order, and
    zero elsewhere. Raises :class:`BompError` when a coefficient is not finite."""
    if not np.isfinite(coef).all():
        raise BompError("the least-squares estimate overflows double precision")
    values = np.zeros(layout.ambient_dim)
    values[layout.columns(indices).ravel()] = coef
    return BlockSignal(layout, values)


def _rank_failure(indices, sigma: np.ndarray):
    """The error for the subdictionary on ``indices`` with descending singular
    values ``sigma``, or None when it clears ``RANK_TOL``."""
    if sigma[0] == 0.0 or sigma[-1] < RANK_TOL * sigma[0]:
        return RankDeficientError(
            f"subdictionary on blocks {indices} is rank deficient "
            f"(singular values {sigma[-1]:.3e} .. {sigma[0]:.3e})"
        )
    return None


def _gram_screen_clears(R: np.ndarray) -> bool:
    """Whether the square thin-QR factor ``R`` of a subdictionary, which has
    its singular values, is far enough from ``RANK_TOL`` to pass the rank
    check without an SVD (see ``_GRAM_SCREEN``). A zero ``R`` is never cleared."""
    scale = np.abs(R).max()
    if not scale > 0.0:
        return False
    # a largest entry of 1 keeps S'S from overflowing; the ratio is unchanged
    S = R / scale
    gram = S.T @ S
    gram.flat[:: len(gram) + 1] -= _GRAM_SCREEN * np.trace(gram)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _checked_svd(A: BlockedMatrix, support):
    """Thin SVD of the subdictionary on the blocks ``support``, checked here once.

    Returns ``(indices, sub, U, sigma, Vt)``, ``indices`` the checked ascending
    support; raises :class:`RankDeficientError` when ``sub`` has more columns
    than rows or fails :func:`_rank_failure`.
    """
    indices = A.layout.check_support(support)
    sub = A.entries[:, A.layout.columns(indices).ravel()]
    if sub.shape[1] > A.rows:
        raise RankDeficientError(f"support spans {sub.shape[1]} columns but only {A.rows} rows")
    U, sigma, Vt = np.linalg.svd(sub, full_matrices=False)
    if sigma.size:
        error = _rank_failure(indices, sigma)
        if error is not None:
            raise error
    return indices, sub, U, sigma, Vt


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
    y = _frozen_array(y, (A.rows,), "observation")
    indices, sub, U, sigma, Vt = _checked_svd(A, support)
    with np.errstate(over="ignore", invalid="ignore"):  # _estimate refuses an overflow
        coef = Vt.T @ ((U.T @ y) / sigma)
    return _estimate(A.layout, indices, coef), y - sub @ coef


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

    This is the kernel on a stack of one, which reads the dictionary in place.
    """
    A = problem.matrix
    (outcome,) = _pursue(A.entries[None], problem.observation[None], A.layout, stop)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _pursue(entries: np.ndarray, observations: np.ndarray, layout, stop: StoppingRule) -> list:
    """Run the pursuit on a stack of same-shape problems: ``entries[t]`` is
    problem t's (m, n) dictionary and ``observations[t]`` its observation,
    both finite. Reads ``entries`` in place and never writes to either.

    Returns one outcome per problem, in order: the trace ``run_bomp`` gives
    for that problem alone, or the exception it raises. The problems advance
    together, one pick per step, and each keeps its own stopping state, so
    no outcome depends on the others in the stack.
    """
    size, m, _ = entries.shape
    d = layout.block_width
    # least squares needs at most rows/width blocks; never more than all of them
    capacity = min(layout.num_blocks, m // d)
    budget = capacity if stop.max_iterations is None else min(stop.max_iterations, capacity)

    problems = np.arange(size)
    # each dictionary's columns split into its blocks: a view for any strides
    blocks = entries.reshape(size, m, layout.num_blocks, d)
    residual = observations.copy()
    # thin QR of each problem's chosen blocks in pick order, the basis kept
    # as rows: A_S = Qt[t, :n].T @ R[t, :n, :n]
    Qt = np.empty((size, budget * d, m))
    R = np.zeros((size, budget * d, budget * d))
    chosen = np.zeros((size, budget), dtype=int)
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
        converged = np.full(size, check_count and k == stop.max_iterations)
        if check_residual:
            converged |= norms[:, k] <= stop.epsilon
        stopping = active & (converged | (k == budget))
        for t in np.flatnonzero(stopping):
            status = STATUS_CONVERGED if converged[t] else STATUS_BUDGET_EXCEEDED
            try:
                outcomes[t] = _finish(entries[t], observations[t], layout, chosen[t, :k],
                                      norms[t, : k + 1], Qt[t], R[t], status)
            except (BompError, np.linalg.LinAlgError) as exc:
                outcomes[t] = exc
        active &= ~stopping
        if not active.any():
            break

        # every problem takes every step; one whose outcome is set rides
        # along, and may carry inf or NaN, which no other row reads
        with np.errstate(all="ignore"):
            scores = _stacked_scores(entries, residual, d)
            overflow = active & ~np.isfinite(scores).all(axis=1)
            for t in np.flatnonzero(overflow):
                outcomes[t] = _overflow_error()
            active &= ~overflow
            scores[problems[:, None], chosen[:, :k] - 1] = -1.0
            # np.argmax returns the first maximum, which is the smallest block index
            picks = np.argmax(scores, axis=1)
            chosen[:, k] = picks + 1

            n = k * d
            basis = Qt[:, :n]
            # the picked blocks, in one strided copy, as a C-ordered (size, m, d) array
            block = blocks[problems, :, picks, :]
            # block classical Gram-Schmidt; a second pass only for the
            # problems where the first cancelled (see the module docstring)
            before = np.einsum("tmd,tmd->td", block, block)
            c1 = basis @ block
            block -= (c1.transpose(0, 2, 1) @ basis).transpose(0, 2, 1)
            after = np.einsum("tmd,tmd->td", block, block)
            cancelled = active & (2.0 * after < before).any(axis=1)
            if cancelled.any():
                basis_rows = Qt[cancelled, :n]
                c2 = basis_rows @ block[cancelled]
                block[cancelled] -= (c2.transpose(0, 2, 1) @ basis_rows).transpose(0, 2, 1)
                c1[cancelled] += c2
            q, r_diag = np.linalg.qr(block)
            Qt[:, n : n + d] = q.transpose(0, 2, 1)
            R[:, :n, n : n + d] = c1
            R[:, n : n + d, n : n + d] = r_diag
            residual -= np.matmul(q, np.matmul(q.transpose(0, 2, 1), residual[:, :, None]))[:, :, 0]
            norms[:, k + 1] = _stacked_norms(residual)

    return outcomes


def _finish(entries, y, layout, picks, norms, Qt, R, status) -> RecoveryTrace:
    """The trace of one problem, with dictionary ``entries`` and observation
    ``y``, after its ``picks``, from its QR factors.

    The rank check runs here, once: the Gram screen clears the final R, or
    the reference replays the prefixes of the picks and decides.
    """
    chosen = [int(i) for i in picks]
    n = len(chosen) * layout.block_width
    if n and not _gram_screen_clears(R[:n, :n]):
        # the reference decides, raising for the shortest failing prefix; only
        # this rare path builds the problem's matrix, a copy of its slice
        A = BlockedMatrix(layout, entries)
        for j in range(1, len(chosen) + 1):
            project_least_squares(A, chosen[:j], y)
    coef = np.linalg.solve(R[:n, :n], Qt[:n] @ y)
    return RecoveryTrace(
        chosen_indices=tuple(chosen),
        residual_norms=tuple(norms.tolist()),
        final_estimate=_estimate(layout, chosen, coef),
        status=status,
    )
