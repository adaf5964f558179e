"""Block orthogonal matching pursuit.

Each iteration picks the block whose columns correlate most strongly with
the current residual, then projects the observation onto the span of all
blocks chosen so far. The kernel, ``_pursue``, runs the pursuit on a stack
of same-shape problems at once: a (size, m, n) array of dictionaries, which
it reads in place, and their observations. ``run_bomp`` calls it on a stack
of one, a view of its dictionary, and ``run_experiment`` on the stack it
draws its trials into. Per pick, one stacked product scores every residual
against every block, the blocks already chosen are masked out by one
boolean (size, M) mask, ``taken``, set once per pick, and each problem
takes its argmax (the smallest index on ties); the picked blocks come out
of a (size, m, M, d) view of the stack, which splitting the column axis
gives for any strides, in one strided copy. Each problem keeps a thin QR
factorization A_S = Q R of its chosen blocks, with Q stored as the rows of
Qt = Q', and extends it by one block per pick: the block is orthogonalized
against Q by classical block Gram-Schmidt, ``c = Qt b`` and ``b -= Qt' c``
(the product of a transposed view, which forms no transposed temporary),
and its remainder QR-factored, in one stacked call, into the next d rows of
Qt and columns of R. That call (``_qr``) runs LAPACK's two QR gufuncs on the
gathered block itself: np.linalg.qr's operations and bits, less its copy of
the input. One pass leaves in each column of the remainder a part along Q
of about eps times the column's norm before the pass. When every column kept at least half of
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
when a score is not finite (the rule is tested only at steps where it can
fire: every step for a residual threshold, the budget's last for a count);
it rides along with the batch until the last one stops, and nothing reads
it again.

The rank check is deferred to that point. R has the singular values of the
subdictionary, and adding columns never raises the smallest one nor lowers
the largest (Cauchy interlacing), so an R far from ``RANK_TOL`` clears every
prefix of the picks. A screen finds such an R without an SVD. It scales R
exactly to a largest entry in [1/2, 1), by the rule that holds each residual
at unit scale (``core._scaled_to_largest``), and clears it when R'R minus a
shift of 1e-8 times its trace, an upper bound on its largest eigenvalue, has
a Cholesky factor (see ``_GRAM_SCREEN``). The screen only clears. For
any other R, ``project_least_squares``, the one-shot SVD route kept as the
reference, runs on each prefix of the picks in turn: it raises for the
shortest failing prefix, or, when every prefix passes, the pursuit returns.
So the pursuit refuses exactly what the reference refuses. All problems
whose rule fires at one step are finished together: one stacked screen, and
one stacked solve of the cleared factors, which cannot raise, as LU pivots
on the nonzero diagonal of each; an uncleared factor is solved inside its
replay. LAPACK runs on each matrix of a stack as on that matrix alone, so a
stacked result is bit for bit the one a problem gets alone.

Each residual is held at unit scale, as rho 2^e with the largest entry of
rho in [1/2, 1): the update ``r -= q (q' r)`` runs on rho, which is then
rescaled by a power of two, the shift added to e; the residual norm is
``ldexp(||rho||, e)``. The picks read rho alone: the float64 pass
(``_float64_scores``) zeroes the products ``A_l' rho`` of the blocks
already taken, and scales each problem's products by the same rule
(``core._scaled_to_largest``) before it squares them. A pick does not
change when A or r is scaled, and power-of-two scaling is exact, so the
pursuit on ``2^j A`` and ``2^k y`` with epsilon ``2^k epsilon`` makes the
same picks and stops with the same status, its residual norms exactly 2^k
and its estimate 2^(k-j) times as large, wherever those scalings are exact;
at normal scale no bit changes. A problem is refused only when its first
residual norm, a score in play or its estimate is not finite. On the seed-0
(128, 64, 4) Gaussian dictionary times 2^j, 8 fixed picks are the scale-1
picks for every j from -1021 to 1023 (below, the estimate overflows), and
the norms and estimate exact multiples from j = -1009 to 1020 but -535:
there the squares of the Gram-Schmidt test ``2 * after < before``, the
dictionary's own, turn subnormal and the norms move in the last bit. Far
below or above, that test reads 0 or inf, so a nearly dependent pick may
skip its second pass. The scale is per problem and comes from the largest
product of a block still in play, so a chosen block's round-off never sets
it: only a block in play whose products are 2^537 times below another's has
squares that underflow.

On a dictionary of ``_SCREEN_ENTRIES`` entries or more, in a solve with a
budget of ``_SCREEN_PICKS`` picks or more, a float32 screen makes the picks:
it reads half the bytes per pick and never changes one.
Once per solve, ``_Float32Screen`` casts the stack to float32, which costs
half the stack's bytes in memory, and bounds each problem's largest block
Frobenius norm by L from that copy. Per pick, each rho is cast to float32
and scored by one float32 product, whose block norms are taken in float64.
Each score is within one bound per problem, E = c L ||rho|| + tau, of the
float64 pass's score of rho, scaled back (Higham, Accuracy and Stability,
2nd ed., ch. 3): c = gamma_{m+d+4}(2^-24) + 10 sqrt(m) 2^-126 covers the
casts and the m-term float32 products in any order, with or without FMA,
and tau their underflow. A float64 rounding is 2^29 times smaller than a
float32 one, so the float64 pass's products and norms, the screen's norms,
the slack on the computed ||rho|| and the test's roundings fit in the d + 2
float32 roundings from gamma_{m+2} to gamma_{m+d+4}. The top unmasked block
t, of score s_t, is the pick when the runner-up score plus E stays below
s_t - E: t is then also the float64 pass's unique argmax. A pick is also
left unproved when anything is not finite, as L is past float32's range; a
finite L keeps both passes' products far from overflow. One unproved live
pick sends the whole step to the float64 pass, as below the size: it gives
every proved pick again, and refuses no proved problem. So every near-tie,
exact tie, overflow and masked pick comes out as the float64 pass gives it.
On the three seed-0 ``pursuit_large`` instances the float64 pass decided 1
of 192 picks; a dictionary below float32's normal range leaves it every one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import BlockedMatrix, BlockSignal, SensingProblem, _frozen_array, _scaled_to_largest
from .core import as_int, as_real
from .errors import BompError, RankDeficientError
from .io import json_fields

try:
    # LAPACK's QR gufuncs, which np.linalg.qr wraps in a copy and a triu
    import numpy.linalg._umath_linalg as _umath_linalg

    _LAPACK_QR = (_umath_linalg.qr_r_raw, _umath_linalg.qr_reduced)
except (ImportError, AttributeError):
    _LAPACK_QR = None

RANK_TOL = 1e-10
# The rank check's screen (_gram_screen_clears) clears R, scaled exactly by a
# power of two to S with largest entry in [1/2, 1), when S'S - tau I has a
# Cholesky factor, tau = _GRAM_SCREEN ||S||_F^2, and ||S||_F^2 = trace(S'S) >=
# sigma_max^2. S'S cannot overflow, and as ||S||_F >= 1/2, what the scaling or
# S'S rounds below 2^-1022 lies far inside the bound that follows. With n
# columns and u = 2^-53, forming S'S, the shift and a Cholesky factor that
# completes (Higham, Accuracy and Stability, 2nd ed., 3.5 and 10.1) move S'S
# by at most (2n+3) u ||S||_F^2 in 2-norm, which covers every rounding the
# screen makes. So a cleared R has sigma_min/sigma_max > sqrt(_GRAM_SCREEN -
# (2n+3) u): 1e-4, less 5e-5 relative at n = 4096, and above RANK_TOL for any
# n below 4e7. Every R with a ratio above sqrt(n _GRAM_SCREEN) = 1e-4 sqrt(n)
# clears, as ||S||_F^2 <= n sigma_max^2, up to the same O(n u); in between it
# depends on the other singular values.
_GRAM_SCREEN = 1e-8
# Solves on dictionaries of at least _SCREEN_ENTRIES entries, with a budget of
# at least _SCREEN_PICKS picks, are scored through the float32 screen; others
# by the float64 pass alone. The copy and its norms cost about what 20 to 24
# picks save, so the gain grows with the picks per solve. Screen on against
# off, median ratio of run_bomp times over 50 interleaved pairs, lowest and
# highest of four such runs (2-vCPU x86_64, numpy 2.4.6, OpenBLAS 0.3.31 on
# 2 threads), at 4, 8, 12, 16, 20, 24, 32 and 64 picks:
#   2^19 (512, 256, 4)   1.39-1.50 1.13-1.20 1.04-1.10 0.99-1.06
#                        0.96-1.01 0.97-1.02 0.95-1.00 0.93-0.98
#   2^20 (1024, 256, 4)  1.37-1.50 1.14-1.24 1.06-1.13 1.01-1.10
#                        0.98-1.04 0.95-1.02 0.93-0.99 0.93-1.04
#   2^21 (1024, 512, 4)  1.51-1.71 1.19-1.26 1.07-1.12 1.05-1.13
#                        1.00-1.05 0.98-1.00 0.93-0.96 0.86-0.89
_SCREEN_ENTRIES = 1 << 20
_SCREEN_PICKS = 24

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
    library path calls. It is the pursuit's float64 pass on a stack of one with
    no block masked, so ``2^j A`` and ``2^k r`` give its pick, and it refuses a
    score that is not finite."""
    return int(np.argmax(_scores_of_one(A, r)[0])) + 1


def block_correlation_scores(A: BlockedMatrix, r: np.ndarray) -> np.ndarray:
    """All selection scores ||A[l]' r||_2 as a length-M vector: the pursuit's
    float64 pass on a stack of one with no block masked, scaled back, so a
    score underflows or overflows only in this last step: those of ``2^j A``
    and ``2^k r`` are exactly 2^(j+k) times as large wherever both are normal.

    Raises :class:`BompError` as the pursuit does where a score is not finite,
    and where one is inf once scaled back.
    """
    scores, e = _scores_of_one(A, r)
    with np.errstate(over="ignore"):
        scores = np.ldexp(scores, e)
    if np.isinf(scores).any():
        raise _overflow_error()
    return scores


def _scores_of_one(A: BlockedMatrix, r: np.ndarray):
    """``(scores, e)``: ``_float64_scores`` of r against A, a stack of one with
    no block masked, and the exponent e that scales them back. Raises the
    overflow error where a score is not finite: an argmax would pick by index."""
    r = _frozen_array(r, (A.rows,), "residual")
    rho, e = _scaled_to_largest(r[None])
    nothing = np.zeros((1, A.layout.num_blocks), dtype=bool)
    scores, shift = _float64_scores(A.entries[None], rho, A.layout.block_width, nothing)
    if not np.isfinite(scores).all():
        raise _overflow_error()
    return scores[0], e[0] + shift[0]


def _float64_scores(entries: np.ndarray, rho: np.ndarray, d: int, taken: np.ndarray):
    """The float64 pass: ``(scores, shift)`` for a stack of unit-scale residuals
    ``rho`` and the blocks ``taken`` (a boolean (size, M) mask). Entry [t, l] of
    ``scores`` is ||A_t[l]' rho_t||_2 2^-shift[t], or -1 for a taken block: the
    taken blocks' products are zeroed before each problem's are scaled to a
    largest in [1/2, 1) (``core._scaled_to_largest``) and squared, so no square
    overflows, and only those 2^537 times below the largest in play underflow.
    A score is inf or NaN only where a product in play is, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        products = np.matmul(entries.transpose(0, 2, 1), rho[:, :, None])[:, :, 0]
        products.reshape(len(rho), -1, d)[taken] = 0.0  # through a view
        products, shift = _scaled_to_largest(products)
        products = products.reshape(len(rho), -1, d)
        scores = np.sqrt(np.einsum("tld,tld->tl", products, products))
    scores[taken] = -1.0
    return scores, shift


def _gamma(k: int, u: float) -> float:
    """k u / (1 - k u), which bounds the relative error of k roundings with unit
    roundoff u (Higham, Accuracy and Stability, 2nd ed., 3.1); inf unless k u
    is below 1/4, where the screen's bound no longer holds in this form."""
    return k * u / (1.0 - k * u) if k * u < 0.25 else math.inf


_U32 = 2.0**-24  # float32 unit roundoff
# the absolute error of one float32 rounding that underflows, flushed to zero
# or not, and of reading a subnormal input as zero
_TINY32 = 2.0**-126


class _Float32Screen:
    """The selection step's float32 screen on a stack of dictionaries.

    It holds a float32 copy of the stack, cast without a float64 temporary, and
    for each problem an upper bound ``largest[t]`` on its blocks' ||A_t[l]||_F,
    summed from the copy and inflated to cover the cast and the float32 sums.
    ``picks`` scores every residual against the copy and proves, where it can,
    that its pick is the float64 pass's (see the module docstring for the bound).
    """

    def __init__(self, entries: np.ndarray, d: int):
        size, m, n = entries.shape
        self.d = d
        self.problems = np.arange(size)
        # an entry past the float32 range turns to inf, which leaves every pick
        # of its problem to the float64 pass
        with np.errstate(over="ignore", invalid="ignore"):
            self.copy = entries.astype(np.float32)
            columns = np.einsum("tmn,tmn->tn", self.copy, self.copy).astype(np.float64)
        largest_sum = columns.reshape(size, -1, d).sum(axis=2).max(axis=1)
        # each cast is within u|a| + T of a (u = _U32, T = _TINY32), so ||A_l||_F
        # <= (||copy_l||_F + sqrt(md) T) / (1 - u); an m-term float32 sum of
        # squares is within gamma_m of its value plus 2m T (1 + gamma_m), the
        # float64 sum of d within gamma_d(2^-53). With gamma_m <= 1/3, 1 + 4
        # gamma_{m+d} covers (1 + gamma_m) / (1 - gamma_m) / (1 - u)^2, the
        # float64 sum and this line's roundings
        inflate = 1.0 + 4.0 * _gamma(m + d, _U32)
        self.largest = np.sqrt((largest_sum + 2.0 * m * d * _TINY32) * inflate)
        self.largest += math.sqrt(m * d) * _TINY32
        # E = relative * largest * ||rho|| + absolute. Per column a_j, float32
        # misses a_j' rho by at most gamma_{m+2} |a_j|'|rho| (the casts and the
        # product), plus 2 sqrt(m) T ||a_j|| <= 4 sqrt(m) T ||a_j|| ||rho|| (a
        # nonzero rho has ||rho|| >= 1/2), plus 5m T (A's cast against |rho_i|
        # <= 1, the product's 2m underflows, its upcast). Every float64 rounding
        # is below (2m + 3d + 12) 2^-53 per unit of ||A_l||_F ||rho||, under
        # (d + 2) 2^-24 while gamma_{m+d+4} is finite (m + d + 4 < 2^22); the
        # underflow of its squares, at unit scale, below sqrt(d) 2^-536 (1 + L
        # ||rho||), under one more m sqrt(d) T and 2^-53 per unit of L ||rho||
        self.relative = _gamma(m + d + 4, _U32) + 10.0 * math.sqrt(m) * _TINY32
        self.absolute = 6.0 * m * math.sqrt(d) * _TINY32

    def picks(self, rho: np.ndarray, rho_norms: np.ndarray, taken: np.ndarray):
        """Each problem's argmax of the float32 scores of its unit-scale residual
        ``rho`` with the blocks ``taken`` (a boolean (size, M) mask) masked out,
        and whether that pick is proved to be the float64 pass's.

        ``rho_norms`` are the norms of ``rho`` as ``_stacked_norms`` gives them.
        Overflow and NaN are not warned about; they leave a pick unproved.
        """
        problems = self.problems
        with np.errstate(all="ignore"):
            products = np.matmul(rho.astype(np.float32)[:, None, :], self.copy)
            products = products.reshape(len(rho), -1, self.d).astype(np.float64)
            scores = np.sqrt(np.einsum("tld,tld->tl", products, products))
            scores[taken] = -np.inf
            top = np.argmax(scores, axis=1)
            best = scores[problems, top]
            scores[problems, top] = -np.inf
            runner_up = scores.max(axis=1)
            bound = self.relative * self.largest * rho_norms + self.absolute
            # a finite L keeps both passes' products far from overflow, so the
            # float64 pass refuses no problem proved here; false where any NaN
            return top, runner_up + bound < best - bound


def _stacked_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, each by its own dot product, so a vector's
    norm does not depend on the vectors stacked with it. The pursuit's rows are
    at unit scale, where the squares neither overflow nor underflow."""
    return np.sqrt(np.matmul(vectors[:, None, :], vectors[:, :, None])[:, 0, 0])


def _qr(a: np.ndarray):
    """``np.linalg.qr(a)`` in reduced mode, bit for bit, on a float64 stack
    (..., m, n), which it may overwrite; a LAPACK error raises LinAlgError, as
    there. It runs LAPACK's two QR gufuncs on ``a`` itself, without
    np.linalg.qr's copy, and masks R out of the factored ``a`` as ``np.triu``
    does; where numpy lacks the gufuncs, it calls np.linalg.qr."""
    if _LAPACK_QR is None:
        return np.linalg.qr(a)
    raw, reduced = _LAPACK_QR
    with np.errstate(call=_raise_qr_error, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        tau = raw(a, signature="d->d")
        q = reduced(a, tau, signature="dd->d")
    rows = min(a.shape[-2:])
    return q, np.where(_upper_mask(rows, a.shape[-1]), a[..., :rows, :], 0.0)


@functools.lru_cache(maxsize=16)
def _upper_mask(rows: int, columns: int) -> np.ndarray:
    mask = np.triu(np.ones((rows, columns), dtype=bool))
    mask.setflags(write=False)
    return mask


def _raise_qr_error(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def _overflow_error() -> BompError:
    return BompError("the residual norm or the block selection scores overflow double precision")


def _estimates(layout, picks: np.ndarray, coef: np.ndarray) -> list:
    """For each row i, the signal with ``coef[i]`` on the blocks ``picks[i]``,
    in that order, and zero elsewhere; a :class:`BompError` in its place when
    a coefficient is not finite."""
    estimates = []
    columns = layout.columns(picks).reshape(coef.shape)
    finite = np.logical_and.reduce(np.isfinite(coef), axis=1)
    for row, values, ok in zip(columns, coef, finite):
        if not ok:
            estimates.append(BompError("the least-squares estimate overflows double precision"))
            continue
        signal = np.zeros(layout.ambient_dim)
        signal[row] = values
        signal.setflags(write=False)  # so the signal adopts it without a copy
        estimates.append(BlockSignal(layout, signal))
    return estimates


def _rank_failure(indices, sigma: np.ndarray):
    """The error for the subdictionary on ``indices`` with descending singular
    values ``sigma``, or None when it clears ``RANK_TOL``."""
    if sigma[0] == 0.0 or sigma[-1] < RANK_TOL * sigma[0]:
        return RankDeficientError(
            f"subdictionary on blocks {indices} is rank deficient "
            f"(singular values {sigma[-1]:.3e} .. {sigma[0]:.3e})"
        )
    return None


def _gram_screen_clears(R: np.ndarray) -> np.ndarray:
    """Whether each square thin-QR factor in ``R``, a stack (..., n, n) of the
    factors of subdictionaries, which have their singular values, is far
    enough from ``RANK_TOL`` to pass the rank check without an SVD (see
    ``_GRAM_SCREEN``). A zero factor, whose Gram has no Cholesky factor, is
    never cleared. Each decision reads only its own factor: one stacked
    Cholesky call, and only when it raises, one call per factor."""
    shape, n = R.shape[:-2], R.shape[-1]
    S = _scaled_to_largest(R.reshape(-1, n * n))[0].reshape(-1, n, n)
    gram = S.transpose(0, 2, 1) @ S
    diagonal = gram.reshape(len(gram), n * n)[:, :: n + 1]
    diagonal -= _GRAM_SCREEN * diagonal.sum(axis=1, keepdims=True)
    cleared = np.ones(len(gram), dtype=bool)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        for t, matrix in enumerate(gram):
            try:
                np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                cleared[t] = False
    return cleared.reshape(shape)


def project_least_squares(A: BlockedMatrix, support, y: np.ndarray):
    """Least-squares fit of ``y`` on the blocks in ``support``.

    Returns ``(estimate, residual)`` where the estimate is zero outside the
    support and ``residual = y - A @ estimate``; the residual is orthogonal
    to every supported column. Checks the support once; raises
    :class:`RankDeficientError` when it spans more columns than rows or the
    subdictionary's smallest singular value falls below ``RANK_TOL`` times
    its largest.

    This is the reference route: one SVD of the whole subdictionary per call.
    ``run_bomp`` reaches the same projections incrementally, and the proof
    checks and the solver's differential tests compare against this one.
    """
    y = _frozen_array(y, (A.rows,), "observation")
    indices = A.layout.check_support(support)
    sub = A.entries[:, A.layout.columns(indices).ravel()]
    if sub.shape[1] > A.rows:
        raise RankDeficientError(f"support spans {sub.shape[1]} columns but only {A.rows} rows")
    U, sigma, Vt = np.linalg.svd(sub, full_matrices=False)
    if sigma.size:
        error = _rank_failure(indices, sigma)
        if error is not None:
            raise error
    with np.errstate(over="ignore", invalid="ignore"):  # _estimates refuses an overflow
        coef = Vt.T @ ((U.T @ y) / sigma)
    (estimate,) = _estimates(A.layout, [indices], coef[None])
    if isinstance(estimate, BompError):
        raise estimate
    return estimate, y - sub @ coef


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
    for that problem alone, or the exception it raises, which carries the
    picks made before the refusal as ``iterations_run``. The problems advance
    together, one pick per step, and each keeps its own stopping state, so
    no outcome depends on the others in the stack. The problems that stop at
    a step are finished by one ``_finish`` call; ``run_bomp`` runs the same
    code on a stack of one.
    """
    size, m, n_columns = entries.shape
    d = layout.block_width
    # least squares needs at most rows/width blocks; never more than all of them
    capacity = min(layout.num_blocks, m // d)
    budget = capacity if stop.max_iterations is None else min(stop.max_iterations, capacity)
    screened = m * n_columns >= _SCREEN_ENTRIES and budget >= _SCREEN_PICKS
    screen = _Float32Screen(entries, d) if screened else None

    problems = np.arange(size)
    # each dictionary's columns split into its blocks: a view for any strides
    blocks = entries.reshape(size, m, layout.num_blocks, d)
    # each residual is rho 2^e, rho at unit scale (see the module docstring)
    rho, e = _scaled_to_largest(observations)
    # thin QR of each problem's chosen blocks in pick order, the basis kept
    # as rows: A_S = Qt[t, :n].T @ R[t, :n, :n]
    Qt = np.empty((size, budget * d, m))
    R = np.zeros((size, budget * d, budget * d))
    chosen = np.zeros((size, budget), dtype=int)
    norms = np.empty((size, budget + 1))
    rho_norms = _stacked_norms(rho)
    with np.errstate(over="ignore"):
        norms[:, 0] = np.ldexp(rho_norms, e)
    outcomes: list = [None] * size
    # projections only shrink the residual, so its first norm is the one to test
    active = np.isfinite(norms[:, 0])
    for t in np.flatnonzero(~active):
        outcomes[t] = _overflow_error()
    picked = np.zeros(size, dtype=int)  # the picks each problem made while active

    check_residual = stop.mode in (RESIDUAL_THRESHOLD, BOTH)
    check_count = stop.mode in (FIXED_ITERATIONS, BOTH)
    # taken[t, l]: problem t has picked block l + 1
    taken = np.zeros((size, layout.num_blocks), dtype=bool)

    for k in range(budget + 1):
        # a count rule fires only at the budget, as max_iterations caps it
        if check_residual or k == budget:
            converged = np.full(size, check_count and k == stop.max_iterations)
            if check_residual:
                converged |= norms[:, k] <= stop.epsilon
            stopping = np.flatnonzero(active & (converged | (k == budget)))
            if len(stopping):
                statuses = [
                    STATUS_CONVERGED if c else STATUS_BUDGET_EXCEEDED for c in converged[stopping]
                ]
                finished = _finish(entries, observations, layout, stopping, chosen[stopping, :k],
                                   norms[stopping, : k + 1], Qt, R, statuses)
                for t, outcome in zip(stopping, finished):
                    outcomes[t] = outcome
                active[stopping] = False
        if not active.any():
            break

        # every problem takes every step; one whose outcome is set rides
        # along, and may carry inf or NaN, which no other row reads
        with np.errstate(all="ignore"):
            if screen is not None:
                picks, decided = screen.picks(rho, rho_norms, taken)
            if screen is None or not decided[active].all():
                # a proved pick is this pass's own argmax, and the pass refuses
                # no problem the screen proves, so it may decide the whole stack
                scores = _float64_scores(entries, rho, d, taken)[0]
                # a NaN score fails ``< inf`` too
                picks, overflow = np.argmax(scores, axis=1), ~(scores.max(axis=1) < math.inf)
                for t in np.flatnonzero(overflow & active):
                    outcomes[t] = _overflow_error()
                active &= ~overflow
            chosen[:, k] = picks + 1
            taken[problems, picks] = True
            picked += active

            n = k * d
            basis = Qt[:, :n]
            # the picked blocks, in one strided copy, as a C-ordered (size, m, d) array
            block = blocks[problems, :, picks, :]
            # block classical Gram-Schmidt; a second pass only for the
            # problems where the first cancelled (see the module docstring)
            before = np.einsum("tmd,tmd->td", block, block)
            c1 = basis @ block
            block -= basis.transpose(0, 2, 1) @ c1
            after = np.einsum("tmd,tmd->td", block, block)
            cancelled = active & (2.0 * after < before).any(axis=1)
            if cancelled.any():
                basis_rows = Qt[cancelled, :n]
                c2 = basis_rows @ block[cancelled]
                block[cancelled] -= basis_rows.transpose(0, 2, 1) @ c2
                c1[cancelled] += c2
            q, r_diag = _qr(block)
            Qt[:, n : n + d] = q.transpose(0, 2, 1)
            R[:, :n, n : n + d] = c1
            R[:, n : n + d, n : n + d] = r_diag
            rho -= np.matmul(q, np.matmul(q.transpose(0, 2, 1), rho[:, :, None]))[:, :, 0]
            rho, shift = _scaled_to_largest(rho)
            e += shift
            rho_norms = _stacked_norms(rho)
            norms[:, k + 1] = np.ldexp(rho_norms, e)

    for t, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            outcome.iterations_run = int(picked[t])
    return outcomes


def _finish(entries, observations, layout, stack, picks, norms, Qt, R, statuses) -> list:
    """The outcomes of the problems ``stack``, all after the same number of
    ``picks`` (one row per problem, as are ``norms`` and ``statuses``), from
    their QR factors ``Qt`` and ``R``, stacks over all problems.

    The rank check runs here, once: the Gram screen clears the final R, or
    the reference replays the prefixes of the picks and decides. The cleared
    factors are solved, ``R coef = Qt y``, in one stacked call that cannot
    raise; an uncleared one is solved alone once its replay passes. LAPACK
    runs on each matrix of a stack as on that matrix alone, so each
    problem's result is the one it gets alone.
    """
    n = picks.shape[1] * layout.block_width
    outcomes: list = [None] * len(stack)
    # a slice, so views of R and Qt, where the problems are contiguous, as
    # the one problem of run_bomp is
    rows = slice(stack[0], stack[-1] + 1) if stack[-1] - stack[0] < len(stack) else stack
    factors = R[rows, :n, :n]
    projected = np.matmul(Qt[rows, :n], observations[rows, :, None])
    cleared = _gram_screen_clears(factors) if n else np.ones(len(stack), dtype=bool)
    # a cleared R is upper triangular, exactly zero below its diagonal and
    # nowhere zero on it, so LU pivots on R_jj and meets no zero pivot
    coef = np.empty((len(stack), n))
    coef[cleared] = np.linalg.solve(factors[cleared], projected[cleared])[:, :, 0]
    for i in np.flatnonzero(~cleared):
        # the reference decides, raising for the shortest failing prefix; only
        # this rare path builds the problem's matrix, a copy of its slice
        A = BlockedMatrix(layout, entries[stack[i]])
        try:
            for j in range(1, picks.shape[1] + 1):
                project_least_squares(A, picks[i, :j], observations[stack[i]])
            coef[i] = np.linalg.solve(factors[i], projected[i])[:, 0]
        except (BompError, np.linalg.LinAlgError) as exc:
            outcomes[i] = exc
    solved = [i for i, outcome in enumerate(outcomes) if outcome is None]
    for i, estimate in zip(solved, _estimates(layout, picks[solved], coef[solved])):
        outcomes[i] = estimate if isinstance(estimate, BompError) else RecoveryTrace(
            chosen_indices=tuple(picks[i].tolist()),
            residual_norms=tuple(norms[i].tolist()),
            final_estimate=estimate,
            status=statuses[i],
        )
    return outcomes
