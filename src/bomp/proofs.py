"""Numerical verification of the analysis behind the recovery guarantee.

Two facts carry the proof of the sufficient condition and both are checked
here on randomized instances:

* an exact algebraic identity rewriting the selection margin
  ``eta = (||r||^2 - ||Pperp_T e||^2)/||alpha||_{2,1} - ||A[j]' r||_2``
  as a difference of two squared norms of images under the projected
  dictionary, minus a noise correlation term, valid for every t > 0;
* a perturbation bound (Lemma 1): projecting the observation onto the true
  support shrinks the minimum block norm of the coefficients by at most
  ``epsilon/sqrt(1 - delta)``, where delta is the exact isometry constant
  of order K+1.

The margin is computed by two routes. Both read the projection
coefficients ``xi`` of y on the true support (and so alpha, their part on
the unchosen blocks) from :class:`ProofInstance`. Each route computes the
rest on its own: the direct route takes the residual r from SVD-based least
squares, and the identity route takes r and the projected dictionary from
an orthonormal basis of the projected-out subspace. Agreement to 1e-9
across instances and t values is strong evidence both are implemented as
stated. The perturbation bound has one route. Its epsilon is the instance's
own noise norm ``||y - A x||``, and it reads ``xi``, ``theta = xi - x`` and
the exact constant from the same instance, so one least-squares solve on the
true support serves both the direct margin and the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    BlockedMatrix,
    BlockLayout,
    BlockSignal,
    SensingProblem,
    as_int,
    as_real,
    block_norms,
    block_support,
    extract_blocks,
    gaussian_instance,
)
from .errors import DegenerateProbeError, InfeasibleError
from .io import json_fields
from .rip import exact_block_rip
from .solver import _checked_svd, project_least_squares

LEMMA_SLACK = 1e-10
MAX_ATTEMPTS = 200
T_VALUES = (0.1, 1.0, 10.0)
IDENTITY_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProofInstance:
    """One randomized check instance.

    ``partial_support`` plays the role of the blocks already (correctly)
    chosen, so it must be a strict subset of the truth's support; the probe
    index is a block outside the support competing for selection. Each
    quantity the margin routes and the perturbation bound read is derived
    once, on first use.
    """

    problem: SensingProblem
    truth: BlockSignal
    partial_support: tuple
    probe_index: int

    def __post_init__(self):
        object.__setattr__(
            self, "partial_support", tuple(sorted(int(i) for i in self.partial_support))
        )
        T = set(self.support)
        chosen = set(self.partial_support)
        if not chosen < T:
            raise ValueError(
                f"partial support {sorted(chosen)} must be a strict subset "
                f"of the true support {sorted(T)}"
            )
        self.problem.matrix.layout.check_index(self.probe_index)
        if self.probe_index in T:
            raise ValueError(f"probe index {self.probe_index} lies in the support")

    @cached_property
    def support(self) -> tuple:
        return block_support(self.truth)

    @cached_property
    def remaining(self) -> tuple:
        """The support blocks not yet chosen."""
        return tuple(i for i in self.support if i not in self.partial_support)

    @cached_property
    def noise(self) -> np.ndarray:
        return self.problem.observation - self.problem.matrix.entries @ self.truth.values

    @cached_property
    def xi(self) -> BlockSignal:
        """Projection coefficients of y on the true support."""
        return compute_xi(self.problem, self.support)

    @cached_property
    def alpha_21(self) -> float:
        """``||alpha||_{2,1}``: the block norms of ``xi`` summed over ``remaining``.

        Raises ZeroDivisionError when it is zero, since both margins divide by it.
        """
        w = block_norms(self.xi)
        alpha_21 = float(sum(w[i - 1] for i in self.remaining))
        if alpha_21 == 0.0:
            raise ZeroDivisionError(
                "projection coefficients vanish on the unchosen support blocks"
            )
        return alpha_21

    @cached_property
    def partial_residual(self) -> np.ndarray:
        """Residual of y after least squares on the partial support."""
        A = self.problem.matrix
        return project_least_squares(A, self.partial_support, self.problem.observation)[1]

    @cached_property
    def theta(self) -> BlockSignal:
        """``xi - x``: the theta of the decomposition ``xi = x + theta``, which
        are the coefficients of the noise projected onto the true support."""
        return BlockSignal(self.truth.layout, self.xi.values - self.truth.values)

    @cached_property
    def noise_off_support(self) -> np.ndarray:
        """``y - A xi``, the part of the noise orthogonal to the span of the
        true support: it equals ``Pperp_T e`` because ``A x`` lies in that span."""
        return self.problem.observation - self.problem.matrix.entries @ self.xi.values

    @cached_property
    def rip_delta(self) -> float:
        """Exact block isometry constant of order |T|+1."""
        return exact_block_rip(self.problem.matrix, len(self.support) + 1).delta


def compute_xi(problem: SensingProblem, support) -> BlockSignal:
    """Coefficients of the projection of y onto the span of ``support``.

    Zero off the support; applying the dictionary to the result reproduces
    the orthogonal projection of the observation.
    """
    return project_least_squares(problem.matrix, support, problem.observation)[0]


def _range_basis(A: BlockedMatrix, support) -> np.ndarray:
    """Orthonormal basis of the span of the supported column blocks."""
    return _checked_svd(A, sorted(support))[1]


def _project_out(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    return w - basis @ (basis.T @ w)


def eta_direct(inst: ProofInstance) -> float:
    """Selection margin straight from its definition.

    ``(||r||^2 - ||Pperp_T e||^2) / ||alpha||_{2,1} - ||A[j]' r||_2`` with r
    the residual after projecting onto the partial support and alpha the
    projection coefficients on the not-yet-chosen support blocks.
    """
    alpha_21 = inst.alpha_21
    r = inst.partial_residual
    e_off_support = inst.noise_off_support
    probe_score = float(np.linalg.norm(inst.problem.matrix.block(inst.probe_index).T @ r))

    r2 = float(np.dot(r, r))
    e2 = float(np.dot(e_off_support, e_off_support))
    return (r2 - e2) / alpha_21 - probe_score


def eta_via_identity(inst: ProofInstance, t: float = 1.0) -> float:
    """Selection margin through the exact quadratic-difference identity.

    Builds the projected dictionary ``B`` on the unchosen support blocks
    plus the probe block, the coefficient vector u, the unit probe vector
    v, and evaluates
    ``(||B((t+1/||alpha||)u - v)||^2 - ||B((t-1/||alpha||)u + v)||^2)/(4t)``
    minus the noise correlation with the projected probe direction. The
    value is independent of the free parameter ``t``, which must be finite
    and positive.
    """
    t = as_real(t, "t", positive=True)
    A = inst.problem.matrix
    j = inst.probe_index
    c = 1.0 / inst.alpha_21
    alpha = np.concatenate([inst.xi.block(i) for i in inst.remaining])

    chosen_basis = _range_basis(A, inst.partial_support)
    r = _project_out(chosen_basis, inst.problem.observation)
    probe_correlation = A.block(j).T @ r
    scale = float(np.linalg.norm(probe_correlation))
    if scale == 0.0:
        raise DegenerateProbeError(
            f"block {j} is orthogonal to the projected observation"
        )
    h = probe_correlation / scale

    B = _project_out(
        chosen_basis, np.hstack([extract_blocks(A, inst.remaining), A.block(j)])
    )
    u = np.concatenate([alpha, np.zeros(A.layout.block_width)])
    v = np.concatenate([np.zeros(alpha.size), h])

    plus = B @ ((t + c) * u - v)
    minus = B @ ((t - c) * u + v)

    support_basis = _range_basis(A, inst.support)
    probe_off_support = _project_out(support_basis, A.block(j) @ h)
    noise_term = float(np.dot(inst.noise, probe_off_support))

    return (float(np.dot(plus, plus)) - float(np.dot(minus, minus))) / (4.0 * t) - noise_term


@dataclass(frozen=True)
class Lemma1Report:
    """Perturbation bound on projection coefficients, plus the theta bound."""

    lhs: float  # min block norm of the projection coefficients over T
    rhs: float  # min block norm of the truth minus epsilon/sqrt(1-delta)
    holds: bool = field(init=False)
    theta_norm: float  # norm of the projected-noise coefficients
    theta_bound: float  # epsilon/sqrt(1-delta), with epsilon = ||y - A x||
    theta_holds: bool = field(init=False)

    def __post_init__(self):
        for name in ("lhs", "rhs", "theta_norm", "theta_bound"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"Lemma 1 {name} must be finite, got {getattr(self, name)}")
        object.__setattr__(self, "holds", self.lhs >= self.rhs - LEMMA_SLACK)
        object.__setattr__(self, "theta_holds", self.theta_norm <= self.theta_bound + LEMMA_SLACK)

    def to_dict(self) -> dict:
        return json_fields(self)


def lemma1_check(inst: ProofInstance) -> Lemma1Report:
    """Check the minimum-block-norm perturbation bound on one instance.

    The noise bound epsilon is the instance's own noise norm ``||y - A x||``,
    the tightest value the lemma admits. Reads ``xi``, ``theta`` and the exact
    isometry constant of order |T|+1 from the instance, so the instance must
    be small enough to enumerate; raises :class:`InfeasibleError` when that
    constant is not below 1, and ValueError when a quantity overflows.
    """
    delta = inst.rip_delta
    if delta >= 1.0:
        raise InfeasibleError(
            f"exact isometry constant {delta:.4f} of order {len(inst.support) + 1} "
            "is not below 1"
        )

    on_support = [i - 1 for i in inst.support]
    # an overflow reads as inf here and the report refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        margin = float(np.linalg.norm(inst.noise)) / math.sqrt(1.0 - delta)
        return Lemma1Report(
            lhs=float(block_norms(inst.xi)[on_support].min()),
            rhs=float(block_norms(inst.truth)[on_support].min()) - margin,
            theta_norm=float(np.linalg.norm(inst.theta.values)),
            theta_bound=margin,
        )


def random_recovery_problem(
    rng: np.random.Generator,
    num_blocks: int,
    block_width: int,
    sparsity: int,
    rows: int,
    epsilon: float,
):
    """Gaussian dictionary (entries of variance 1/rows), Gaussian signal on a
    uniform random block support, and noise rescaled to norm exactly epsilon.

    Returns (problem, truth).
    """
    return gaussian_instance(
        rng,
        BlockLayout(num_blocks, block_width),
        rows,
        sparsity,
        lambda rng, count: [rng.normal(size=block_width) for _ in range(count)],
        epsilon,
    )


def random_proof_instance(
    rng: np.random.Generator,
    num_blocks: int = 6,
    block_width: int = 2,
    sparsity: int = 3,
    epsilon: float = 0.25,
) -> ProofInstance:
    """Draw an instance whose exact order-(K+1) constant sits below 1.

    The dictionary has ``10*(sparsity+1)*block_width`` rows. Rejection-resamples
    the whole instance, up to ``MAX_ATTEMPTS`` times, until the isometry
    constant qualifies and every needed subdictionary is well conditioned, so
    the perturbation bound applies with a true constant rather than an
    estimate. Deterministic given the generator state.
    """
    num_blocks = as_int(num_blocks, "num_blocks")
    block_width = as_int(block_width, "block_width")
    sparsity = as_int(sparsity, "sparsity")
    epsilon = as_real(epsilon, "epsilon")
    if sparsity >= num_blocks:
        raise ValueError("need sparsity < num_blocks to leave a probe block")
    rows = 10 * (sparsity + 1) * block_width

    # a draw or a projection of it can overflow only through epsilon
    try:
        with np.errstate(over="raise"):
            for _ in range(MAX_ATTEMPTS):
                problem, truth = random_recovery_problem(
                    rng, num_blocks, block_width, sparsity, rows, epsilon
                )
                T = block_support(truth)
                if len(T) != sparsity:
                    continue
                k = int(rng.integers(0, sparsity))
                chosen = rng.choice(np.array(T), size=k, replace=False)
                off = [i for i in problem.matrix.layout.block_indices() if i not in T]
                probe = int(off[rng.integers(0, len(off))])
                inst = ProofInstance(
                    problem=problem, truth=truth, partial_support=chosen, probe_index=probe
                )
                if inst.rip_delta >= 1.0:
                    continue
                # degenerate draws are measure zero; re-sample if one shows up anyway
                try:
                    inst.alpha_21
                except ZeroDivisionError:
                    continue
                if np.linalg.norm(problem.matrix.block(probe).T @ inst.partial_residual) == 0.0:
                    continue
                return inst
    except FloatingPointError:
        raise ValueError(f"epsilon {epsilon:g} overflows double precision") from None
    raise RuntimeError(f"no acceptable instance after {MAX_ATTEMPTS} attempts")


@dataclass(frozen=True)
class ProofVerificationSummary:
    trials: int
    identity_passes: int
    identity_failures: int = field(init=False)
    lemma_passes: int
    lemma_failures: int = field(init=False)
    theta_passes: int
    theta_failures: int = field(init=False)
    worst_identity_residual: float

    def __post_init__(self):
        for check in ("identity", "lemma", "theta"):
            passes = getattr(self, f"{check}_passes")
            object.__setattr__(self, f"{check}_failures", self.trials - passes)

    def to_dict(self) -> dict:
        return {"trials": self.trials, "t_values": list(T_VALUES), **json_fields(self)}


def run_proof_verification(trials: int, seed: int) -> ProofVerificationSummary:
    """Randomized sweep over both checks; returns aggregate pass counts.

    Instance shapes vary trial to trial (block counts 4..8, widths 1..3,
    sparsity 1..3). An identity trial passes when the two margin routes
    agree within ``IDENTITY_REL_TOL`` relative at every t in ``T_VALUES``.
    """
    trials = as_int(trials, "trials")
    rng = np.random.default_rng(as_int(seed, "seed", minimum=0))
    identity_ok = lemma_ok = theta_ok = 0
    worst = 0.0
    for _ in range(trials):
        num_blocks = int(rng.integers(4, 9))
        block_width = int(rng.integers(1, 4))
        sparsity = int(rng.integers(1, min(4, num_blocks)))
        inst = random_proof_instance(
            rng,
            num_blocks=num_blocks,
            block_width=block_width,
            sparsity=sparsity,
            epsilon=float(rng.uniform(0.05, 0.5)),
        )
        direct = eta_direct(inst)
        ok = True
        for t in T_VALUES:
            via = eta_via_identity(inst, t)
            residual = abs(direct - via) / max(1.0, abs(direct))
            worst = max(worst, residual)
            ok = ok and residual <= IDENTITY_REL_TOL
        identity_ok += ok

        report = lemma1_check(inst)
        lemma_ok += report.holds
        theta_ok += report.theta_holds
    return ProofVerificationSummary(
        trials=trials,
        identity_passes=identity_ok,
        lemma_passes=lemma_ok,
        theta_passes=theta_ok,
        worst_identity_residual=worst,
    )
