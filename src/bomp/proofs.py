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

The margin is computed by two routes. Both read the projection coefficients
``xi`` of y on the true support (and so alpha, their part on the unchosen
blocks) from :class:`ProofInstance`. Each route computes the rest on its
own: the direct route takes the residuals r and ``y - A xi`` from the
solver's SVD-based least squares and the probe's score from the pursuit's
scorer, and the identity route takes r, the projected dictionary and the
noise term from one Householder QR of the true support's columns, the
chosen blocks first, so the leading columns of Q span the chosen blocks
and all of Q spans the support: the two routes rest on different
factorizations. The identity route derives its ``t``-free parts once per
instance (``c = 1/||alpha||_{2,1}``, the projected images ``B u`` and
``B v`` and the noise term, in :attr:`ProofInstance.identity_images`), so
a further t costs two scaled sums and two dot products. It refuses a t
whose squares overflow or cancel past ``IDENTITY_REL_TOL`` of the value,
which happens far from t = 1 or when the noise swamps the signal, rather
than return a margin that has lost its digits. Agreement to 1e-9 across
instances and t values is strong evidence both are implemented as stated.
The perturbation bound has one route. Its epsilon is the instance's own
noise norm ``||y - A x||``, and it reads ``xi`` (and so ``theta = xi - x``)
and the exact constant from the same instance, so one least-squares fit on
the true support, kept with its residual, serves both the direct margin
and the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    BlockLayout,
    BlockSignal,
    SensingProblem,
    _support_of_norms,
    as_int,
    as_real,
    block_norms,
    block_support,
    gaussian_instance,
)
from .errors import DegenerateProbeError, InfeasibleError
from .io import json_fields
from .rip import exact_block_rip
from .solver import block_correlation_scores, project_least_squares

LEMMA_SLACK = 1e-10
MAX_ATTEMPTS = 200
T_VALUES = (0.1, 1.0, 10.0)
IDENTITY_REL_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
# The largest squares the checks take, as dot products, grow as epsilon^2: the
# direct route's ||r||^2 <= ||y||^2 and ||Pperp_T e||^2 <= epsilon^2, Lemma 1's
# ||e||^2 = epsilon^2 and ||theta||^2 <= epsilon^2 / (1 - delta). At epsilon <=
# 2^500, (||y|| / epsilon)^2 or 1 / (1 - delta) up to 2^24 keeps them finite.
_MAX_EPSILON = 2.0**500


@dataclass(frozen=True, eq=False)
class ProofInstance:
    """One randomized check instance.

    ``partial_support`` plays the role of the blocks already (correctly)
    chosen, so it must be a strict subset of the truth's support; the probe
    index is a block outside the support competing for selection. Each
    quantity the margin routes and the perturbation bound read is derived
    once, on first use, from one solver fit per support and the pursuit's scorer.
    """

    problem: SensingProblem
    truth: BlockSignal
    partial_support: tuple
    probe_index: int

    def __post_init__(self):
        layout = self.problem.matrix.layout
        chosen = tuple(layout.check_support(self.partial_support))
        object.__setattr__(self, "partial_support", chosen)
        object.__setattr__(self, "probe_index", layout.check_index(self.probe_index))
        T = set(self.support)
        if not set(chosen) < T:
            raise ValueError(
                f"partial support {list(chosen)} must be a strict subset "
                f"of the true support {sorted(T)}"
            )
        if self.probe_index in T:
            raise ValueError(f"probe index {self.probe_index} lies in the support")

    @cached_property
    def truth_norms(self) -> np.ndarray:
        """The block norms of the truth, which :attr:`support` and Lemma 1 read."""
        return block_norms(self.truth)

    @cached_property
    def support(self) -> tuple:
        return _support_of_norms(self.truth_norms)

    @cached_property
    def remaining(self) -> tuple:
        """The support blocks not yet chosen."""
        return tuple(i for i in self.support if i not in self.partial_support)

    @cached_property
    def noise(self) -> np.ndarray:
        return self.problem.observation - self.problem.matrix.entries @ self.truth.values

    @cached_property
    def support_fit(self) -> tuple:
        """``(xi, y - A xi)``: the one least-squares fit of y on the true support."""
        return project_least_squares(self.problem.matrix, self.support, self.problem.observation)

    @property
    def xi(self) -> BlockSignal:
        """Projection coefficients of y on the true support: zero off it, and
        ``A xi`` is the orthogonal projection of y onto its span."""
        return self.support_fit[0]

    @cached_property
    def xi_norms(self) -> np.ndarray:
        """The block norms of :attr:`xi`, which :attr:`alpha_21` and Lemma 1 read."""
        return block_norms(self.xi)

    @cached_property
    def alpha_21(self) -> float:
        """``||alpha||_{2,1}``: the block norms of ``xi`` summed over ``remaining``.

        Raises ZeroDivisionError when it is zero, since both margins divide by it.
        """
        alpha_21 = float(sum(self.xi_norms[i - 1] for i in self.remaining))
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
    def probe_score(self) -> float:
        """``||A[j]' r||_2``: the probe's score against :attr:`partial_residual`."""
        scores = block_correlation_scores(self.problem.matrix, self.partial_residual)
        return float(scores[self.probe_index - 1])

    @property
    def noise_off_support(self) -> np.ndarray:
        """``y - A xi``, the fit's residual: ``Pperp_T e``, as ``A x`` lies in span(A_T)."""
        return self.support_fit[1]

    @cached_property
    def rip_delta(self) -> float:
        """Exact block isometry constant of order |T|+1."""
        return exact_block_rip(self.problem.matrix, len(self.support) + 1).delta

    @cached_property
    def identity_images(self) -> tuple:
        """The ``t``-free parts of the identity route, ``(c, B u, B v, noise_term)``.

        ``B u = Pperp_chosen A_remaining alpha`` and ``B v = Pperp_chosen A_j h``,
        each one projected vector; ``noise_term = <e, Pperp_T A_j h>``. Both
        projections come from one reduced QR of the support's columns, the
        chosen blocks first: ``Pperp_chosen`` from its leading columns,
        ``Pperp_T`` from all of them. Only :func:`eta_via_identity` reads
        them. Raises ZeroDivisionError as :attr:`alpha_21` does, the
        :class:`RankDeficientError` of the support's fit, which
        :attr:`alpha_21` reads first, and :class:`DegenerateProbeError` when
        the probe block is orthogonal to the projected observation.
        """
        A = self.problem.matrix
        j = self.probe_index
        c = 1.0 / self.alpha_21
        sub = A.entries[:, A.layout.columns(self.partial_support + self.remaining).ravel()]
        Q = np.linalg.qr(sub)[0]
        k = len(self.partial_support) * A.layout.block_width
        chosen_basis = Q[:, :k]
        r = _project_out(chosen_basis, self.problem.observation)
        probe_correlation = A.block(j).T @ r
        scale = float(np.linalg.norm(probe_correlation))
        if scale == 0.0:
            raise DegenerateProbeError(f"block {j} is orthogonal to the projected observation")
        probe_direction = A.block(j) @ (probe_correlation / scale)

        alpha = np.concatenate([self.xi.block(i) for i in self.remaining])
        Bu = _project_out(chosen_basis, sub[:, k:] @ alpha)
        Bv = _project_out(chosen_basis, probe_direction)
        noise_term = float(np.dot(self.noise, _project_out(Q, probe_direction)))
        return c, Bu, Bv, noise_term


def _project_out(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    return w - basis @ (basis.T @ w)


def eta_direct(inst: ProofInstance) -> float:
    """Selection margin straight from its definition.

    ``(||r||^2 - ||Pperp_T e||^2) / ||alpha||_{2,1} - ||A[j]' r||_2`` with r
    the residual after projecting onto the partial support and alpha the
    projection coefficients on the not-yet-chosen support blocks.
    """
    alpha_21 = inst.alpha_21
    r, e_off_support = inst.partial_residual, inst.noise_off_support
    r2, e2 = float(np.dot(r, r)), float(np.dot(e_off_support, e_off_support))
    return (r2 - e2) / alpha_21 - inst.probe_score


def eta_via_identity(inst: ProofInstance, t: float = 1.0) -> float:
    """Selection margin through the exact quadratic-difference identity.

    With ``B`` the dictionary on the unchosen support blocks plus the probe
    block, projected off the chosen blocks, u the coefficients alpha padded
    with zeros and v the unit probe vector h, evaluates
    ``(||(t+c) B u - B v||^2 - ||(t-c) B u + B v||^2)/(4t)`` with
    ``c = 1/||alpha||_{2,1}``, minus the noise correlation with the
    projected probe direction. ``c``, ``B u``, ``B v`` and the noise term do
    not depend on ``t``; the instance derives them once
    (:attr:`ProofInstance.identity_images`), so each further ``t`` costs two
    scaled sums and two dot products.

    The value is independent of ``t``, which must be finite and positive, in
    exact arithmetic only: in floating point the two squares cancel, and far
    from t = 1 the difference loses every digit. Raises ValueError naming
    ``t`` when the value overflows double precision, or when the rounding of
    the squares, ``eps (||plus||^2 + ||minus||^2)/(4t)``, exceeds
    ``IDENTITY_REL_TOL`` times ``max(1, |value|)``.
    """
    t = as_real(t, "t", positive=True)
    c, Bu, Bv, noise_term = inst.identity_images
    # the squares grow as t^2; a value that overflows is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        plus = (t + c) * Bu - Bv
        minus = (t - c) * Bu + Bv
        p2 = float(np.dot(plus, plus))
        m2 = float(np.dot(minus, minus))
    value = (p2 - m2) / (4.0 * t) - noise_term
    if not math.isfinite(value):
        raise ValueError(f"t {t:g} overflows the identity's squares in double precision")
    if _EPS * (p2 + m2) / (4.0 * t) > IDENTITY_REL_TOL * max(1.0, abs(value)):
        raise ValueError(f"t {t:g} cancels the identity's squares past its tolerance")
    return value


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
    the tightest value the lemma admits. Reads ``xi`` (so ``theta = xi - x``)
    and the exact isometry constant of order |T|+1 from the instance, so the
    instance must be small enough to enumerate; raises :class:`InfeasibleError`
    when that constant is not below 1, and ValueError when a quantity overflows.
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
            lhs=float(inst.xi_norms[on_support].min()),
            rhs=float(inst.truth_norms[on_support].min()) - margin,
            theta_norm=float(np.linalg.norm(inst.xi.values - inst.truth.values)),
            theta_bound=margin,
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
    estimate. Deterministic given the generator state. Refuses, before
    drawing, an ``epsilon`` above ``_MAX_EPSILON`` = 2^500 with ValueError.
    """
    num_blocks = as_int(num_blocks, "num_blocks")
    block_width = as_int(block_width, "block_width")
    sparsity = as_int(sparsity, "sparsity")
    epsilon = as_real(epsilon, "epsilon")
    if sparsity >= num_blocks:
        raise ValueError("need sparsity < num_blocks to leave a probe block")
    if epsilon > _MAX_EPSILON:
        raise ValueError(f"epsilon {epsilon:g} overflows double precision")
    rows = 10 * (sparsity + 1) * block_width
    layout = BlockLayout(num_blocks, block_width)

    for _ in range(MAX_ATTEMPTS):
        problem, truth = gaussian_instance(rng, layout, rows, sparsity, epsilon)
        T = block_support(truth)
        if len(T) != sparsity:
            continue
        k = int(rng.integers(0, sparsity))
        chosen = rng.choice(np.array(T), size=k, replace=False)
        off = [i for i in layout.block_indices() if i not in T]
        probe = int(off[rng.integers(0, len(off))])
        inst = ProofInstance(problem, truth, chosen, probe)
        if inst.rip_delta >= 1.0:
            continue
        # degenerate draws are measure zero; re-sample if one shows up anyway
        try:
            inst.alpha_21
        except ZeroDivisionError:
            continue
        if inst.probe_score == 0.0:
            continue
        return inst
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
