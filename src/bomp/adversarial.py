"""Worst-case instance family defeating greedy block selection.

For any sparsity K and any constant ``delta < 1/sqrt(K+1)`` there is a
square dictionary whose exact block-RIP constant of order K+1 equals
``delta``, together with a supported signal and an adversarially aligned
noise vector, on which the pursuit's very first block pick lands outside
the true support whenever the common block magnitude ``t0`` sits below the
necessary threshold. The family is fully explicit:

* dictionary: identity block on top of ``s``-scaled stacked identities,
  with ``a``-scaled identity on the supported blocks, where
  ``s = delta/sqrt(K)`` and ``a = sqrt(1 - delta^2)``;
* signal: first coordinate unit vector scaled by ``t0`` in each of the
  blocks 2..K+1, nothing in block 1;
* noise: ``epsilon`` on the first coordinate only, so its norm is exactly
  ``epsilon``.

The resulting observation has score ``epsilon + K*a*s*t0`` on the
unsupported block and ``a^2 * t0`` on every supported one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundInputs, delta_limit, necessary_bound
from .core import BlockedMatrix, BlockLayout, BlockSignal, SensingProblem, as_int, as_real
from .io import json_fields
from .solver import block_correlation_scores

DEFAULT_T0_SAFETY = 0.99


def max_t0_for_failure(K: int, delta: float, epsilon: float) -> float:
    """Strict upper bound on t0 below which the first selection is wrong.

    Identical, value for value, to :func:`bomp.bounds.necessary_bound`: the
    worst-case construction is exactly what makes that bound necessary.
    """
    return necessary_bound(BoundInputs(K=K, delta=delta, epsilon=epsilon))


@dataclass(frozen=True)
class AdversarialParams:
    """Parameters of the worst-case family.

    The construction exists for any ``delta`` in (0, 1); the guaranteed
    first-pick failure additionally needs ``delta < 1/sqrt(K+1)`` (the
    regime where the failure threshold is positive). ``t0`` is the common
    block magnitude of the supported blocks; when not given it defaults to
    ``0.99`` times the failure threshold, strictly inside the failure
    region with margin for round-off, which makes the default available
    only in that regime. ``d`` is a positive integer and ``t0`` finite and
    positive; K, delta and epsilon are checked by :class:`BoundInputs`.
    """

    d: int
    K: int
    delta: float
    epsilon: float
    t0: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "d", as_int(self.d, "d"))
        b = BoundInputs(K=self.K, delta=self.delta, epsilon=self.epsilon)
        for name in ("K", "delta", "epsilon"):
            object.__setattr__(self, name, getattr(b, name))
        t0 = DEFAULT_T0_SAFETY * necessary_bound(b) if self.t0 is None else self.t0
        object.__setattr__(self, "t0", as_real(t0, "t0", positive=True))

    @property
    def in_failure_regime(self) -> bool:
        """True when delta < 1/sqrt(K+1), where a wrong first pick is certain."""
        return self.delta < delta_limit(self.K)

    @property
    def s(self) -> float:
        return self.delta / math.sqrt(self.K)

    @property
    def a(self) -> float:
        return math.sqrt(1.0 - self.delta**2)

    @property
    def layout(self) -> BlockLayout:
        return BlockLayout(num_blocks=self.K + 1, block_width=self.d)

    @property
    def true_support(self) -> tuple:
        return tuple(range(2, self.K + 2))


def build_matrix(p: AdversarialParams) -> BlockedMatrix:
    """The square d(K+1) x d(K+1) dictionary of the family."""
    d, K = p.d, p.K
    n = d * (K + 1)
    A = np.zeros((n, n))
    A[:d, :d] = np.eye(d)
    # K vertically stacked d x d identities, scaled by s
    A[d:, :d] = p.s * np.tile(np.eye(d), (K, 1))
    A[d:, d:] = p.a * np.eye(d * K)
    return BlockedMatrix(p.layout, A)


def build_adversarial_instance(p: AdversarialParams):
    """Instantiate the family: returns (problem, ground truth, noise).

    The observation is assembled in closed form (``epsilon`` times the
    first coordinate unit vector in block 1, ``a*t0`` times it in every
    supported block) and coincides with ``A @ x + e``.
    """
    d, K = p.d, p.K
    layout = p.layout
    matrix = build_matrix(p)

    e1 = np.zeros(d)
    e1[0] = 1.0

    truth = BlockSignal.from_blocks(
        layout, {i: p.t0 * e1 for i in p.true_support}
    )
    noise = np.zeros(layout.ambient_dim)
    noise[0] = p.epsilon

    y = np.zeros(layout.ambient_dim)
    y[0] = p.epsilon
    for i in p.true_support:
        y[(i - 1) * d] = p.a * p.t0

    problem = SensingProblem(matrix=matrix, observation=y)
    return problem, truth, noise


def closed_form_spectrum(p: AdversarialParams) -> np.ndarray:
    """Eigenvalues of the width-1 dictionary's Gram matrix, ascending.

    Only stated for d = 1: {1-delta, 1+delta} when K = 1, and
    {1-delta^2 with multiplicity K-1, 1-delta, 1+delta} when K > 1.
    """
    if p.d != 1:
        raise ValueError("closed-form spectrum is only available for d = 1")
    if p.K == 1:
        return np.array([1.0 - p.delta, 1.0 + p.delta])
    eigenvalues = np.concatenate(
        [
            np.full(p.K - 1, 1.0 - p.delta**2),
            [1.0 - p.delta, 1.0 + p.delta],
        ]
    )
    return np.sort(eigenvalues)


@dataclass(frozen=True)
class FailureReport:
    """First-iteration outcome on the adversarial observation."""

    first_selected_index: int = field(init=False)
    scores: tuple
    failed: bool = field(init=False)  # first pick is block 1, off the support
    score_off_support: float  # closed form epsilon + K*a*s*t0, block 1
    score_in_support: float  # closed form a^2 * t0, every supported block

    def __post_init__(self):
        # the pursuit's first pick: np.argmax returns the first maximum,
        # which is the smallest block index
        object.__setattr__(self, "first_selected_index", int(np.argmax(self.scores)) + 1)
        object.__setattr__(self, "failed", self.first_selected_index == 1)

    def to_dict(self) -> dict:
        return json_fields(self)


def demonstrate_failure(p: AdversarialParams) -> FailureReport:
    """Run the first greedy selection on the instance and report the scores.

    ``failed`` is True exactly when the selector picks block 1, the one
    block outside the support; this is guaranteed whenever
    ``t0 < max_t0_for_failure`` and flips once t0 grows well beyond it.
    """
    problem, _, _ = build_adversarial_instance(p)
    scores = block_correlation_scores(problem.matrix, problem.observation)
    return FailureReport(
        scores=tuple(float(v) for v in scores),
        score_off_support=p.epsilon + p.K * p.a * p.s * p.t0,
        score_in_support=p.a**2 * p.t0,
    )
