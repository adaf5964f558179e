"""Exact block restricted-isometry constants by exhaustive enumeration.

The order-K block-RIP constant is the smallest delta with
``(1-delta)||h||^2 <= ||A h||^2 <= (1+delta)||h||^2`` over all block
K-sparse h. It equals the worst deviation from 1 of the Gram spectrum of
any K-block subdictionary, so enumerating all size-K block supports and
eigen-decomposing each Gram matrix gives the exact value. That is
combinatorial on purpose: the constant is intractable in general, and the
budget guard refuses requests that cannot finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .core import BlockedMatrix, as_seed, extract_blocks
from .errors import BudgetExceededError

# roughly 1e8 floating operations of eigen-decomposition work
DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class RipReport:
    """Exact constant of one order together with the support attaining it.

    ``delta = max(lambda_max - 1, 1 - lambda_min)`` over every enumerated
    Gram spectrum. ``rip_holds`` is False when delta >= 1, meaning the
    isometry property of this order fails outright (the value is still
    reported for diagnosis).
    """

    order: int
    delta: float
    arg_support: tuple
    lambda_min: float
    lambda_max: float

    @property
    def rip_holds(self) -> bool:
        return self.delta < 1.0

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "delta": self.delta,
            "arg_support": list(self.arg_support),
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "rip_holds": self.rip_holds,
        }


def _support_extremes(A: BlockedMatrix, support) -> tuple[float, float]:
    sub = extract_blocks(A, support)
    eigenvalues = np.linalg.eigvalsh(sub.T @ sub)
    return float(eigenvalues[0]), float(eigenvalues[-1])


def enumeration_cost(A: BlockedMatrix, K: int) -> int:
    """Floating-point work estimate for the exhaustive computation."""
    return comb(A.layout.num_blocks, K) * (K * A.layout.block_width) ** 3


def exact_block_rip(
    A: BlockedMatrix, K: int, budget: int = DEFAULT_BUDGET
) -> RipReport:
    """Exact order-K block-RIP constant of ``A``.

    Enumerates every size-K block support, eigen-decomposes the Gram matrix
    of the corresponding subdictionary, and reports the worst spectral
    deviation from 1 along with the support attaining it. Raises
    :class:`BudgetExceededError` when the enumeration would exceed
    ``budget`` floating operations; pass a larger budget explicitly to
    force the computation.
    """
    M = A.layout.num_blocks
    if not 1 <= K <= M:
        raise ValueError(f"order K must be in 1..{M}, got {K}")
    cost = enumeration_cost(A, K)
    if cost > budget:
        raise BudgetExceededError(
            f"enumerating C({M},{K}) supports costs about {cost:.2e} flops, "
            f"budget is {budget:.2e}; raise the budget to force this"
        )

    best_delta = -np.inf
    best_support: tuple = ()
    lambda_min = np.inf
    lambda_max = -np.inf
    for support in combinations(range(1, M + 1), K):
        lo, hi = _support_extremes(A, support)
        lambda_min = min(lambda_min, lo)
        lambda_max = max(lambda_max, hi)
        delta_here = max(hi - 1.0, 1.0 - lo)
        if delta_here > best_delta:
            best_delta = delta_here
            best_support = support

    return RipReport(
        order=K,
        delta=float(best_delta),
        arg_support=best_support,
        lambda_min=float(lambda_min),
        lambda_max=float(lambda_max),
    )


def rip_lower_bound_sampled(
    A: BlockedMatrix, K: int, trials: int, seed: int
) -> float:
    """Randomized lower bound on the order-K constant.

    Takes the worst per-support deviation over ``trials`` uniformly sampled
    size-K supports; never exceeds the exact value and is deterministic
    given the seed. Intended for instances too large to enumerate.
    """
    M = A.layout.num_blocks
    if not 1 <= K <= M:
        raise ValueError(f"order K must be in 1..{M}, got {K}")
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    rng = np.random.default_rng(as_seed(seed))
    worst = 0.0
    for _ in range(trials):
        support = tuple(sorted(rng.choice(M, size=K, replace=False) + 1))
        lo, hi = _support_extremes(A, support)
        worst = max(worst, hi - 1.0, 1.0 - lo)
    return worst
