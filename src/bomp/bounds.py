"""Closed-form recovery thresholds on the minimum block norm.

Three scalar bounds govern exact support recovery from noisy measurements
with isometry constant ``delta`` of order K+1 and noise norm at most
``epsilon``:

* ``z1_sufficient_bound``: above it, greedy block pursuit provably
  recovers the support in K iterations;
* ``z2_prior_bound``: the older sufficient threshold that z1 improves on
  (z2 > z1 strictly on the whole feasible region);
* ``necessary_bound``: below it, an explicit worst-case instance defeats
  the pursuit, so no sufficient condition can reach lower.

All three are homogeneous in epsilon and only defined for
``delta < 1/sqrt(K+1)``; outside that region they raise
:class:`InfeasibleError` instead of returning a meaningless number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError
from .io import json_fields

REASON_RIP = "rip"
REASON_NORM = "norm"


def delta_limit(K: int) -> float:
    """Feasibility edge 1/sqrt(K+1); ValueError unless K is positive."""
    if K < 1:
        raise ValueError(f"K must be a positive integer, got {K}")
    return 1.0 / math.sqrt(K + 1)


@dataclass(frozen=True)
class BoundInputs:
    """Sparsity level, isometry constant of order K+1, and noise bound."""

    K: int
    delta: float
    epsilon: float = 1.0

    def __post_init__(self):
        delta_limit(self.K)  # rejects K < 1
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")

    @property
    def delta_limit(self) -> float:
        """Feasibility edge 1/sqrt(K+1); the bounds exist strictly below it."""
        return delta_limit(self.K)

    @property
    def feasible(self) -> bool:
        return self.delta < self.delta_limit

    def require_feasible(self) -> None:
        if not self.feasible:
            raise InfeasibleError(
                f"delta={self.delta} is not below 1/sqrt(K+1)="
                f"{self.delta_limit:.6f} for K={self.K}"
            )


def _finite(name: str, value: float, b: BoundInputs) -> float:
    """``value`` unchanged; ValueError when the bound overflowed to inf or nan."""
    if not math.isfinite(value):
        raise ValueError(
            f"{name} bound is not finite at K={b.K}, delta={b.delta}, "
            f"epsilon={b.epsilon}: got {value}"
        )
    return value


def z1_sufficient_bound(b: BoundInputs) -> float:
    """eps/sqrt(1-delta) + eps*sqrt(1+delta)/(1 - sqrt(K+1)*delta)."""
    b.require_feasible()
    return _finite(
        "z1",
        b.epsilon / math.sqrt(1.0 - b.delta)
        + b.epsilon * math.sqrt(1.0 + b.delta) / (1.0 - math.sqrt(b.K + 1) * b.delta),
        b,
    )


def z2_prior_bound(b: BoundInputs) -> float:
    """2*eps/(1 - sqrt(K+1)*delta)."""
    b.require_feasible()
    return _finite("z2", 2.0 * b.epsilon / (1.0 - math.sqrt(b.K + 1) * b.delta), b)


def necessary_bound(b: BoundInputs) -> float:
    """eps/(sqrt(1-delta^2)*(sqrt(1-delta^2) - sqrt(K)*delta))."""
    b.require_feasible()
    root = math.sqrt(1.0 - b.delta**2)
    denominator = root * (root - math.sqrt(b.K) * b.delta)
    # delta < 1/sqrt(K+1) is equivalent to a positive denominator, but within
    # a few ulps of that edge it rounds to zero
    quotient = b.epsilon / denominator if denominator > 0.0 else math.inf
    return _finite("necessary", quotient, b)


@dataclass(frozen=True)
class SufficiencyVerdict:
    guaranteed: bool = field(init=False)  # no clause failed
    reasons: tuple
    z1: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "guaranteed", not self.reasons)

    def to_dict(self) -> dict:
        return json_fields(self)


def check_sufficient(
    K: int, delta: float, epsilon: float, min_block_norm: float
) -> SufficiencyVerdict:
    """Is exact recovery in K iterations guaranteed for these facts?

    Guaranteed iff delta < 1/sqrt(K+1) and the minimum block norm strictly
    exceeds the z1 threshold; the verdict lists which clause failed.
    """
    b = BoundInputs(K=K, delta=delta, epsilon=epsilon)
    if math.isnan(min_block_norm):
        raise ValueError("min_block_norm must be a number, got nan")
    if not b.feasible:
        return SufficiencyVerdict(reasons=(REASON_RIP,))
    z1 = z1_sufficient_bound(b)
    if not min_block_norm > z1:
        return SufficiencyVerdict(reasons=(REASON_NORM,), z1=z1)
    return SufficiencyVerdict(reasons=(), z1=z1)


def open_delta_grid(limit: float, points: int) -> np.ndarray:
    """Uniform grid of ``points`` values strictly inside (0, limit)."""
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    return limit * np.arange(1, points + 1) / (points + 1)


def figure1_curves(K_values, grid_points: int, epsilon: float = 1.0) -> np.ndarray:
    """Sufficient-bound comparison table, one row per (K, delta) pair.

    For each K, delta sweeps an open uniform grid in (0, 1/sqrt(K+1));
    columns are (K, delta, z1, z2, z1 - z2) at the given epsilon. Both
    bounds tend to 2*epsilon as delta -> 0, and z1 - z2 < 0 everywhere.
    """
    rows = []
    for K in K_values:
        for delta in open_delta_grid(delta_limit(K), grid_points):
            b = BoundInputs(K=int(K), delta=float(delta), epsilon=epsilon)
            z1 = z1_sufficient_bound(b)
            z2 = z2_prior_bound(b)
            rows.append((float(K), float(delta), z1, z2, z1 - z2))
    return np.array(rows)


def verify_inequality_20(grid_points: int = 10_000) -> bool:
    """Check 2 - sqrt(1+delta) > sqrt(1-delta) on an open grid in (0, 1).

    The display degenerates to equality at delta = 0, hence the open grid.
    """
    deltas = open_delta_grid(1.0, grid_points)
    return bool(np.all(2.0 - np.sqrt(1.0 + deltas) > np.sqrt(1.0 - deltas)))
