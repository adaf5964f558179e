"""Exact block restricted-isometry constants by exhaustive enumeration.

The order-K block-RIP constant is the smallest delta with
``(1-delta)||h||^2 <= ||A h||^2 <= (1+delta)||h||^2`` over all block
K-sparse h. It equals the worst deviation from 1 of the Gram spectrum of
any K-block subdictionary, so enumerating all size-K block supports and
eigen-decomposing each Gram matrix gives the exact value. That is
combinatorial on purpose: the constant is intractable in general, and the
budget guard refuses requests that cannot finish.

Both the exact and the sampled route form the Gram matrix ``G = A'A`` once
(at order 1 only its diagonal blocks). The sub-Gram of a support is then a
gather from ``G`` rather than a product of its columns. Supports are
processed in chunks: each chunk gathers all its sub-Grams in one indexing
operation and eigen-decomposes them in one batched call. A chunk holds as
many supports as fit in ``_CHUNK_BYTES``, counting the support and column
index arrays as well as the sub-Grams and their spectra, so memory beyond
``G`` stays bounded however many supports there are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .core import BlockedMatrix, as_seed
from .errors import BompError, BudgetExceededError
from .io import json_fields

# roughly 1e8 floating operations of eigen-decomposition work
DEFAULT_BUDGET = 10**8

# working memory of one chunk of supports, in bytes
_CHUNK_BYTES = 2**25


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
    rip_holds: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rip_holds", self.delta < 1.0)

    def to_dict(self) -> dict:
        return json_fields(self)


def _gram(A: BlockedMatrix, K: int) -> np.ndarray:
    """The part of ``A'A`` that order-K sub-Grams read: all of it, or for
    K = 1 only its diagonal blocks, stacked (M, d, d), so that a wide
    dictionary does not pay n^2 memory for M small Grams. Refused when an
    entry overflows double precision."""
    E = A.entries
    with np.errstate(over="ignore", invalid="ignore"):
        if K == 1:
            blocks = E.reshape(len(E), A.layout.num_blocks, A.layout.block_width)
            G = np.einsum("imk,iml->mkl", blocks, blocks)
        else:
            G = E.T @ E
    if not np.isfinite(G).all():
        raise BompError("the Gram matrix of the dictionary overflows double precision")
    return G


def _support_bytes(K: int, d: int) -> int:
    """Chunk memory per support: its sub-Gram and spectrum, its column
    indices, its block indices with the temporaries that map them to
    columns, and its deviation with two temporaries."""
    n = K * d
    return 8 * (n * n + 2 * n + 3 * K + 3)


def _chunk_length(K: int, d: int) -> int:
    return max(1, _CHUNK_BYTES // _support_bytes(K, d))


def _extremes(G: np.ndarray, A: BlockedMatrix, supports: np.ndarray):
    """Smallest and largest Gram eigenvalue of every support, one support
    per row of 1-based block indices in ascending order."""
    if G.ndim == 3:
        subs = G[supports[:, 0] - 1]
    else:
        cols = A.layout.columns(supports.ravel()).reshape(len(supports), -1)
        subs = G[cols[:, :, None], cols[:, None, :]]
    spectra = np.linalg.eigvalsh(subs)
    return spectra[:, 0], spectra[:, -1]


def enumeration_cost(A: BlockedMatrix, K: int) -> int:
    """Floating-point work estimate for the exhaustive computation."""
    return comb(A.layout.num_blocks, K) * (K * A.layout.block_width) ** 3


def exact_block_rip(
    A: BlockedMatrix, K: int, budget: int = DEFAULT_BUDGET
) -> RipReport:
    """Exact order-K block-RIP constant of ``A``.

    Enumerates every size-K block support in lexicographic order,
    eigen-decomposes the Gram matrix of the corresponding subdictionary, and
    reports the worst spectral deviation from 1 along with the first support
    attaining it. Raises :class:`BudgetExceededError` when the enumeration
    would exceed ``budget`` floating operations; pass a larger budget
    explicitly to force the computation. Raises :class:`BompError` when
    ``A'A`` overflows double precision.
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

    G = _gram(A, K)
    combos = combinations(range(1, M + 1), K)
    length = _chunk_length(K, A.layout.block_width)
    best_delta = -np.inf
    best_support: tuple = ()
    lambda_min = np.inf
    lambda_max = -np.inf
    while True:
        flat = chain.from_iterable(islice(combos, length))
        supports = np.fromiter(flat, dtype=np.intp).reshape(-1, K)
        if not len(supports):
            break
        lo, hi = _extremes(G, A, supports)
        lambda_min = min(lambda_min, lo.min())
        lambda_max = max(lambda_max, hi.max())
        deviation = np.maximum(hi - 1.0, 1.0 - lo)
        # argmax takes the first maximum in the chunk and the strict
        # comparison the first across chunks: ties go to the
        # lexicographically first support
        i = int(np.argmax(deviation))
        if deviation[i] > best_delta:
            best_delta = deviation[i]
            best_support = tuple(int(b) for b in supports[i])

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
    given the seed. Intended for instances too large to enumerate. Raises
    :class:`BompError` when ``A'A`` overflows double precision.
    """
    M = A.layout.num_blocks
    if not 1 <= K <= M:
        raise ValueError(f"order K must be in 1..{M}, got {K}")
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    rng = np.random.default_rng(as_seed(seed))
    G = _gram(A, K)
    length = _chunk_length(K, A.layout.block_width)
    worst = 0.0
    for start in range(0, trials, length):
        supports = np.empty((min(length, trials - start), K), dtype=np.intp)
        for row in supports:
            row[:] = rng.choice(M, size=K, replace=False)
        supports.sort(axis=1)
        supports += 1
        lo, hi = _extremes(G, A, supports)
        worst = max(worst, float(np.max(hi - 1.0)), float(np.max(1.0 - lo)))
    return worst
