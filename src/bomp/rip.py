"""Exact block restricted-isometry constants by exhaustive enumeration.

The order-K block-RIP constant is the smallest delta with
``(1-delta)||h||^2 <= ||A h||^2 <= (1+delta)||h||^2`` over all block
K-sparse h. It equals the worst deviation from 1 of the Gram spectrum of
any K-block subdictionary, so enumerating all size-K block supports and
eigen-decomposing each Gram matrix gives the exact value. That is
combinatorial on purpose: the constant is intractable in general, and the
budget guard refuses requests that cannot finish.

The exact and the sampled route differ only in the supports they hand to
one scan: every support in lexicographic order, or seeded uniform draws.
The scan forms the Gram matrix ``G = A'A`` once (at order 1 only its
diagonal blocks). The sub-Gram of a support is then a gather from ``G``
rather than a product of its columns. Supports are processed in chunks:
each chunk gathers all its sub-Grams in one indexing operation and
eigen-decomposes them in one batched call. A chunk holds as many supports
as fit in ``_CHUNK_BYTES``, counting the support and column index arrays as
well as the sub-Grams and their spectra, so memory beyond ``G`` stays
bounded however many supports there are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .core import BlockedMatrix, as_int
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


def _order(A: BlockedMatrix, K) -> int:
    """``K`` as a support order of ``A``: an integer in 1..M."""
    M = A.layout.num_blocks
    K = as_int(K, "order K")
    if K > M:
        raise ValueError(f"order K must be in 1..{M}, got {K}")
    return K


def _scan(A: BlockedMatrix, K: int, supports) -> RipReport:
    """The worst deviation from 1 over the Gram spectra of ``supports``, an
    iterator of K ascending 1-based block indices each, with the first
    support attaining it and the eigenvalue extremes. Raises
    :class:`BompError` when ``A'A`` overflows double precision."""
    G = _gram(A, K)
    length = max(1, _CHUNK_BYTES // _support_bytes(K, A.layout.block_width))
    best_delta, best_support = -np.inf, ()
    lambda_min, lambda_max = np.inf, -np.inf
    while True:
        flat = chain.from_iterable(islice(supports, length))
        chunk = np.fromiter(flat, dtype=np.intp).reshape(-1, K)
        if not len(chunk):
            break
        if G.ndim == 3:
            subs = G[chunk[:, 0] - 1]
        else:
            cols = A.layout.columns(chunk.ravel()).reshape(len(chunk), -1)
            subs = G[cols[:, :, None], cols[:, None, :]]
        spectra = np.linalg.eigvalsh(subs)
        lo, hi = spectra[:, 0], spectra[:, -1]
        lambda_min = min(lambda_min, lo.min())
        lambda_max = max(lambda_max, hi.max())
        deviation = np.maximum(hi - 1.0, 1.0 - lo)
        # argmax takes the first maximum in the chunk and the strict
        # comparison the first across chunks: ties go to the first support
        i = int(np.argmax(deviation))
        if deviation[i] > best_delta:
            best_delta = deviation[i]
            best_support = tuple(int(b) for b in chunk[i])
    return RipReport(
        order=K,
        delta=float(best_delta),
        arg_support=best_support,
        lambda_min=float(lambda_min),
        lambda_max=float(lambda_max),
    )


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
    K = _order(A, K)
    budget = as_int(budget, "budget", minimum=0)
    cost = enumeration_cost(A, K)
    if cost > budget:
        raise BudgetExceededError(
            f"enumerating C({A.layout.num_blocks},{K}) supports costs about "
            f"{cost:.2e} flops, budget is {budget:.2e}; raise the budget to force this"
        )
    return _scan(A, K, combinations(A.layout.block_indices(), K))


def rip_lower_bound_sampled(
    A: BlockedMatrix, K: int, trials: int, seed: int
) -> float:
    """Randomized lower bound on the order-K constant.

    Takes the worst per-support deviation over ``trials`` uniformly sampled
    size-K supports; never exceeds the exact value and is deterministic
    given the seed. Intended for instances too large to enumerate. Raises
    :class:`BompError` when ``A'A`` overflows double precision.
    """
    K = _order(A, K)
    trials = as_int(trials, "trials")
    rng = np.random.default_rng(as_int(seed, "seed", minimum=0))
    M = A.layout.num_blocks
    draws = (np.sort(rng.choice(M, size=K, replace=False)) + 1 for _ in range(trials))
    return _scan(A, K, draws).delta
