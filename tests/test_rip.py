import math
import tracemalloc
import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bomp import rip
from bomp.core import BlockedMatrix, BlockLayout, extract_blocks
from bomp.errors import BompError, BudgetExceededError
from bomp.rip import (
    enumeration_cost,
    exact_block_rip,
    rip_lower_bound_search,
)


def _reference_extremes(A, support):
    sub = extract_blocks(A, support)
    eigenvalues = np.linalg.eigvalsh(sub.T @ sub)
    return eigenvalues[0], eigenvalues[-1]


def _reference_deviations(A, K) -> dict:
    """Spectral deviation of every size-K support, one product per support."""
    out = {}
    for support in combinations(A.layout.block_indices(), K):
        lo, hi = _reference_extremes(A, support)
        out[support] = max(hi - 1.0, 1.0 - lo)
    return out


def _reference_sampled(A, K, trials, seed) -> float:
    """The worst deviation over ``trials`` supports drawn as the search draws
    its starts: a floor the search must reach."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        support = sorted(rng.choice(A.layout.num_blocks, size=K, replace=False) + 1)
        lo, hi = _reference_extremes(A, support)
        worst = max(worst, hi - 1.0, 1.0 - lo)
    return worst


def _reference_search(A, K, starts) -> tuple:
    """The witness of the swap ascent on per-support products: from each
    start, move to the first best strictly better one-block swap until none
    is; keep the first of the best ends. Needs K < M."""
    deviations = _reference_deviations(A, K)
    M = A.layout.num_blocks
    rng = np.random.default_rng(0)
    witness = None
    for _ in range(starts):
        support = tuple(sorted(int(b) + 1 for b in rng.choice(M, size=K, replace=False)))
        while True:
            swaps = [
                tuple(sorted(set(support) - {a} | {b}))
                for a in support
                for b in range(1, M + 1)
                if b not in support
            ]
            best = max(swaps, key=deviations.get)
            if deviations[best] <= deviations[support]:
                break
            support = best
        if witness is None or deviations[support] > deviations[witness]:
            witness = support
    return witness


def _chunk_bytes(per_chunk, K, d):
    """A chunk budget holding ``per_chunk`` supports, or the default."""
    if per_chunk is None:
        return rip._CHUNK_BYTES
    return per_chunk * rip._support_bytes(K, d)


def test_orthonormal_dictionary_has_zero_constant():
    A = BlockedMatrix(BlockLayout(3, 2), np.eye(6))
    for K in (1, 2, 3):
        report = exact_block_rip(A, K)
        assert report.delta == pytest.approx(0.0, abs=1e-14)
        assert report.lambda_min == pytest.approx(1.0, abs=1e-14)
        assert report.lambda_max == pytest.approx(1.0, abs=1e-14)
        assert report.rip_holds


def test_scaled_diagonal_matches_hand_computation():
    # columns of norm 1.1, 1.0, 0.8: spectra are squared norms, so the
    # constant is max(1.1^2 - 1, 1 - 0.8^2) = 0.36 at every order
    A = BlockedMatrix(BlockLayout(3, 1), np.diag([1.1, 1.0, 0.8]))
    r1 = exact_block_rip(A, 1)
    assert r1.delta == pytest.approx(0.36, abs=1e-14)
    assert r1.arg_support == (3,)
    assert r1.lambda_min == pytest.approx(0.64, abs=1e-14)
    assert r1.lambda_max == pytest.approx(1.21, abs=1e-14)
    r2 = exact_block_rip(A, 2)
    assert r2.delta == pytest.approx(0.36, abs=1e-14)
    assert r2.arg_support == (1, 3)  # first support attaining the max
    r3 = exact_block_rip(A, 3)
    assert r3.delta == pytest.approx(0.36, abs=1e-14)
    assert r3.arg_support == (1, 2, 3)


def test_constant_is_monotone_in_order():
    rng = np.random.default_rng(20)
    A = BlockedMatrix(BlockLayout(6, 2), rng.normal(size=(30, 12)) / np.sqrt(30))
    deltas = [exact_block_rip(A, K).delta for K in range(1, 7)]
    for lo, hi in zip(deltas, deltas[1:]):
        assert hi >= lo - 1e-14  # eigenvalue interlacing


def test_rip_holds_flag():
    # a zero column forces a zero eigenvalue, so delta >= 1
    A = BlockedMatrix(BlockLayout(2, 1), np.array([[1.0, 0.0], [0.0, 0.0]]))
    report = exact_block_rip(A, 2)
    assert report.delta >= 1.0
    assert not report.rip_holds


def test_order_validation():
    A = BlockedMatrix(BlockLayout(3, 1), np.eye(3))
    with pytest.raises(ValueError):
        exact_block_rip(A, 0)
    with pytest.raises(ValueError):
        exact_block_rip(A, 4)
    with pytest.raises(ValueError):
        rip_lower_bound_search(A, 4, starts=3)
    with pytest.raises(ValueError):
        rip_lower_bound_search(A, 1, starts=0)


def test_enumeration_cost_formula():
    A = BlockedMatrix(BlockLayout(10, 3), np.zeros((5, 30)))
    assert enumeration_cost(A, 4) == math.comb(10, 4) * (12**3)


def test_budget_guard():
    rng = np.random.default_rng(21)
    A = BlockedMatrix(BlockLayout(8, 2), rng.normal(size=(20, 16)))
    with pytest.raises(BudgetExceededError):
        exact_block_rip(A, 4, budget=10)
    # raising the budget unlocks the same computation
    assert exact_block_rip(A, 4, budget=10**9).delta > 0.0


def test_report_serialization():
    A = BlockedMatrix(BlockLayout(3, 1), np.eye(3) * 1.2)
    d = exact_block_rip(A, 2).to_dict()
    assert d["order"] == 2
    assert d["arg_support"] == [1, 2]
    assert d["rip_holds"] is True
    assert d["delta"] == pytest.approx(0.44, abs=1e-14)


@pytest.mark.parametrize("per_chunk", [1, 2, 5, None])
def test_chunking_does_not_change_the_report(per_chunk, monkeypatch):
    diagonal = BlockedMatrix(BlockLayout(3, 1), np.diag([1.1, 1.0, 0.8]))
    rng = np.random.default_rng(24)
    gaussian = BlockedMatrix(BlockLayout(6, 2), rng.normal(size=(15, 12)) / np.sqrt(15))
    for A in (diagonal, gaussian):
        for K in range(1, A.layout.num_blocks + 1):
            want = exact_block_rip(A, K)
            d = A.layout.block_width
            monkeypatch.setattr(rip, "_CHUNK_BYTES", _chunk_bytes(per_chunk, K, d))
            assert exact_block_rip(A, K) == want
            monkeypatch.undo()
    # with one or two supports per chunk the tie (1, 3)/(2, 3) at 0.36 falls
    # in two chunks; the first support still wins
    monkeypatch.setattr(rip, "_CHUNK_BYTES", _chunk_bytes(per_chunk, 2, 1))
    assert exact_block_rip(diagonal, 2).arg_support == (1, 3)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    M=st.integers(1, 7),
    d=st.integers(1, 3),
    rows=st.integers(1, 12),
    per_chunk=st.sampled_from((1, 3, None)),
    seed=st.integers(0, 2**32 - 1),
)
def test_gathered_sub_grams_match_per_support_products(M, d, rows, per_chunk, seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(1, M + 1))
    A = BlockedMatrix(BlockLayout(M, d), rng.normal(size=(rows, M * d)) / np.sqrt(rows))
    with mock.patch.object(rip, "_CHUNK_BYTES", _chunk_bytes(per_chunk, K, d)):
        report = exact_block_rip(A, K)

    deviations = _reference_deviations(A, K)
    extremes = [_reference_extremes(A, s) for s in deviations]
    assert report.delta == pytest.approx(max(deviations.values()), abs=1e-12)
    assert report.lambda_min == pytest.approx(min(lo for lo, _ in extremes), abs=1e-12)
    assert report.lambda_max == pytest.approx(max(hi for _, hi in extremes), abs=1e-12)
    # ulp-level near-ties may move the reported support, never off the maximum
    assert deviations[report.arg_support] == pytest.approx(report.delta, abs=1e-12)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    M=st.integers(1, 7),
    d=st.integers(1, 3),
    rows=st.integers(1, 12),
    gap=st.integers(0, 6),
    starts=st.integers(1, 4),
    per_chunk=st.sampled_from((1, 3, None)),
    orthonormal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_search_is_a_reproducible_lower_bound(
    M, d, rows, gap, starts, per_chunk, orthonormal, seed
):
    rng = np.random.default_rng(seed)
    K = max(1, M - gap)  # gap 0, drawn most often, is the order K = M
    if orthonormal:  # all M*d columns orthonormal
        q, _ = np.linalg.qr(rng.normal(size=(M * d + 2, M * d)))
        A = BlockedMatrix(BlockLayout(M, d), q)
    else:
        A = BlockedMatrix(BlockLayout(M, d), rng.normal(size=(rows, M * d)) / np.sqrt(rows))
    bounds = [rip_lower_bound_search(A, K, s) for s in range(1, starts + 1)]
    bound, witness = bounds[-1]

    # the witness attains the bound: re-scanned alone, it gives the same bits
    assert rip._scan(A, K, rip._gram(A, K), iter([witness])).delta == bound
    exact = exact_block_rip(A, K).delta
    assert bound <= exact
    if K == M:
        assert (bound, witness) == (exact, tuple(range(1, M + 1)))
    if orthonormal:
        assert bound == pytest.approx(0.0, abs=1e-14)
    # more starts only add ascents from the same stream
    assert all(a <= b for (a, _), (b, _) in zip(bounds, bounds[1:]))
    with mock.patch.object(rip, "_CHUNK_BYTES", _chunk_bytes(per_chunk, K, d)):
        assert rip_lower_bound_search(A, K, starts) == (bound, witness)
    # each ascent climbs from a support the old sampler drew at seed 0
    assert bound >= _reference_sampled(A, K, starts, 0) - 1e-12


@pytest.mark.parametrize("seed", [25, 34, 36, 37])
def test_search_follows_the_reference_ascent(seed):
    # on these (8, 8, 1) dictionaries at order 3 a later start's ascent ends
    # above the first one's, so the witness moves as the starts grow; by 16
    # starts, on 56 supports, later ascents run into earlier ones' paths
    rng = np.random.default_rng(seed)
    A = BlockedMatrix(BlockLayout(8, 1), rng.normal(size=(8, 8)) / np.sqrt(8))
    witnesses = [rip_lower_bound_search(A, 3, s)[1] for s in range(1, 5)]
    with mock.patch.object(rip, "_swaps", wraps=rip._swaps) as swaps:
        witnesses.append(rip_lower_bound_search(A, 3, 16)[1])
    assert witnesses == [_reference_search(A, 3, s) for s in (1, 2, 3, 4, 16)]
    assert witnesses[0] != witnesses[3]
    # and no support's neighbourhood is scanned twice
    scanned = [call.args[0] for call in swaps.call_args_list]
    assert len(scanned) == len(set(scanned))


@pytest.mark.parametrize("K, gram_bytes", [(1, 600 * 8), (2, 600 * 600 * 8)])
def test_enumeration_memory_is_bounded(K, gram_bytes, monkeypatch):
    # at K = 2, 179 700 supports: all of them at once, or a list of their
    # tuples, would take several MB beyond the Gram matrix and the chunk
    # budget; at K = 1 only the 600 diagonal entries of A'A are read
    chunk = 2**20
    monkeypatch.setattr(rip, "_CHUNK_BYTES", chunk)
    rng = np.random.default_rng(25)
    A = BlockedMatrix(BlockLayout(600, 1), rng.normal(size=(30, 600)) / np.sqrt(30))
    tracemalloc.start()
    try:
        report = exact_block_rip(A, K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.arg_support) == K
    assert peak <= gram_bytes + chunk + 2**19


@pytest.mark.parametrize("K", [1, 2])
def test_overflowing_gram_is_refused(K):
    rng = np.random.default_rng(26)
    entries = rng.normal(size=(20, 12))
    entries[:, 3] *= 1e160  # second column of block 2
    A = BlockedMatrix(BlockLayout(6, 2), entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BompError, match="Gram matrix"):
            exact_block_rip(A, K)
        with pytest.raises(BompError, match="Gram matrix"):
            rip_lower_bound_search(A, K, starts=5)
