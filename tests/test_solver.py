import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bomp.core import BlockedMatrix, BlockLayout, BlockSignal, SensingProblem
from bomp.errors import BompError, RankDeficientError
from bomp.solver import (
    BOTH,
    RANK_TOL,
    FIXED_ITERATIONS,
    RESIDUAL_THRESHOLD,
    STATUS_BUDGET_EXCEEDED,
    STATUS_CONVERGED,
    StoppingRule,
    block_correlation_scores,
    project_least_squares,
    run_bomp,
    run_bomp_batch,
    select_block,
)


def _random_problem(rng, m=20, M=5, d=2, support=(2, 4), noise=0.0):
    layout = BlockLayout(M, d)
    A = BlockedMatrix(layout, rng.normal(size=(m, layout.ambient_dim)) / np.sqrt(m))
    x = BlockSignal.from_blocks(
        layout, {i: rng.normal(size=d) + np.sign(rng.normal()) * 2 for i in support}
    )
    e = np.zeros(m)
    if noise > 0:
        raw = rng.normal(size=m)
        e = raw * (noise / np.linalg.norm(raw))
    y = A.entries @ x.values + e
    return SensingProblem(matrix=A, observation=y), x


def test_stopping_rule_validation():
    StoppingRule(RESIDUAL_THRESHOLD, epsilon=0.1)
    StoppingRule(FIXED_ITERATIONS, max_iterations=3)
    StoppingRule(BOTH, epsilon=0.0, max_iterations=1)
    with pytest.raises(ValueError):
        StoppingRule("whenever")
    with pytest.raises(ValueError):
        StoppingRule(RESIDUAL_THRESHOLD, epsilon=-1.0)
    with pytest.raises(ValueError):
        StoppingRule(FIXED_ITERATIONS)  # needs a count
    with pytest.raises(ValueError):
        StoppingRule(FIXED_ITERATIONS, max_iterations=0)
    with pytest.raises(ValueError):
        StoppingRule(BOTH, epsilon=0.1)


def test_select_block_breaks_ties_toward_smallest_index():
    layout = BlockLayout(6, 1)
    A = BlockedMatrix(layout, np.eye(6))
    y = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])  # blocks 2 and 5 tie exactly
    assert select_block(A, y) == 2
    assert select_block(A, y, exclude=(2,)) == 5


def test_select_block_validates_input():
    A = BlockedMatrix(BlockLayout(3, 2), np.eye(6))
    with pytest.raises(ValueError):
        select_block(A, np.zeros(5))
    with pytest.raises(ValueError):
        select_block(A, np.zeros(6), exclude=(7,))


def test_correlation_scores_match_definition():
    rng = np.random.default_rng(3)
    layout = BlockLayout(4, 3)
    A = BlockedMatrix(layout, rng.normal(size=(10, 12)))
    r = rng.normal(size=10)
    scores = block_correlation_scores(A, r)
    expected = [np.linalg.norm(A.block(i).T @ r) for i in layout.block_indices()]
    np.testing.assert_allclose(scores, expected, rtol=1e-14)
    assert select_block(A, r) == 1 + int(np.argmax(expected))


def test_projection_residual_is_orthogonal():
    rng = np.random.default_rng(4)
    layout = BlockLayout(5, 2)
    A = BlockedMatrix(layout, rng.normal(size=(12, 10)))
    y = rng.normal(size=12)
    estimate, residual = project_least_squares(A, (1, 3), y)
    np.testing.assert_allclose(residual, y - A.entries @ estimate.values, atol=1e-13)
    for i in (1, 3):
        assert np.linalg.norm(A.block(i).T @ residual) < 1e-12 * np.linalg.norm(y)
    # untouched blocks stay exactly zero
    for i in (2, 4, 5):
        assert np.all(estimate.block(i) == 0.0)


def test_projection_empty_support_returns_observation():
    A = BlockedMatrix(BlockLayout(2, 2), np.eye(4))
    y = np.array([1.0, 2.0, 3.0, 4.0])
    estimate, residual = project_least_squares(A, (), y)
    assert np.all(estimate.values == 0.0)
    np.testing.assert_array_equal(residual, y)


def test_projection_rejects_rank_deficiency():
    layout = BlockLayout(3, 1)
    col = np.array([[1.0], [2.0], [0.0]])
    A = BlockedMatrix(layout, np.hstack([col, col, np.array([[0.0], [0.0], [1.0]])]))
    with pytest.raises(RankDeficientError):
        project_least_squares(A, (1, 2), np.ones(3))
    # more columns than rows is rejected up front
    wide = BlockedMatrix(BlockLayout(3, 2), np.ones((4, 6)))
    with pytest.raises(RankDeficientError):
        project_least_squares(wide, (1, 2, 3), np.ones(4))


def test_noiseless_recovery_converges_to_support():
    rng = np.random.default_rng(5)
    problem, x = _random_problem(rng)
    trace = run_bomp(problem, StoppingRule(RESIDUAL_THRESHOLD, epsilon=1e-10))
    assert trace.status == STATUS_CONVERGED
    assert set(trace.chosen_indices) == {2, 4}
    assert trace.iterations_run == 2
    assert trace.residual_norms[-1] <= 1e-10
    np.testing.assert_allclose(trace.final_estimate.values, x.values, atol=1e-9)


def test_fixed_iteration_count_is_exact():
    rng = np.random.default_rng(6)
    problem, _ = _random_problem(rng, noise=0.5)
    trace = run_bomp(problem, StoppingRule(FIXED_ITERATIONS, max_iterations=3))
    assert trace.iterations_run == 3
    assert trace.status == STATUS_CONVERGED
    assert len(trace.residual_norms) == 4
    assert trace.residual_norms[0] == pytest.approx(
        np.linalg.norm(problem.observation)
    )


def test_both_mode_stops_at_whichever_fires_first():
    rng = np.random.default_rng(7)
    problem, _ = _random_problem(rng)
    # residual hits zero after 2 picks, well before the 4-iteration budget
    trace = run_bomp(problem, StoppingRule(BOTH, epsilon=1e-10, max_iterations=4))
    assert trace.iterations_run == 2
    # budget fires first when the threshold is unreachable
    noisy, _ = _random_problem(rng, noise=1.0)
    trace = run_bomp(noisy, StoppingRule(BOTH, epsilon=1e-12, max_iterations=1))
    assert trace.iterations_run == 1
    assert trace.status == STATUS_CONVERGED


def test_unreachable_threshold_reports_budget_exceeded():
    rng = np.random.default_rng(8)
    problem, _ = _random_problem(rng, noise=1.0)
    trace = run_bomp(problem, StoppingRule(RESIDUAL_THRESHOLD, epsilon=0.0))
    assert trace.status == STATUS_BUDGET_EXCEEDED
    # every block was consumed: capacity of a 20x10 dictionary is all 5 blocks
    assert trace.iterations_run == 5
    assert sorted(trace.chosen_indices) == [1, 2, 3, 4, 5]


def test_budget_respects_row_capacity():
    # 4 rows, width 2: least squares supports at most 2 blocks
    rng = np.random.default_rng(9)
    layout = BlockLayout(5, 2)
    A = BlockedMatrix(layout, rng.normal(size=(4, 10)))
    problem = SensingProblem(matrix=A, observation=rng.normal(size=4))
    trace = run_bomp(problem, StoppingRule(RESIDUAL_THRESHOLD, epsilon=0.0))
    assert trace.iterations_run <= 2


def test_run_is_deterministic():
    rng = np.random.default_rng(10)
    problem, _ = _random_problem(rng, noise=0.3)
    stop = StoppingRule(FIXED_ITERATIONS, max_iterations=3)
    t1 = run_bomp(problem, stop)
    t2 = run_bomp(problem, stop)
    assert t1.chosen_indices == t2.chosen_indices
    assert t1.residual_norms == t2.residual_norms
    np.testing.assert_array_equal(t1.final_estimate.values, t2.final_estimate.values)


def test_trace_serialization_mirrors_fields():
    rng = np.random.default_rng(11)
    problem, _ = _random_problem(rng)
    trace = run_bomp(problem, StoppingRule(FIXED_ITERATIONS, max_iterations=2))
    d = trace.to_dict()
    assert d["chosen_indices"] == list(trace.chosen_indices)
    assert d["residual_norms"] == list(trace.residual_norms)
    assert d["iterations_run"] == 2
    assert d["status"] == STATUS_CONVERGED
    assert d["final_estimate"] == trace.final_estimate.values.tolist()


def _reference_pursuit(problem, stop):
    """The pursuit replayed with one SVD projection per pick.

    Returns (chosen, residual norms, estimate, status), or raises what
    ``project_least_squares`` raises on the first rank-deficient prefix.
    """
    A, y = problem.matrix, problem.observation
    capacity = min(A.layout.num_blocks, A.rows // A.layout.block_width)
    budget = capacity if stop.max_iterations is None else min(stop.max_iterations, capacity)
    chosen, residual = [], y.copy()
    norms = [float(np.linalg.norm(y))]
    estimate = BlockSignal.zero(A.layout)
    while True:
        if stop.mode != FIXED_ITERATIONS and norms[-1] <= stop.epsilon:
            return chosen, norms, estimate, STATUS_CONVERGED
        if stop.mode != RESIDUAL_THRESHOLD and len(chosen) == stop.max_iterations:
            return chosen, norms, estimate, STATUS_CONVERGED
        if len(chosen) == budget:
            return chosen, norms, estimate, STATUS_BUDGET_EXCEEDED
        chosen.append(select_block(A, residual, exclude=chosen))
        estimate, residual = project_least_squares(A, chosen, y)
        norms.append(float(np.linalg.norm(residual)))


def _differential_cases():
    """Seeded (problem, stop) pairs over widths, stopping modes and noise."""
    rng = np.random.default_rng(12)
    for case in range(90):
        d = (1, 2, 4)[case % 3]
        M = int(rng.integers(3, 12))
        m = d * int(rng.integers(2, M + 3))  # some runs fill all m rows
        K = int(rng.integers(1, min(M, m // d) + 1))
        support = tuple(int(i) for i in rng.choice(M, size=K, replace=False) + 1)
        noise = (0.0, 0.3)[(case // 3) % 2]
        problem, _ = _random_problem(rng, m=m, M=M, d=d, support=support, noise=noise)
        # no pick is made from a residual that is only round-off
        stop = (
            StoppingRule(RESIDUAL_THRESHOLD, epsilon=1e-10 if noise == 0.0 else 0.0),
            StoppingRule(FIXED_ITERATIONS, max_iterations=K),
            StoppingRule(BOTH, epsilon=noise + 1e-10, max_iterations=K + 1),
        )[(case // 6) % 3]
        yield problem, stop
    # nearly collinear columns (condition number ~3e3): one Gram-Schmidt pass
    # loses enough orthogonality to move the estimate by ~1e-9
    rng = np.random.default_rng(16)
    entries = rng.normal(size=(30, 1)) + 3e-3 * rng.normal(size=(30, 16))
    A = BlockedMatrix(BlockLayout(8, 2), entries)
    yield (
        SensingProblem(matrix=A, observation=rng.normal(size=30)),
        StoppingRule(FIXED_ITERATIONS, max_iterations=6),
    )


def test_pursuit_matches_the_svd_reference_on_every_prefix():
    for problem, stop in _differential_cases():
        trace = run_bomp(problem, stop)
        chosen, norms, estimate, status = _reference_pursuit(problem, stop)

        assert list(trace.chosen_indices) == chosen
        assert trace.status == status
        y_norm = np.linalg.norm(problem.observation)
        np.testing.assert_allclose(trace.residual_norms, norms, rtol=0, atol=1e-12 * y_norm)
        np.testing.assert_allclose(
            trace.final_estimate.values, estimate.values, rtol=0, atol=1e-10
        )


def test_mid_run_rank_deficiency_raises_the_reference_error():
    # block 3 repeats the first column of block 1 next to a fresh column, so
    # it scores high but spans nothing new once block 1 is in
    rng = np.random.default_rng(15)
    layout = BlockLayout(4, 2)
    entries = rng.normal(size=(10, 8))
    entries[:, 4] = entries[:, 0]
    A = BlockedMatrix(layout, entries)
    y = entries @ np.array([3.0, 2.5, 0.0, 0.0, 2.0, 4.0, 0.0, 0.0]) + 0.1 * rng.normal(size=10)
    problem = SensingProblem(matrix=A, observation=y)
    stop = StoppingRule(FIXED_ITERATIONS, max_iterations=4)

    with pytest.raises(RankDeficientError) as reference:
        _reference_pursuit(problem, stop)
    # the second of four picks is the first failing prefix
    assert "on blocks [1, 3] is rank deficient" in str(reference.value)
    with pytest.raises(RankDeficientError) as got:
        run_bomp(problem, stop)
    assert str(got.value) == str(reference.value)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    m=st.integers(3, 12),
    exponent=st.floats(-12.0, -1.0),
    sign=st.sampled_from((-1.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_check_agrees_with_the_reference_off_the_tolerance_band(m, exponent, sign, seed):
    # two unit columns whose singular values have the ratio RANK_TOL * (1 + u)
    u = sign * 10.0**exponent
    theta = 2.0 * math.atan(RANK_TOL * (1.0 + u))
    rng = np.random.default_rng(seed)
    e, _ = np.linalg.qr(rng.normal(size=(m, 2)))
    entries = np.column_stack([e[:, 0], math.cos(theta) * e[:, 0] + math.sin(theta) * e[:, 1]])
    problem = SensingProblem(
        matrix=BlockedMatrix(BlockLayout(2, 1), entries), observation=rng.normal(size=m)
    )
    stop = StoppingRule(FIXED_ITERATIONS, max_iterations=2)

    try:
        reference = _reference_pursuit(problem, stop)[0]
    except RankDeficientError as exc:
        reference = exc
    try:
        got = run_bomp(problem, stop).chosen_indices
    except RankDeficientError as exc:
        got = exc
    if isinstance(got, Exception) and isinstance(reference, Exception):
        assert str(got) == str(reference)
    elif isinstance(got, Exception):
        # the fallback in _finish: the SVD of R refuses, no prefix fails the
        # reference, and the error names all picks
        assert abs(u) < 1e-3, u
        assert str(got).startswith("subdictionary on blocks [1, 2] is rank deficient")
    elif isinstance(reference, Exception):
        # the SVD of R accepts what the reference refuses
        assert abs(u) < 1e-3, u
    else:
        assert list(got) == reference


def test_pursuit_does_not_fall_back_to_the_svd_projection(monkeypatch):
    import bomp.solver

    def forbidden(*args, **kwargs):
        raise AssertionError("run_bomp called the one-shot SVD projection")

    monkeypatch.setattr(bomp.solver, "project_least_squares", forbidden)
    rng = np.random.default_rng(14)
    problem, _ = _random_problem(rng, m=40, M=10, d=2, support=(1, 5, 9), noise=0.2)
    trace = run_bomp(problem, StoppingRule(FIXED_ITERATIONS, max_iterations=5))
    assert trace.iterations_run == 5


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    M=st.integers(2, 8),
    extra_rows=st.integers(0, 6),
    size=st.integers(0, 6),
    mode=st.sampled_from((RESIDUAL_THRESHOLD, FIXED_ITERATIONS, BOTH)),
    noise=st.sampled_from((0.0, 0.3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_pursuit_equals_one_problem_at_a_time(d, M, extra_rows, size, mode, noise, seed):
    rng = np.random.default_rng(seed)
    m = d * int(rng.integers(1, M + 1)) + extra_rows
    K = int(rng.integers(1, min(M, m // d) + 1))
    problems = []
    for _ in range(size):
        # support sizes differ, so the problems stop at different steps
        k = int(rng.integers(1, K + 1))
        support = tuple(int(i) for i in rng.choice(M, size=k, replace=False) + 1)
        problems.append(_random_problem(rng, m=m, M=M, d=d, support=support, noise=noise)[0])
    budget = None if mode == RESIDUAL_THRESHOLD else K
    stop = StoppingRule(mode, epsilon=noise + 1e-10, max_iterations=budget)

    outcomes = run_bomp_batch(problems, stop)
    assert len(outcomes) == size
    for problem, outcome in zip(problems, outcomes):
        try:
            alone = run_bomp(problem, stop)
        except BompError as exc:
            assert type(outcome) is type(exc) and str(outcome) == str(exc)
            continue
        assert outcome.chosen_indices == alone.chosen_indices
        assert outcome.residual_norms == alone.residual_norms
        assert outcome.status == alone.status
        np.testing.assert_array_equal(outcome.final_estimate.values, alone.final_estimate.values)

        A, y = problem.matrix, problem.observation
        norms = outcome.residual_norms
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(norms, norms[1:]))
        r = y - A.entries @ outcome.final_estimate.values
        for i in outcome.chosen_indices:
            assert np.max(np.abs(A.block(i).T @ r)) <= 1e-9 * max(1.0, np.linalg.norm(y))


def test_overflowing_scores_raise_instead_of_picking_by_index():
    rng = np.random.default_rng(0)
    A = BlockedMatrix(BlockLayout(4, 2), rng.normal(size=(6, 8)))
    y = A.block(2) @ np.array([1e160, 2e160])
    stop = StoppingRule(FIXED_ITERATIONS, max_iterations=1)
    with pytest.raises(BompError, match="overflow"):
        block_correlation_scores(A, y)
    with pytest.raises(BompError, match="overflow"):
        run_bomp(SensingProblem(matrix=A, observation=y), stop)
    # with fewer rows than a block is wide nothing is picked, but the
    # residual norm of a huge observation still overflows
    narrow = BlockedMatrix(BlockLayout(1, 2), np.ones((1, 2)))
    with pytest.raises(BompError, match="overflow"):
        run_bomp(SensingProblem(matrix=narrow, observation=[1e200]), stop)
    # a finite residual against huge columns: only the scores overflow, and
    # only the trial they belong to fails
    fine = SensingProblem(matrix=A, observation=A.block(2) @ np.array([1.0, 2.0]))
    huge = SensingProblem(matrix=BlockedMatrix(A.layout, 1e300 * A.entries), observation=y / 1e160)
    outcomes = run_bomp_batch([fine, huge, fine], stop)
    assert isinstance(outcomes[1], BompError) and "overflow" in str(outcomes[1])
    alone = run_bomp(fine, stop).chosen_indices
    assert outcomes[0].chosen_indices == outcomes[2].chosen_indices == alone
    # overflowed trials keep stepping with live ones that stop at their own
    # steps, several picks later, and leave them as they run alone; the
    # residual of the vast one turns to inf and NaN on the way
    wide = BlockedMatrix(BlockLayout(8, 2), rng.normal(size=(16, 16)))
    short = SensingProblem(matrix=wide, observation=wide.block(3) @ np.array([1.0, -2.0]))
    long = SensingProblem(matrix=wide, observation=wide.entries @ rng.normal(size=16))
    huge = SensingProblem(
        matrix=BlockedMatrix(wide.layout, 1e300 * wide.entries), observation=long.observation
    )
    vast = SensingProblem(matrix=wide, observation=np.full(16, 1e308))
    for stop in (
        StoppingRule(FIXED_ITERATIONS, max_iterations=4),
        StoppingRule(RESIDUAL_THRESHOLD, epsilon=1e-9),
    ):
        outcomes = run_bomp_batch([short, huge, long, vast], stop)
        for outcome in outcomes[1::2]:
            assert isinstance(outcome, BompError) and "overflow" in str(outcome)
        for problem, outcome in zip((short, long), outcomes[::2]):
            alone = run_bomp(problem, stop)
            assert outcome.chosen_indices == alone.chosen_indices
            assert outcome.residual_norms == alone.residual_norms
            assert outcome.status == alone.status
            np.testing.assert_array_equal(outcome.final_estimate.values, alone.final_estimate.values)
        assert outcomes[2].iterations_run >= 4
