import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bomp.core
import bomp.proofs
from bomp.core import (
    BlockedMatrix,
    BlockLayout,
    BlockSignal,
    SensingProblem,
    block_support,
    extract_blocks,
    gaussian_instance,
)
from bomp.errors import (
    BudgetExceededError,
    DegenerateProbeError,
    InfeasibleError,
    RankDeficientError,
)
from bomp.proofs import (
    IDENTITY_REL_TOL,
    T_VALUES,
    ProofInstance,
    eta_direct,
    eta_via_identity,
    lemma1_check,
    random_proof_instance,
    run_proof_verification,
)
from bomp.solver import block_correlation_scores, project_least_squares


def _identity_instance(values, partial, probe):
    layout = BlockLayout(3, 1)
    A = BlockedMatrix(layout, np.eye(3))
    truth = BlockSignal(layout, values)
    y = np.array([1.0, 0.5, 0.0])
    problem = SensingProblem(matrix=A, observation=y)
    return ProofInstance(
        problem=problem, truth=truth, partial_support=partial, probe_index=probe
    )


def test_instance_validation():
    layout = BlockLayout(3, 1)
    A = BlockedMatrix(layout, np.eye(3))
    truth = BlockSignal(layout, [1.0, 0.5, 0.0])
    problem = SensingProblem(matrix=A, observation=np.ones(3))
    # partial support must be a strict subset of the truth's support
    with pytest.raises(ValueError):
        ProofInstance(problem, truth, partial_support=(1, 2), probe_index=3)
    with pytest.raises(ValueError):
        ProofInstance(problem, truth, partial_support=(3,), probe_index=3)
    # probe must lie outside the support and inside the layout
    with pytest.raises(ValueError):
        ProofInstance(problem, truth, partial_support=(), probe_index=2)
    with pytest.raises(ValueError):
        ProofInstance(problem, truth, partial_support=(), probe_index=4)
    # t is a parameter of the identity, not of the instance
    inst = ProofInstance(problem, truth, partial_support=(), probe_index=3)
    with pytest.raises(ValueError):
        eta_via_identity(inst, 0.0)


def test_instance_xi_reproduces_projection():
    rng = np.random.default_rng(30)
    problem, truth = gaussian_instance(rng, BlockLayout(5, 2), 30, 2, epsilon=0.2)
    support = block_support(truth)
    probe = min(set(range(1, 6)) - set(support))
    xi = ProofInstance(problem, truth, partial_support=(), probe_index=probe).xi
    assert block_support(xi) == support
    residual = problem.observation - problem.matrix.entries @ xi.values
    for i in support:
        assert np.linalg.norm(problem.matrix.block(i).T @ residual) < 1e-10

    # the instance keeps the solver's fit and reads the pursuit's scorer, bit for bit
    rng = np.random.default_rng(39)
    for _ in range(10):
        inst = random_proof_instance(rng)
        A, y = inst.problem.matrix, inst.problem.observation
        xi, residual = project_least_squares(A, inst.support, y)
        np.testing.assert_array_equal(inst.xi.values, xi.values)
        np.testing.assert_array_equal(inst.noise_off_support, residual)
        scores = block_correlation_scores(A, inst.partial_residual)
        assert inst.probe_score == scores[inst.probe_index - 1]


def test_identity_refuses_what_the_solver_refuses():
    wide = BlockedMatrix(BlockLayout(4, 1), np.array([[1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 1.0, 1.0]]))
    repeated = BlockedMatrix(BlockLayout(3, 1), np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    for A, support, probe in ((wide, (1, 2, 3), 4), (repeated, (1, 2), 3)):
        values = np.zeros(A.layout.num_blocks)
        values[np.array(support) - 1] = 1.0
        problem = SensingProblem(matrix=A, observation=np.ones(2))
        truth = BlockSignal(A.layout, values)
        with pytest.raises(RankDeficientError) as reference:
            project_least_squares(A, support, np.ones(2))
        for partial in ((), support[:1]):
            inst = ProofInstance(problem, truth, partial_support=partial, probe_index=probe)
            with pytest.raises(RankDeficientError, match=re.escape(str(reference.value))):
                eta_via_identity(inst, 1.0)


def test_identity_agrees_with_direct_margin():
    rng = np.random.default_rng(31)
    for _ in range(25):
        inst = random_proof_instance(rng, num_blocks=6, block_width=2, sparsity=3)
        direct = eta_direct(inst)
        for t in (0.1, 1.0, 10.0):
            via = eta_via_identity(inst, t)
            assert abs(direct - via) <= 1e-9 * max(1.0, abs(direct))


def test_identity_value_does_not_depend_on_t():
    rng = np.random.default_rng(32)
    inst = random_proof_instance(rng, num_blocks=5, block_width=1, sparsity=2)
    values = [eta_via_identity(inst, t) for t in (0.01, 0.1, 1.0, 10.0, 100.0)]
    np.testing.assert_allclose(values, values[0], rtol=1e-9, atol=1e-12)


def test_identity_refuses_a_t_whose_squares_overflow():
    inst = random_proof_instance(np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^t 1e\+200 overflows"):
            eta_via_identity(inst, 1e200)
        assert math.isfinite(eta_via_identity(inst, 1.0))


def test_identity_refuses_a_t_whose_squares_cancel():
    # far from t = 1 the two squares round to the same value, which would
    # leave minus the noise term (-3.7e-4 here) instead of the margin 1.2766
    inst = random_proof_instance(np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, name in ((1e150, r"1e\+150"), (5e-324, r"4\.94066e-324")):
            with pytest.raises(ValueError, match=rf"^t {name} cancels"):
                eta_via_identity(inst, t)
        assert eta_via_identity(inst, 1.0) == pytest.approx(eta_direct(inst), rel=1e-12)
        # at epsilon 1e10 the routes differ by 1.5e-7 relative, past IDENTITY_REL_TOL
        noisy = random_proof_instance(np.random.default_rng(0), epsilon=1e10)
        for t in T_VALUES:
            with pytest.raises(ValueError, match=rf"^t {t:g} cancels"):
                eta_via_identity(noisy, t)


def test_vanishing_alpha_raises_zero_division():
    # y lies in the span of the already-chosen block, so the projection
    # coefficients on the remaining support blocks are exactly zero
    layout = BlockLayout(3, 1)
    A = BlockedMatrix(layout, np.eye(3))
    truth = BlockSignal(layout, [1.0, 0.5, 0.0])
    problem = SensingProblem(matrix=A, observation=np.array([1.0, 0.0, 0.0]))
    inst = ProofInstance(problem, truth, partial_support=(1,), probe_index=3)
    with pytest.raises(ZeroDivisionError):
        eta_direct(inst)
    with pytest.raises(ZeroDivisionError):
        eta_via_identity(inst)


def test_orthogonal_probe_raises_degenerate_error():
    # observation has no component in the probe block's span
    inst = _identity_instance([1.0, 0.5, 0.0], partial=(), probe=3)
    with pytest.raises(DegenerateProbeError):
        eta_via_identity(inst)
    # the direct route needs no probe direction, so it still evaluates
    assert np.isfinite(eta_direct(inst))


def test_lemma_noiseless_is_tight():
    rng = np.random.default_rng(33)
    problem, truth = gaussian_instance(rng, BlockLayout(5, 2), 40, 2, epsilon=0.0)
    probe = next(i for i in range(1, 6) if i not in block_support(truth))
    report = lemma1_check(ProofInstance(problem, truth, (), probe))
    assert report.holds
    assert report.theta_norm == pytest.approx(0.0, abs=1e-10)
    # with no noise the projection reproduces the truth exactly
    assert report.lhs == pytest.approx(report.rhs, abs=1e-9)


def test_lemma_on_random_noisy_instances():
    rng = np.random.default_rng(34)
    for _ in range(25):
        # the generator rejects draws whose order-(K+1) constant reaches 1,
        # which is exactly the lemma's own applicability condition
        inst = random_proof_instance(
            rng, num_blocks=6, block_width=2, sparsity=3,
            epsilon=float(rng.uniform(0.05, 0.4)),
        )
        report = lemma1_check(inst)
        assert report.holds
        assert report.theta_holds
        assert report.theta_bound > 0.0


def _svd_basis(A, support):
    """Orthonormal basis of the supported blocks' span, from their own SVD."""
    return np.linalg.svd(extract_blocks(A, support), full_matrices=False)[0]


def _reference_identity(inst, t):
    """The identity as first written: both bases solved by their own SVDs,
    neither library route's factorization, the stacked dictionary projected
    and the zero-padded u and v formed for every t."""
    A = inst.problem.matrix
    j = inst.probe_index
    c = 1.0 / inst.alpha_21
    alpha = np.concatenate([inst.xi.block(i) for i in inst.remaining])
    chosen = _svd_basis(A, inst.partial_support)
    r = inst.problem.observation - chosen @ (chosen.T @ inst.problem.observation)
    h = A.block(j).T @ r
    h = h / np.linalg.norm(h)
    stacked = np.hstack([extract_blocks(A, inst.remaining), A.block(j)])
    B = stacked - chosen @ (chosen.T @ stacked)
    u = np.concatenate([alpha, np.zeros(A.layout.block_width)])
    v = np.concatenate([np.zeros(alpha.size), h])
    plus = B @ ((t + c) * u - v)
    minus = B @ ((t - c) * u + v)
    support = _svd_basis(A, inst.support)
    probe = A.block(j) @ h
    noise_term = np.dot(inst.noise, probe - support @ (support.T @ probe))
    return float((plus @ plus - minus @ minus) / (4.0 * t) - noise_term)


# the two evaluations round differently; over t in [1e-2, 1e2] on these
# shapes the rounding bound eps (p2 + m2)/(4t) stays below 1.3e-13 of the
# value, so 1e-12 relative leaves room for both
REFERENCE_REL_TOL = 1e-12


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.integers(4, 8).flatmap(
        lambda M: st.tuples(st.just(M), st.integers(1, 3), st.integers(1, min(3, M - 1)))
    ),
    t=st.floats(1e-2, 1e2),
)
def test_cached_identity_matches_the_per_t_reference(seed, shape, t):
    inst = random_proof_instance(np.random.default_rng(seed), *shape)
    want = _reference_identity(inst, t)
    assert abs(eta_via_identity(inst, t) - want) <= REFERENCE_REL_TOL * max(1.0, abs(want))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.integers(4, 8).flatmap(
        lambda M: st.tuples(st.just(M), st.integers(1, 3), st.integers(1, min(3, M - 1)))
    ),
    epsilon=st.floats(0.0, 0.5),
)
def test_identity_and_lemma_hold_on_random_instances(seed, shape, epsilon):
    num_blocks, block_width, sparsity = shape
    inst = random_proof_instance(
        np.random.default_rng(seed), num_blocks, block_width, sparsity, epsilon
    )
    direct = eta_direct(inst)
    for t in T_VALUES:
        assert abs(direct - eta_via_identity(inst, t)) <= IDENTITY_REL_TOL * max(1.0, abs(direct))
    report = lemma1_check(inst)
    assert report.holds and report.theta_holds
    noise = inst.problem.observation - inst.problem.matrix.entries @ inst.truth.values
    assert report.theta_bound == np.linalg.norm(noise) / math.sqrt(1.0 - inst.rip_delta)


def test_overflowing_epsilon_is_refused_by_name():
    # epsilon is refused above 2^500, before anything is drawn; at the bound
    # every square the direct route and Lemma 1 take stays finite
    bound = bomp.proofs._MAX_EPSILON
    assert bound == 2.0**500
    inst = random_proof_instance(np.random.default_rng(0), epsilon=bound)
    assert math.isfinite(eta_direct(inst))
    report = lemma1_check(inst)
    assert math.isfinite(report.theta_norm) and math.isfinite(report.theta_bound)
    for seed, epsilon in ((0, np.nextafter(bound, math.inf)), (0, 1.7e308), (0, 1e155), (9, 1e155)):
        message = f"^{re.escape(f'epsilon {epsilon:g} overflows double precision')}$"
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            random_proof_instance(rng, epsilon=epsilon)
        assert rng.bit_generator.state == state


def test_lemma_refuses_an_overflowed_quantity():
    # the noise norm overflows, so the margin would be inf and pass anything
    layout = BlockLayout(3, 1)
    problem = SensingProblem(
        matrix=BlockedMatrix(layout, np.eye(3)), observation=np.array([1e200, 1e200, 0.0])
    )
    inst = ProofInstance(problem, BlockSignal(layout, [1.0, 0.5, 0.0]), (), 3)
    with pytest.raises(ValueError, match=r"^Lemma 1 \w+ must be finite, got -?inf$"):
        lemma1_check(inst)


def test_lemma_requires_room_and_isometry():
    layout = BlockLayout(2, 1)
    A = BlockedMatrix(layout, np.eye(2))
    truth = BlockSignal(layout, [1.0, 1.0])
    problem = SensingProblem(matrix=A, observation=np.ones(2))
    for probe in (1, 2):  # no block outside the support to probe with
        with pytest.raises(ValueError):
            ProofInstance(problem, truth, (), probe)

    # zero third column drives the order-3 constant to 1
    layout3 = BlockLayout(3, 1)
    A3 = BlockedMatrix(
        layout3, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    )
    truth3 = BlockSignal(layout3, [1.0, 1.0, 0.0])
    problem3 = SensingProblem(matrix=A3, observation=np.ones(3))
    with pytest.raises(InfeasibleError):
        lemma1_check(ProofInstance(problem3, truth3, (), 3))


def test_generator_shapes_and_rejection():
    rng = np.random.default_rng(35)
    inst = random_proof_instance(rng, num_blocks=7, block_width=3, sparsity=2)
    assert inst.problem.matrix.layout == BlockLayout(7, 3)
    assert len(inst.support) == 2
    assert inst.probe_index not in inst.support
    assert set(inst.partial_support) < set(inst.support)
    with pytest.raises(ValueError):
        random_proof_instance(rng, num_blocks=3, block_width=1, sparsity=3)
    # the exact constant's budget refusal is not mistaken for an overflow
    with pytest.raises(BudgetExceededError):
        random_proof_instance(rng, num_blocks=60, block_width=3, sparsity=3)


def test_generator_is_deterministic_given_state():
    a = random_proof_instance(np.random.default_rng(36), num_blocks=5, block_width=2, sparsity=2)
    b = random_proof_instance(np.random.default_rng(36), num_blocks=5, block_width=2, sparsity=2)
    np.testing.assert_array_equal(a.problem.matrix.entries, b.problem.matrix.entries)
    np.testing.assert_array_equal(a.truth.values, b.truth.values)
    assert a.partial_support == b.partial_support
    assert a.probe_index == b.probe_index


def test_verification_batch_summary():
    summary = run_proof_verification(trials=40, seed=5)
    assert summary.trials == 40
    assert summary.identity_passes == 40
    assert summary.lemma_passes == 40
    assert summary.theta_passes == 40
    assert summary.worst_identity_residual < 1e-9
    d = summary.to_dict()
    assert d["identity_failures"] == 0
    assert d["t_values"] == [0.1, 1.0, 10.0]
    with pytest.raises(ValueError):
        run_proof_verification(trials=0, seed=1)


def _count_calls(monkeypatch, name="project_least_squares", owner=bomp.proofs, argument=1):
    """Record the argument at ``argument`` of every call to ``owner.name``: by
    default the support of a projection or the support a layout method checks."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args[argument])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_sweep_projects_at_most_twice_per_trial(monkeypatch):
    calls = _count_calls(monkeypatch)
    run_proof_verification(20, 3)
    assert len(calls) <= 2 * 20


def test_identity_factors_the_support_once_per_instance(monkeypatch):
    inst = random_proof_instance(np.random.default_rng(38))
    calls = _count_calls(monkeypatch, "qr", np.linalg, argument=0)
    eta_via_identity(inst, 1.0)
    # one QR of the support's columns serves both projections
    assert [sub.shape[1] for sub in calls] == [len(inst.support) * inst.truth.layout.block_width]
    for t in (0.01, 0.1, 10.0, 100.0):
        eta_via_identity(inst, t)
    assert len(calls) == 1


def test_sweep_factors_at_most_one_support_per_trial(monkeypatch):
    calls = _count_calls(monkeypatch, "qr", np.linalg, argument=0)
    run_proof_verification(20, 3)
    assert len(calls) <= 20


def test_instance_derives_each_projection_once(monkeypatch):
    drawn = random_proof_instance(np.random.default_rng(37))
    # the same draw afresh, so that every quantity is derived under the counters
    inst = ProofInstance(drawn.problem, drawn.truth, drawn.partial_support, drawn.probe_index)
    calls = _count_calls(monkeypatch)
    rip_calls = _count_calls(monkeypatch, "exact_block_rip")
    checks = _count_calls(monkeypatch, "check_support", BlockLayout)
    direct = eta_direct(inst)
    assert eta_direct(inst) == direct
    for t in T_VALUES:
        eta_via_identity(inst, t)
    # the perturbation bound reads the same fit and constant
    report = lemma1_check(inst)
    assert report.holds and report.theta_holds
    # one fit per support, however many quantities read it
    assert sorted(calls) == sorted([inst.support, inst.partial_support])
    assert len(rip_calls) == 1
    # each fit checks its support once; the identity route checks none
    assert len(checks) == 2

    checks.clear()
    project_least_squares(inst.problem.matrix, inst.support, inst.problem.observation)
    assert checks == [inst.support]


def test_instance_takes_the_truths_block_norms_once(monkeypatch):
    drawn = random_proof_instance(np.random.default_rng(37))
    # block_support reads the norms through bomp.core, the lemma through bomp.proofs
    calls = [_count_calls(monkeypatch, "block_norms", owner, argument=0)
             for owner in (bomp.core, bomp.proofs)]
    inst = ProofInstance(drawn.problem, drawn.truth, drawn.partial_support, drawn.probe_index)
    report = lemma1_check(inst)
    assert report.holds
    # the support and the lemma read one set of norms
    assert [x is inst.truth for x in calls[0] + calls[1]].count(True) == 1
    monkeypatch.undo()
    assert inst.support == block_support(inst.truth)
