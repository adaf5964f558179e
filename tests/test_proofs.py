import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bomp.proofs
from bomp.core import BlockedMatrix, BlockLayout, BlockSignal, SensingProblem, block_support
from bomp.errors import DegenerateProbeError, InfeasibleError, RankDeficientError
from bomp.proofs import (
    IDENTITY_REL_TOL,
    T_VALUES,
    ProofInstance,
    _range_basis,
    compute_xi,
    eta_direct,
    eta_via_identity,
    lemma1_check,
    random_proof_instance,
    random_recovery_problem,
    run_proof_verification,
)
from bomp.solver import project_least_squares


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


def test_compute_xi_reproduces_projection():
    rng = np.random.default_rng(30)
    problem, truth = random_recovery_problem(rng, 5, 2, 2, rows=30, epsilon=0.2)
    support = block_support(truth)
    xi = compute_xi(problem, support)
    residual = problem.observation - problem.matrix.entries @ xi.values
    for i in support:
        assert np.linalg.norm(problem.matrix.block(i).T @ residual) < 1e-10


def test_range_basis_refuses_what_the_solver_refuses():
    layout = BlockLayout(3, 1)
    wide = BlockedMatrix(layout, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    repeated = BlockedMatrix(layout, np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    for A, support in ((wide, (1, 2, 3)), (repeated, (1, 2))):
        with pytest.raises(RankDeficientError) as reference:
            project_least_squares(A, support, np.ones(2))
        with pytest.raises(RankDeficientError, match=re.escape(str(reference.value))):
            _range_basis(A, support)


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
    problem, truth = random_recovery_problem(rng, 5, 2, 2, rows=40, epsilon=0.0)
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
    with pytest.raises(ValueError, match=r"^epsilon 1\.7e\+308 overflows double precision$"):
        random_proof_instance(np.random.default_rng(0), epsilon=1.7e308)


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


def _count_calls(monkeypatch, name="project_least_squares"):
    calls = []
    original = getattr(bomp.proofs, name)

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(bomp.proofs, name, counting)
    return calls


def test_sweep_projects_at_most_twice_per_trial(monkeypatch):
    calls = _count_calls(monkeypatch)
    run_proof_verification(20, 3)
    assert len(calls) <= 2 * 20


def test_instance_derives_each_projection_once(monkeypatch):
    inst = random_proof_instance(np.random.default_rng(37))
    calls = _count_calls(monkeypatch)
    rip_calls = _count_calls(monkeypatch, "exact_block_rip")
    direct = eta_direct(inst)
    seen = len(calls)
    assert eta_direct(inst) == direct
    for t in (0.1, 1.0, 10.0):
        eta_via_identity(inst, t)
    assert len(calls) == seen
    # the perturbation bound reads the same xi and constant; theta is xi - x
    report = lemma1_check(inst)
    assert report.holds and report.theta_holds
    assert len(calls) == seen
    assert rip_calls == []
