import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bomp.adversarial import (
    AdversarialParams,
    build_adversarial_instance,
    build_matrix,
    closed_form_spectrum,
    demonstrate_failure,
)
from bomp.bounds import BoundInputs, delta_limit, necessary_bound
from bomp.core import block_support
from bomp.errors import InfeasibleError
from bomp.rip import exact_block_rip
from bomp.solver import FIXED_ITERATIONS, StoppingRule, run_bomp


def test_params_validation():
    with pytest.raises(ValueError):
        AdversarialParams(d=0, K=1, delta=0.1, epsilon=1.0)
    with pytest.raises(ValueError):
        AdversarialParams(d=1, K=0, delta=0.1, epsilon=1.0)
    with pytest.raises(ValueError):
        AdversarialParams(d=1, K=1, delta=0.1, epsilon=0.0)
    with pytest.raises(ValueError):
        AdversarialParams(d=1, K=1, delta=1.0, epsilon=1.0)
    with pytest.raises(ValueError):
        AdversarialParams(d=1, K=1, delta=0.1, epsilon=1.0, t0=-1.0)
    # the square d(K+1) dictionary must fit one array: its side is refused by name
    assert AdversarialParams(d=2**28 // 4, K=3, delta=0.1, epsilon=1.0, t0=1.0).d == 2**26
    for d, K in ((2**26 + 1, 3), (10**400, 2), (1, 2**28)):
        with pytest.raises(ValueError, match=r"^the dictionary side d\*\(K\+1\) must be at most"):
            AdversarialParams(d=d, K=K, delta=1e-5, epsilon=1.0, t0=1.0)


def test_default_t0_needs_the_failure_regime():
    # 0.5 = 1/sqrt(K+1) for K=3: no positive failure threshold there
    with pytest.raises(InfeasibleError):
        AdversarialParams(d=1, K=3, delta=0.5, epsilon=1.0)
    # with an explicit magnitude the construction exists for any delta in (0,1)
    p = AdversarialParams(d=1, K=3, delta=0.5, epsilon=1.0, t0=1.0)
    assert not BoundInputs(K=p.K, delta=p.delta, epsilon=p.epsilon).feasible
    p = AdversarialParams(d=1, K=3, delta=0.4, epsilon=1.0)
    assert BoundInputs(K=p.K, delta=p.delta, epsilon=p.epsilon).feasible


def test_default_t0_sits_below_the_failure_threshold():
    p = AdversarialParams(d=2, K=4, delta=0.15, epsilon=0.5)
    threshold = necessary_bound(BoundInputs(K=4, delta=0.15, epsilon=0.5))
    assert p.t0 == 0.99 * threshold
    explicit = AdversarialParams(d=2, K=4, delta=0.15, epsilon=0.5, t0=0.3)
    assert explicit.t0 == 0.3


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.integers(1, 19),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, exclude_min=True, allow_infinity=False),
)
@example(K=2, frac=0.5, epsilon=5e-324)
def test_property_default_t0_lies_strictly_inside_the_failure_region(K, frac, epsilon):
    # every positive finite epsilon, subnormals included, at a feasible delta
    delta = frac * delta_limit(K)
    assume(delta < delta_limit(K))
    try:
        p = AdversarialParams(d=1, K=K, delta=delta, epsilon=epsilon)
    except ValueError:
        return
    assert 0.0 < p.t0 < necessary_bound(BoundInputs(K=K, delta=p.delta, epsilon=epsilon))


def test_matrix_structure():
    p = AdversarialParams(d=2, K=3, delta=0.2, epsilon=1.0)
    A = build_matrix(p)
    n = 2 * 4
    assert A.entries.shape == (n, n)
    np.testing.assert_array_equal(A.entries[:2, :2], np.eye(2))
    np.testing.assert_array_equal(A.entries[2:, :2], p.s * np.tile(np.eye(2), (3, 1)))
    np.testing.assert_array_equal(A.entries[2:, 2:], p.a * np.eye(6))
    assert A.entries[:2, 2:].sum() == 0.0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 6),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(1e-300, 1e300),
    st.floats(1e-300, 1e300),
)
def test_instance_assembly_is_consistent(d, K, delta, epsilon, t0):
    p = AdversarialParams(d=d, K=K, delta=delta, epsilon=epsilon, t0=t0)
    problem, truth = build_adversarial_instance(p)
    # the paper's closed form, bit for bit: epsilon at coordinate 0, a*t0 at
    # the first coordinate of every supported block, zeros elsewhere
    closed_form = np.zeros(d * (K + 1))
    closed_form[0] = p.epsilon
    for i in p.true_support:
        closed_form[(i - 1) * d] = p.a * p.t0
    assert problem.observation.tobytes() == closed_form.tobytes()
    # t0 at the first coordinate of every supported block, zeros elsewhere
    signal = np.zeros(d * (K + 1))
    signal[[(i - 1) * d for i in p.true_support]] = p.t0
    assert truth.values.tobytes() == signal.tobytes()


def test_closed_form_spectrum_for_width_one():
    for K, delta in ((1, 0.3), (4, 0.2)):
        p = AdversarialParams(d=1, K=K, delta=delta, epsilon=1.0)
        A = build_matrix(p)
        numeric = np.sort(np.linalg.eigvalsh(A.entries.T @ A.entries))
        np.testing.assert_allclose(numeric, closed_form_spectrum(p), atol=1e-12)
    with pytest.raises(ValueError):
        closed_form_spectrum(AdversarialParams(d=2, K=1, delta=0.3, epsilon=1.0))


def test_exact_constant_of_the_family_equals_delta():
    for d, K, delta in ((1, 2, 0.3), (2, 3, 0.2), (3, 1, 0.5)):
        p = AdversarialParams(d=d, K=K, delta=delta, epsilon=1.0)
        report = exact_block_rip(build_matrix(p), K + 1)
        assert report.delta == pytest.approx(delta, abs=1e-10)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.floats(1e-6, 1.0 - 1e-6))
def test_property_exact_constant_of_the_family_equals_delta(d, K, delta):
    # an explicit t0 builds the family outside the failure regime as well
    p = AdversarialParams(d=d, K=K, delta=delta, epsilon=1.0, t0=1.0)
    assert abs(exact_block_rip(build_matrix(p), K + 1).delta - delta) <= 1e-12


def test_failure_scores_match_closed_forms():
    p = AdversarialParams(d=2, K=3, delta=0.2, epsilon=1.0)
    report = demonstrate_failure(p)
    assert report.failed
    assert report.first_selected_index == 1
    assert report.scores[0] == pytest.approx(report.score_off_support, abs=1e-12)
    for score in report.scores[1:]:
        assert score == pytest.approx(report.score_in_support, abs=1e-12)
    assert report.score_off_support == pytest.approx(
        p.epsilon + p.K * p.a * p.s * p.t0, rel=1e-15
    )
    assert report.score_in_support == pytest.approx(p.a**2 * p.t0, rel=1e-15)


def test_failure_flips_above_the_threshold():
    K, delta, eps = 3, 0.2, 1.0
    threshold = necessary_bound(BoundInputs(K=K, delta=delta, epsilon=eps))
    below = demonstrate_failure(
        AdversarialParams(d=1, K=K, delta=delta, epsilon=eps, t0=0.99 * threshold)
    )
    assert below.failed
    above = demonstrate_failure(
        AdversarialParams(d=1, K=K, delta=delta, epsilon=eps, t0=1.01 * threshold)
    )
    assert not above.failed
    assert above.first_selected_index in (2, 3, 4)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    d=st.integers(1, 4),
    K=st.integers(1, 6),
    # delta = frac / sqrt(K+1); past 1 - 1e-9 the score margins near the
    # edge shrink toward the round-off of necessary_bound itself
    frac=st.floats(1e-300, 1.0 - 1e-9),
    epsilon=st.floats(1e-3, 1e3),
    below=st.floats(0.001, 0.999),
    above=st.floats(1.001, 10.0),
)
def test_property_the_first_pick_fails_exactly_below_the_necessary_bound(
    d, K, frac, epsilon, below, above
):
    # t0 below the necessary bound: the decoy block 1 wins the first pick;
    # above it, a supported block does
    delta = frac * delta_limit(K)
    threshold = necessary_bound(BoundInputs(K=K, delta=delta, epsilon=epsilon))

    def first_pick(f):
        p = AdversarialParams(d=d, K=K, delta=delta, epsilon=epsilon, t0=f * threshold)
        return p, demonstrate_failure(p)

    assert first_pick(below)[1].failed
    p, report = first_pick(above)
    assert report.first_selected_index in p.true_support


def test_full_run_misses_the_support():
    p = AdversarialParams(d=2, K=3, delta=0.2, epsilon=1.0)
    problem, truth = build_adversarial_instance(p)
    trace = run_bomp(problem, StoppingRule(FIXED_ITERATIONS, max_iterations=p.K))
    assert trace.chosen_indices[0] == 1
    assert set(trace.chosen_indices) != set(block_support(truth))


def test_report_serialization():
    p = AdversarialParams(d=1, K=2, delta=0.2, epsilon=1.0)
    d = demonstrate_failure(p).to_dict()
    assert d["failed"] is True
    assert d["first_selected_index"] == 1
    assert len(d["scores"]) == 3
