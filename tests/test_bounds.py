import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bomp.adversarial import AdversarialParams
from bomp.bounds import (
    REASON_NORM,
    REASON_RIP,
    BoundInputs,
    check_sufficient,
    delta_limit,
    figure1_curves,
    necessary_bound,
    open_delta_grid,
    verify_inequality_20,
    z1_sufficient_bound,
    z2_prior_bound,
)
from bomp.errors import InfeasibleError

# frozen from a 50-digit arbitrary-precision evaluation of the closed forms
ORACLE = {
    (1, 0.5, 1.0): (5.5957541127251504, 6.8284271247461901, 3.1547005383792515),
    (10, 0.04, 1.0): (2.1964108105660695, 2.3059140708758469, 1.1467756727254258),
    (3, 0.25, 0.7): (2.3735379611153289, 2.8, 1.3507326891332941),
    (2, 0.3, 2.0): (7.1373831223484666, 8.3266588617570586, 3.9582180547853718),
}


def test_bounds_match_high_precision_oracle():
    for (K, delta, eps), (z1, z2, nec) in ORACLE.items():
        b = BoundInputs(K=K, delta=delta, epsilon=eps)
        assert z1_sufficient_bound(b) == pytest.approx(z1, rel=1e-15)
        assert z2_prior_bound(b) == pytest.approx(z2, rel=1e-15)
        assert necessary_bound(b) == pytest.approx(nec, rel=1e-15)


def test_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(K=0, delta=0.1)
    with pytest.raises(ValueError):
        BoundInputs(K=1, delta=0.0)
    with pytest.raises(ValueError):
        BoundInputs(K=1, delta=1.0)
    for epsilon in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            BoundInputs(K=1, delta=0.1, epsilon=epsilon)
    # every bound takes sqrt(K+1), so a K that no double holds is refused by name
    message = "^K must be below the largest double, got a 1329-bit integer$"
    for build in (
        lambda: delta_limit(10**400),
        lambda: BoundInputs(K=10**400, delta=0.1),
        lambda: check_sufficient(10**400, 0.1, 1.0, 1.0),
        lambda: AdversarialParams(d=2, K=10**400, delta=0.1, epsilon=1.0, t0=1.0),
    ):
        with pytest.raises(ValueError, match=message):
            build()
    assert BoundInputs(K=int(sys.float_info.max) - 1, delta=1e-160).feasible


def test_feasibility_edge():
    b = BoundInputs(K=3, delta=0.4)
    assert delta_limit(b.K) == pytest.approx(0.5)
    assert b.feasible
    edge = BoundInputs(K=3, delta=0.5)
    assert not edge.feasible  # the region is open
    for fn in (z1_sufficient_bound, z2_prior_bound, necessary_bound):
        with pytest.raises(InfeasibleError):
            fn(edge)


def test_ordering_of_the_three_bounds():
    # necessary < z1 < z2 across the whole feasible region
    for K in (1, 2, 5, 10, 40):
        limit = 1.0 / math.sqrt(K + 1)
        for frac in np.linspace(0.05, 0.95, 19):
            b = BoundInputs(K=K, delta=float(frac * limit), epsilon=1.0)
            nec = necessary_bound(b)
            z1 = z1_sufficient_bound(b)
            z2 = z2_prior_bound(b)
            assert nec < z1 < z2, (K, frac)


def test_bounds_are_linear_in_epsilon():
    base = BoundInputs(K=4, delta=0.2, epsilon=1.0)
    scaled = BoundInputs(K=4, delta=0.2, epsilon=3.5)
    for fn in (z1_sufficient_bound, z2_prior_bound, necessary_bound):
        assert fn(scaled) == pytest.approx(3.5 * fn(base), rel=1e-15)


def test_bounds_tend_to_two_epsilon_at_zero_delta():
    b = BoundInputs(K=10, delta=1e-9, epsilon=1.0)
    assert z1_sufficient_bound(b) == pytest.approx(2.0, abs=1e-7)
    assert z2_prior_bound(b) == pytest.approx(2.0, abs=1e-7)


def test_check_sufficient_verdicts():
    infeasible = check_sufficient(K=3, delta=0.6, epsilon=1.0, min_block_norm=100.0)
    assert not infeasible.guaranteed
    assert infeasible.reasons == (REASON_RIP,)
    assert infeasible.z1 is None

    z1 = z1_sufficient_bound(BoundInputs(K=3, delta=0.2, epsilon=1.0))
    too_small = check_sufficient(K=3, delta=0.2, epsilon=1.0, min_block_norm=z1)
    assert not too_small.guaranteed  # threshold is strict
    assert too_small.reasons == (REASON_NORM,)
    assert too_small.z1 == pytest.approx(z1)

    fine = check_sufficient(K=3, delta=0.2, epsilon=1.0, min_block_norm=z1 * 1.001)
    assert fine.guaranteed
    assert fine.reasons == ()
    assert fine.to_dict()["guaranteed"] is True


def test_open_delta_grid_stays_strictly_inside():
    grid = open_delta_grid(0.5, 7)
    assert len(grid) == 7
    assert grid[0] > 0.0
    assert grid[-1] < 0.5
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ValueError):
        open_delta_grid(0.5, 1)
    # a count past any array is refused by name, not by NumPy
    for points in (2**56 + 1, 10**400):
        with pytest.raises(ValueError, match=r"^points must be at most 72057594037927936"):
            open_delta_grid(0.5, points)


def test_figure1_curves_shape_and_content():
    table = figure1_curves([10, 20], grid_points=50)
    assert table.shape == (100, 5)
    assert set(table[:, 0]) == {10.0, 20.0}
    # diff column is exactly z1 - z2, negative everywhere
    np.testing.assert_allclose(table[:, 4], table[:, 2] - table[:, 3], rtol=1e-15)
    assert np.all(table[:, 4] < 0.0)
    # deltas stay strictly inside each curve's feasible interval
    for K in (10, 20):
        rows = table[table[:, 0] == K]
        assert rows[:, 1].max() < 1.0 / math.sqrt(K + 1)
        assert rows[:, 1].min() > 0.0


def test_inequality_20_holds_on_the_open_interval():
    assert verify_inequality_20()
    assert verify_inequality_20(grid_points=100)


BOUNDS = (necessary_bound, z1_sufficient_bound, z2_prior_bound)
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def feasible_inputs(draw, epsilons, margin=0.0):
    """``BoundInputs`` with delta inside (0, 1/sqrt(K+1)), keeping a relative
    ``margin`` of that edge clear at both ends."""
    K = draw(st.integers(1, 1000))
    limit = 1.0 / math.sqrt(K + 1)
    delta = draw(
        st.floats(margin * limit, (1.0 - margin) * limit, exclude_min=True, exclude_max=True)
    )
    return BoundInputs(K=K, delta=delta, epsilon=draw(epsilons))


# below a delta of about 1e-6 of the edge, z2 - z1 drops under the
# resolution of doubles near 2*epsilon and the strict order cannot show
MODERATE = feasible_inputs(st.floats(1e-100, 1e100), margin=1e-6)
# BoundInputs refuses a subnormal epsilon, so ANY starts at the smallest normal
ANY = feasible_inputs(st.floats(sys.float_info.min, sys.float_info.max))


@PROPERTY
@given(MODERATE)
def test_property_bounds_are_ordered(b):
    assert necessary_bound(b) <= z1_sufficient_bound(b) < z2_prior_bound(b)


@PROPERTY
@given(MODERATE)
def test_property_bounds_scale_linearly_in_epsilon(b):
    unit = BoundInputs(K=b.K, delta=b.delta, epsilon=1.0)
    for bound in BOUNDS:
        assert bound(b) == pytest.approx(b.epsilon * bound(unit), rel=1e-12)


@PROPERTY
@given(ANY)
def test_property_bounds_are_finite_or_refused(b):
    for bound in BOUNDS:
        try:
            value = bound(b)
        except ValueError:
            continue
        assert math.isfinite(value) and value >= 0.0
