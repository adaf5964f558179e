"""One rule for every numeric parameter: integers are not bools, floats or
strings and are at least 1 (0 for seeds and indices); reals are not bools or
strings, are finite, and are nonnegative or positive. Whatever is accepted
serialises as strict JSON."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bomp import (
    AdversarialParams,
    BlockedMatrix,
    BlockLayout,
    BoundInputs,
    ExperimentConfig,
    StoppingRule,
    exact_block_rip,
    random_proof_instance,
    rip_lower_bound_sampled,
    run_proof_verification,
)
from bomp.bounds import open_delta_grid
from bomp.errors import InfeasibleError
from bomp.io import json_fields
from bomp.solver import BOTH, FIXED_ITERATIONS, RESIDUAL_THRESHOLD

# every kind of value an integer parameter refuses, besides those below its minimum
INT_REFUSED = (True, 2.5, "3", math.nan, math.inf, -math.inf)
# likewise for a real parameter; 10**400 is an integer no double can hold
REAL_REFUSED = (True, "3", math.nan, math.inf, -math.inf, 10**400)

_A = BlockedMatrix(BlockLayout(4, 2), np.random.default_rng(0).normal(size=(6, 8)))
_CFG = {"m": 24, "M": 6, "d": 2, "K": 2}
_ADV = {"d": 1, "K": 2, "delta": 0.2, "epsilon": 1.0}


def _config(name):
    return lambda v: ExperimentConfig(**{**_CFG, name: v})


def _adversarial(name):
    return lambda v: AdversarialParams(**{**_ADV, name: v})


def _proof_instance(name):
    return lambda v: random_proof_instance(np.random.default_rng(0), **{name: v})


# (parameter name as the error names it, builder, values refused)
CASES = [
    ("num_blocks", lambda v: BlockLayout(v, 2), INT_REFUSED + (0,)),
    ("block_width", lambda v: BlockLayout(2, v), INT_REFUSED + (0, -1)),
    (
        "epsilon",
        lambda v: StoppingRule(FIXED_ITERATIONS, epsilon=v, max_iterations=2),
        REAL_REFUSED + (-1.0,),
    ),
    ("max_iterations", lambda v: StoppingRule(BOTH, max_iterations=v), INT_REFUSED + (0,)),
    *[(name, _config(name), INT_REFUSED + (0,)) for name in ("m", "M", "d", "K", "trials")],
    ("seed", _config("seed"), INT_REFUSED + (-1,)),
    ("noise_norm", _config("noise_norm"), REAL_REFUSED + (-0.5,)),
    ("min_block_norm", _config("min_block_norm"), REAL_REFUSED + (0.0, -1.0)),
    ("K", lambda v: BoundInputs(K=v, delta=0.2), INT_REFUSED + (0,)),
    ("delta", lambda v: BoundInputs(K=2, delta=v), REAL_REFUSED + (0.0, 1.0)),
    # 5e-324, the smallest subnormal: every bound would round to a few of them
    ("epsilon", lambda v: BoundInputs(K=2, delta=0.2, epsilon=v), REAL_REFUSED + (0.0, 5e-324)),
    ("d", _adversarial("d"), INT_REFUSED + (0,)),
    ("K", _adversarial("K"), INT_REFUSED + (0,)),
    ("delta", _adversarial("delta"), REAL_REFUSED + (0.0, 1.0)),
    ("epsilon", _adversarial("epsilon"), REAL_REFUSED + (0.0, 5e-324)),
    ("t0", _adversarial("t0"), REAL_REFUSED + (0.0, -1.0)),
    ("order K", lambda v: exact_block_rip(_A, v), INT_REFUSED + (0, 5)),
    ("order K", lambda v: rip_lower_bound_sampled(_A, v, 5, 0), INT_REFUSED + (0, 5)),
    ("trials", lambda v: rip_lower_bound_sampled(_A, 2, v, 0), INT_REFUSED + (0,)),
    ("seed", lambda v: rip_lower_bound_sampled(_A, 2, 5, v), INT_REFUSED + (-1,)),
    ("trials", lambda v: run_proof_verification(v, 0), INT_REFUSED + (0,)),
    ("seed", lambda v: run_proof_verification(1, v), INT_REFUSED + (-1,)),
    *[
        (name, _proof_instance(name), INT_REFUSED + (0,))
        for name in ("num_blocks", "block_width", "sparsity")
    ],
    ("epsilon", _proof_instance("epsilon"), REAL_REFUSED + (-1.0,)),
    ("points", lambda v: open_delta_grid(0.5, v), INT_REFUSED + (0, 1)),
    ("budget", lambda v: exact_block_rip(_A, 2, budget=v), INT_REFUSED + (-1,)),
]


@pytest.mark.parametrize(
    "name, build, refused", CASES, ids=[f"{i}-{case[0]}" for i, case in enumerate(CASES)]
)
def test_refused_values_raise_a_value_error_naming_the_parameter(name, build, refused):
    for value in refused:
        with pytest.raises(ValueError, match=f"^{name} must "):
            build(value)


def _ints(minimum, maximum):
    """Integers in range, plain and numpy (the refused kinds are tabled above)."""
    valid = st.integers(minimum, maximum)
    return st.one_of(valid, valid.map(np.int64))


# valid plain, numpy and integer reals, plus any double (NaN, infinities and
# negatives included) and an integer no double can hold
_REALS = st.one_of(
    st.floats(0.0, 10.0),
    st.floats(0.0, 10.0).map(np.float64),
    st.integers(0, 5),
    st.floats(),
    st.just(10**400),
)


def _strict_json(obj) -> None:
    json.dumps(json_fields(obj), allow_nan=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    counts=st.tuples(_ints(1, 40), _ints(1, 8), _ints(1, 3), _ints(1, 3), _ints(1, 40)),
    seed=_ints(0, 2**32),
    noise_norm=_REALS,
    min_block_norm=_REALS,
    mode=st.sampled_from([RESIDUAL_THRESHOLD, FIXED_ITERATIONS, BOTH]),
    epsilon=_REALS,
    max_iterations=st.one_of(st.none(), _ints(1, 10)),
)
@example(
    counts=(24, 6, 2, 2, 3), seed=0, noise_norm=0.5, min_block_norm=1.0,
    mode=RESIDUAL_THRESHOLD, epsilon=math.inf, max_iterations=2,
)
def test_property_accepted_experiment_configs_are_strict_json(
    counts, seed, noise_norm, min_block_norm, mode, epsilon, max_iterations
):
    m, M, d, K, trials = counts
    try:
        cfg = ExperimentConfig(
            m=m, M=M, d=d, K=K, trials=trials, seed=seed,
            noise_norm=noise_norm, min_block_norm=min_block_norm,
            stopping=StoppingRule(mode, epsilon=epsilon, max_iterations=max_iterations),
        )
    except ValueError:
        return
    _strict_json(cfg)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    d=_ints(1, 4),
    K=_ints(1, 10),
    delta=st.one_of(st.floats(0.0, 1.0), st.floats()),
    epsilon=_REALS,
    t0=st.one_of(st.none(), _REALS),
)
@example(d=1, K=2, delta=0.2, epsilon=1.0, t0=math.inf)
def test_property_accepted_bound_and_adversarial_inputs_are_strict_json(d, K, delta, epsilon, t0):
    try:
        b = BoundInputs(K=K, delta=delta, epsilon=epsilon)
    except ValueError:
        return
    _strict_json(b)
    try:
        params = AdversarialParams(d=d, K=K, delta=delta, epsilon=epsilon, t0=t0)
    except (ValueError, InfeasibleError):
        return
    _strict_json(params)
