import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bomp.core import (
    BlockedMatrix,
    BlockLayout,
    BlockSignal,
    SensingProblem,
    _draw_gaussian,
    block_norms,
    block_support,
    extract_blocks,
    gaussian_instance,
    mixed_norm,
)
from bomp.experiment import ExperimentConfig, generate_instance
from bomp.proofs import ProofInstance
from bomp.solver import project_least_squares


def test_layout_basics():
    layout = BlockLayout(num_blocks=4, block_width=3)
    assert layout.ambient_dim == 12
    assert layout.block_slice(1) == slice(0, 3)
    assert layout.block_slice(4) == slice(9, 12)
    assert list(layout.block_indices()) == [1, 2, 3, 4]


def test_layout_columns_map_blocks_to_coordinates():
    layout = BlockLayout(num_blocks=4, block_width=3)
    np.testing.assert_array_equal(layout.columns([4, 1]), [[9, 10, 11], [0, 1, 2]])
    for i in layout.block_indices():
        assert list(layout.columns([i])[0]) == list(range(12))[layout.block_slice(i)]
    assert layout.columns([]).shape == (0, 3)


def test_layout_rejects_bad_sizes():
    with pytest.raises(ValueError):
        BlockLayout(0, 2)
    with pytest.raises(ValueError):
        BlockLayout(3, 0)


def test_layout_index_range_is_one_based():
    layout = BlockLayout(3, 2)
    with pytest.raises(ValueError):
        layout.block_slice(0)
    with pytest.raises(ValueError):
        layout.block_slice(4)


_BLOCK_INDEX_ENTRY_POINTS = {
    "block_slice": lambda A, i: A.layout.block_slice(i),
    "matrix_block": lambda A, i: A.block(i),
    "from_blocks": lambda A, i: BlockSignal.from_blocks(A.layout, {i: [1.0, 2.0]}),
    "extract_blocks": lambda A, i: extract_blocks(A, [i]),
    "project_least_squares": lambda A, i: project_least_squares(A, [i], np.ones(A.rows)),
    "partial_support": lambda A, i: _proof_instance(A, partial_support=[i], probe_index=4),
    "probe_index": lambda A, i: _proof_instance(A, partial_support=[], probe_index=i),
}


def _proof_instance(A, **indices):
    truth = BlockSignal.from_blocks(A.layout, {1: [1.0, 0.5], 2: [0.0, 2.0], 3: [1.0, 1.0]})
    problem = SensingProblem(matrix=A, observation=A.entries @ truth.values)
    return ProofInstance(problem=problem, truth=truth, **indices)


_SUPPORT_ENTRY_POINTS = {
    "extract_blocks": lambda A, s: extract_blocks(A, s),
    "project_least_squares": lambda A, s: project_least_squares(A, s, np.ones(A.rows)),
    "partial_support": lambda A, s: _proof_instance(A, partial_support=s, probe_index=4),
}


def test_a_support_is_an_ascending_list_of_distinct_indices():
    layout = BlockLayout(4, 2)
    support = layout.check_support((3, np.int64(1)))
    assert support == [1, 3] and all(type(i) is int for i in support)
    assert layout.check_support(()) == []
    with pytest.raises(ValueError, match=re.escape("duplicate block indices in support [1, 3, 3]")):
        layout.check_support([3, 1, 3])


@pytest.mark.parametrize("entry", sorted(_SUPPORT_ENTRY_POINTS))
def test_every_support_takes_the_one_rule(entry):
    """``BlockLayout.check_support`` refuses a repeat where the support enters,
    and a support may come in any order."""
    call = _SUPPORT_ENTRY_POINTS[entry]
    A = BlockedMatrix(BlockLayout(4, 2), np.random.default_rng(4).normal(size=(12, 8)))
    with pytest.raises(ValueError, match=re.escape("duplicate block indices in support [2, 2]")):
        call(A, [2, 2])
    with pytest.raises(ValueError, match="block index must be an integer, got 2.0"):
        call(A, [1, 2.0])
    call(A, (np.int64(2), 1))


@pytest.mark.parametrize("entry", sorted(_BLOCK_INDEX_ENTRY_POINTS))
@pytest.mark.parametrize("index", [1.5, True, "2"], ids=repr)
def test_every_block_index_is_an_integer(entry, index):
    """``BlockLayout.check_index`` is the one rule: nothing truncates or coerces."""
    call = _BLOCK_INDEX_ENTRY_POINTS[entry]
    A = BlockedMatrix(BlockLayout(4, 2), np.random.default_rng(4).normal(size=(12, 8)))
    with pytest.raises(ValueError, match=f"block index must be an integer, got {index!r}"):
        call(A, index)
    # a NumPy integer is an integer, and range errors keep their message
    call(A, np.int64(4 if entry == "probe_index" else 1))
    with pytest.raises(ValueError, match="block index 5 out of range 1..4"):
        call(A, 5)


def test_signal_blocks_and_immutability():
    layout = BlockLayout(3, 2)
    x = BlockSignal(layout, [1.0, 2.0, 0.0, 0.0, 3.0, 4.0])
    np.testing.assert_array_equal(x.block(1), [1.0, 2.0])
    np.testing.assert_array_equal(x.block(3), [3.0, 4.0])
    with pytest.raises(ValueError):
        x.values[0] = 9.0  # frozen buffer


def test_signal_from_blocks_and_zero():
    layout = BlockLayout(4, 2)
    x = BlockSignal.from_blocks(layout, {2: [1.0, -1.0], 4: [0.5, 0.0]})
    np.testing.assert_array_equal(x.values, [0, 0, 1, -1, 0, 0, 0.5, 0])
    assert np.all(BlockSignal.zero(layout).values == 0.0)


def test_signal_rejects_bad_shape_and_nonfinite():
    layout = BlockLayout(2, 2)
    with pytest.raises(ValueError):
        BlockSignal(layout, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        BlockSignal(layout, [1.0, np.nan, 0.0, 0.0])


def test_matrix_views():
    layout = BlockLayout(3, 2)
    A = BlockedMatrix(layout, np.arange(24.0).reshape(4, 6))
    assert A.rows == 4
    np.testing.assert_array_equal(A.block(2), A.entries[:, 2:4])
    with pytest.raises(ValueError):
        A.entries[0, 0] = 1.0


def test_matrix_copies_what_the_caller_can_still_write():
    layout = BlockLayout(3, 2)
    raw = np.arange(24.0).reshape(4, 6)
    A = BlockedMatrix(layout, raw)
    raw[0, 0] = 99.0
    assert A.entries[0, 0] == 0.0
    assert raw.flags.writeable
    # a read-only view of a writable buffer is copied too
    view = raw[:, :]
    view.setflags(write=False)
    B = BlockedMatrix(layout, view)
    raw[0, 1] = 99.0
    assert B.entries[0, 1] == 1.0
    # a frozen array that owns its memory is adopted as is
    frozen = np.arange(24.0).reshape(4, 6).copy()
    frozen.setflags(write=False)
    assert BlockedMatrix(layout, frozen).entries is frozen


def test_gaussian_draw_holds_one_dictionary():
    cfg = ExperimentConfig(m=1024, M=512, d=4, K=64)
    tracemalloc.start()
    try:
        problem, _ = generate_instance(cfg, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * problem.matrix.entries.nbytes


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    m=st.integers(1, 12),
    M=st.integers(1, 8),
    d=st.integers(1, 3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    epsilon=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
)
def test_drawing_into_a_slice_is_the_allocating_draw(m, M, d, data, seed, epsilon):
    K = data.draw(st.integers(1, M), label="K")
    chunk = data.draw(st.integers(1, 4), label="chunk")
    t = data.draw(st.integers(0, chunk - 1), label="t")
    layout = BlockLayout(M, d)

    rng = np.random.default_rng(seed)
    problem, truth = gaussian_instance(rng, layout, m, K, epsilon)

    # every entry of the three stacks starts as NaN
    n = layout.ambient_dim
    stacks = [np.full((chunk, *shape), np.nan) for shape in ((m, n), (m,), (n,))]
    in_place = np.random.default_rng(seed)

    def draw_blocks(rng, count):
        return rng.normal(size=(count, d))

    _draw_gaussian(in_place, layout, K, draw_blocks, epsilon, [stack[t] for stack in stacks])

    for stack, drawn in zip(stacks, (problem.matrix.entries, problem.observation, truth.values)):
        assert stack[t].tobytes() == drawn.tobytes()
        # the neighbouring slices are left alone
        assert np.isnan(np.delete(stack, t, axis=0)).all()
    assert in_place.bit_generator.state == rng.bit_generator.state


def test_adopting_a_frozen_matrix_allocates_no_entry_sized_mask():
    entries = np.ones((1024, 2048))
    entries.setflags(write=False)
    mask_bytes = entries.size  # one byte per entry for np.isfinite
    tracemalloc.start()
    try:
        A = BlockedMatrix(BlockLayout(512, 4), entries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert A.entries is entries
    assert peak < mask_bytes / 8


def test_nonfinite_entries_are_found_in_any_row():
    layout = BlockLayout(512, 4)
    for row, bad in ((1023, np.nan), (517, np.inf), (0, -np.inf)):
        entries = np.ones((1024, 2048))
        entries[row, 2047 - row] = bad
        with pytest.raises(ValueError, match="non-finite"):
            BlockedMatrix(layout, entries)
    A = BlockedMatrix(BlockLayout(1, 1), np.ones((200_000, 1)))
    for row, bad in ((199_999, np.nan), (100_000, np.inf)):
        y = np.ones(200_000)
        y[row] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SensingProblem(matrix=A, observation=y)


def test_matrix_rejects_wrong_columns():
    with pytest.raises(ValueError):
        BlockedMatrix(BlockLayout(3, 2), np.zeros((4, 5)))
    with pytest.raises(ValueError):
        BlockedMatrix(BlockLayout(3, 2), np.zeros(6))


def test_problem_validation():
    A = BlockedMatrix(BlockLayout(2, 2), np.eye(4))
    with pytest.raises(ValueError):
        SensingProblem(matrix=A, observation=np.zeros(3))
    # the pursuit's input carries no noise bound: Lemma 1 reads the noise itself
    assert [f.name for f in dataclasses.fields(SensingProblem)] == ["matrix", "observation"]
    with pytest.raises(TypeError):
        SensingProblem(matrix=A, observation=np.zeros(4), noise_bound=0.1)


def test_block_norms_and_mixed_norms():
    layout = BlockLayout(3, 2)
    x = BlockSignal(layout, [3.0, 4.0, 0.0, 0.0, 0.0, 2.0])
    np.testing.assert_allclose(block_norms(x), [5.0, 0.0, 2.0])
    assert mixed_norm(x, 1) == pytest.approx(7.0)
    assert mixed_norm(x, 2) == pytest.approx(np.sqrt(29.0))
    assert mixed_norm(x, math.inf) == pytest.approx(5.0)
    # p=2 coincides with the flat Euclidean norm
    assert mixed_norm(x, 2) == pytest.approx(np.linalg.norm(x.values))
    with pytest.raises(ValueError):
        mixed_norm(x, 3)
    # True == 1, but an order is refused as a bool as every numeric parameter is
    for p in (True, False, np.True_):
        with pytest.raises(ValueError, match=rf"^unsupported mixed-norm order {p!r}; "):
            mixed_norm(x, p)


def test_tiny_blocks_keep_their_norms():
    # unscaled, every square here underflows and the norms read 0
    x = BlockSignal(BlockLayout(2, 2), [1e-170, 0.0, 0.0, 0.0])
    assert block_norms(x).tolist() == [1e-170, 0.0]
    assert mixed_norm(x, 2) == 1e-170
    assert block_support(x, zero_tol=0.0) == (1,)
    subnormal = BlockSignal(BlockLayout(2, 2), [5e-324, 0.0, 0.0, -5e-324])
    assert block_norms(subnormal).tolist() == [5e-324, 5e-324]
    assert block_support(subnormal, zero_tol=0.0) == (1, 2)
    # unscaled, the square here overflows and the norms read inf, with a warning
    huge = BlockSignal(BlockLayout(2, 2), [1e200, 0.0, 0.0, 0.0])
    assert block_norms(huge).tolist() == [1e200, 0.0]
    assert mixed_norm(huge, 1) == mixed_norm(huge, 2) == 1e200
    assert block_support(huge) == (1,)


def _normal_or_zero(values) -> bool:
    """Whether every entry is 0 or a normal double, which a power of two then
    scales exactly unless the product leaves that range."""
    magnitudes = np.abs(values)
    tiny, largest = np.finfo(float).tiny, np.finfo(float).max
    return bool(np.all((magnitudes == 0.0) | ((magnitudes >= tiny) & (magnitudes <= largest))))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    M=st.integers(1, 8),
    d=st.integers(1, 8),
    k=st.integers(-1000, 1000),
    seed=st.integers(0, 2**32 - 1),
)
def test_norms_scale_exactly_by_powers_of_two(M, d, k, seed):
    # entries from 2^low to 2^(low + spread), low uniform over the double range,
    # so the blocks' squares often leave it at one end; where 2^k scales the
    # entries and their norms exactly, it must scale every norm exactly, with
    # no warning
    rng = np.random.default_rng(seed)
    low, spread = rng.integers(-1100, 900), rng.integers(0, 120)
    exponents = rng.integers(low, low + spread, endpoint=True, size=M * d)
    values = np.ldexp(rng.normal(size=M * d), exponents) * (rng.random(M * d) < 0.7)
    x = BlockSignal(BlockLayout(M, d), values)
    # a norm past the largest double reads inf, with numpy's overflow warning
    with np.errstate(over="ignore"):
        scaled = np.ldexp(values, k)
        norms, total = block_norms(x), mixed_norm(x, 2)
        want, want_total = np.ldexp(norms, k), np.ldexp(total, k)
    assume(np.array_equal(np.ldexp(scaled, -k), values))
    assume(_normal_or_zero(norms) and _normal_or_zero(want))
    x_scaled = BlockSignal(x.layout, scaled)
    assert block_norms(x_scaled).tobytes() == want.tobytes()
    if _normal_or_zero([total, want_total]):
        assert mixed_norm(x_scaled, 2) == want_total


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    M=st.integers(1, 8),
    d=st.integers(1, 8),
    exponent=st.floats(-100.0, 150.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_norms_are_unscaled_bits_wherever_no_square_underflows(M, d, exponent, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=M * d) * 10.0**exponent * (rng.random(M * d) < 0.7)
    x = BlockSignal(BlockLayout(M, d), values)
    blocks = values.reshape(M, d)
    assert block_norms(x).tobytes() == np.linalg.norm(blocks, axis=1).tobytes()
    assert mixed_norm(x, 2) == np.linalg.norm(np.linalg.norm(blocks, axis=1))


def test_block_support_threshold():
    layout = BlockLayout(4, 1)
    x = BlockSignal(layout, [0.0, 1e-12, 1e-9, -2.0])
    assert block_support(x) == (3, 4)
    assert block_support(x, zero_tol=1e-13) == (2, 3, 4)
    assert block_support(x, zero_tol=5.0) == ()
    with pytest.raises(ValueError):
        block_support(x, zero_tol=-1.0)


def test_extract_blocks_sorts_and_validates():
    layout = BlockLayout(4, 2)
    A = BlockedMatrix(layout, np.arange(16.0).reshape(2, 8))
    sub = extract_blocks(A, (3, 1))
    np.testing.assert_array_equal(sub, np.hstack([A.block(1), A.block(3)]))
    assert extract_blocks(A, ()).shape == (2, 0)
    with pytest.raises(ValueError):
        extract_blocks(A, (1, 1))
    with pytest.raises(ValueError):
        extract_blocks(A, (0,))
    with pytest.raises(ValueError):
        extract_blocks(A, (5,))


# Both Gaussian instance streams, pinned exactly. Seeded experiments, proof
# sweeps and the benchmark references all depend on the draw order inside
# ``gaussian_instance``.
# generate_instance at m=4, M=3, d=2, K=2, noise_norm=0.3, min_block_norm=1.5, seed=11
_PINNED_TRIALS = {
    0: {
        "support": (2, 3),
        "A": [
            [
                0.017096383626592083, 0.6798737701549808, 0.6123605392929662,
                -0.25515353839383376, -0.14898475555322355, -0.2636920965167126,
            ],
            [
                0.28486317878598005, -0.028032219522808797, 0.37344280812827196,
                -0.9236623994870548, 0.7832743873497603, -0.048216080077810274,
            ],
            [
                0.34018922663707307, -0.06828316698841387, -0.18954928353742664,
                0.23155507929879338, 0.4122567637650565, -0.10126493534672576,
            ],
            [
                -0.07639308928509854, 0.342849305404629, -0.4351703209735856,
                -0.7571917518656978, 0.197490931374765, -0.3352829118439397,
            ],
        ],
        "truth": [
            0.0, 0.0, -1.4995482306315058,
            0.036811737393402405, 3.1840780335675984, -0.827318298441454,
        ],
        "y": [
            -1.379112441047914, 2.040981221138049, 1.87751114687847,
            1.4521286917261829,
        ],
    },
    1: {
        "support": (1, 3),
        "A": [
            [
                0.41298738319271083, 0.41976443199816293, 0.33335086644596135,
                0.8627258730368397, 0.0726392228143752, -0.706599622835374,
            ],
            [
                -1.5086328056237144, 0.49882054441351525, 0.8329660129538371,
                -0.09427142055298318, 0.5039286751036721, 0.4079832784510678,
            ],
            [
                0.19056062129505363, -0.3400680030328721, -0.03575351781247887,
                0.13520939707302723, 0.4481474715389771, 0.6978743347177471,
            ],
            [
                0.6870586915841983, -0.006651481158947884, 0.17837099047240013,
                0.3453949094170353, 0.4055023511170362, -0.23920218730641848,
            ],
        ],
        "truth": [
            -0.15237330908696528, -1.4922407227648922, 0.0,
            0.0, -1.7690449023034158, 1.407750331769223,
        ],
        "y": [
            -1.7781730608765176, -1.0752893724935246, 0.749721976532971,
            -1.2997708032825752,
        ],
    },
}
# gaussian_instance(default_rng(0), BlockLayout(3, 2), rows=4, sparsity=2, epsilon=0.2)
_PINNED_PROOF_DRAW = {
    "support": (1, 2),
    "A": [
        [
            0.06286511054669665, -0.06605243164565094, 0.32021132522164103,
            0.052450058576519853, -0.2678346865805555, 0.18079752745474237,
        ],
        [
            0.6520000225650686, 0.4735404815646211, -0.3518676179034963,
            -0.6327107355230263, -0.3116372312686761, 0.0206629896736218,
        ],
        [
            -1.1625153873194172, -0.10939583196627287, -0.6229554736265326,
            -0.3661336773517258, -0.27212949142865495, -0.15815007818457727,
        ],
        [
            0.2058152681870664, 0.5212566847213388, -0.06426733147201713,
            0.6832317352748429, -0.33259733674330677, 0.17575503504650986,
        ],
    ],
    "truth": [
        -0.7434992493538084, -0.9217253762584194, -0.45772582566733916,
        0.2201951234700494, 0.0, 0.0,
    ],
    "y": [
        -0.29270739601687323, -0.9350968937244793, 1.1425852489698862,
        -0.36156990303166164,
    ],
    "state_after": 130735530631545333570167375481729350465,
}


# generate_instance at m=2d, M=3, K=2, noise_norm=0.3, min_block_norm=1.5,
# seed=11: the supported blocks of one trial at d=3 and one at d=4, where
# norming each direction by np.linalg.norm(axis=1) or einsum changes a last bit
_PINNED_TRUTHS = {
    (3, 17): [
        -2.6834674090142405, 1.4795114139653287, 2.2692508669202742,
        -1.2550396231632424, -0.8175699619180323, 0.08034240262534867,
        0.0, 0.0, 0.0,
    ],
    (4, 0): [
        0.0, 0.0, 0.0, 0.0,
        -1.23728402896584, 0.6523746299032268, 0.5186515103177932, -0.15664030378468644,
        -0.21733794594815667, -1.2597037463242666, -0.4766358558303406, 1.1827765363075156,
    ],
}


def _assert_pinned(problem, truth, expected):
    assert block_support(truth) == expected["support"]
    np.testing.assert_array_equal(problem.matrix.entries, expected["A"])
    np.testing.assert_array_equal(truth.values, expected["truth"])
    # the observation goes through a BLAS matrix-vector product
    np.testing.assert_allclose(problem.observation, expected["y"], rtol=1e-12, atol=0.0)


def test_gaussian_streams_match_pinned_values():
    cfg = ExperimentConfig(m=4, M=3, d=2, K=2, noise_norm=0.3, min_block_norm=1.5, seed=11)
    for trial, expected in _PINNED_TRIALS.items():
        _assert_pinned(*generate_instance(cfg, trial), expected)

    rng = np.random.default_rng(0)
    problem, truth = gaussian_instance(rng, BlockLayout(3, 2), 4, 2, epsilon=0.2)
    _assert_pinned(problem, truth, _PINNED_PROOF_DRAW)
    assert rng.bit_generator.state["state"]["state"] == _PINNED_PROOF_DRAW["state_after"]
    for (d, trial), expected in _PINNED_TRUTHS.items():
        cfg = ExperimentConfig(m=2 * d, M=3, d=d, K=2, noise_norm=0.3, min_block_norm=1.5, seed=11)
        _, truth = generate_instance(cfg, trial)
        assert truth.values.tolist() == expected
