import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bomp.core import (
    BlockedMatrix,
    BlockLayout,
    BlockSignal,
    SensingProblem,
    block_norms,
    block_support,
    extract_blocks,
    mixed_norm,
)
from bomp.experiment import ExperimentConfig, generate_instance
from bomp.proofs import random_recovery_problem


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
# random_recovery_problem(default_rng(0), 3, 2, 2, rows=4, epsilon=0.2)
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
    problem, truth = random_recovery_problem(rng, 3, 2, 2, rows=4, epsilon=0.2)
    _assert_pinned(problem, truth, _PINNED_PROOF_DRAW)
    assert rng.bit_generator.state["state"]["state"] == _PINNED_PROOF_DRAW["state_after"]
