import concurrent.futures
import dataclasses
import json
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import bomp.experiment
from bomp.core import (
    BlockedMatrix,
    BlockLayout,
    BlockSignal,
    SensingProblem,
    block_norms,
    block_support,
)
from bomp.experiment import (
    ExperimentConfig,
    generate_instance,
    run_experiment,
)
from bomp.errors import RankDeficientError
from bomp.solver import FIXED_ITERATIONS, RESIDUAL_THRESHOLD, StoppingRule, project_least_squares


def _small_cfg(**overrides):
    base = dict(m=24, M=6, d=2, K=2, noise_norm=0.0, min_block_norm=1.0,
                trials=8, seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _small_cfg(K=7)  # K > M
    with pytest.raises(ValueError):
        _small_cfg(m=3)  # K*d > m
    with pytest.raises(ValueError):
        _small_cfg(trials=0)
    with pytest.raises(ValueError):
        _small_cfg(noise_norm=-1.0)
    with pytest.raises(ValueError):
        _small_cfg(min_block_norm=0.0)
    # a dictionary no array can hold is refused by its parameters, not by NumPy
    with pytest.raises(ValueError, match=r"^the dictionary size m\*M\*d must be at most"):
        _small_cfg(m=2**40, M=2**30, d=1, K=1)
    _small_cfg(m=2**28, M=2**28, d=1, K=1)  # 2**56 doubles: allowed, though never allocated
    # wrong types from a JSON config are ValueErrors, not TypeErrors
    for bad in (
        {"trials": 2.5},
        {"m": "24"},
        {"K": True},
        {"noise_norm": "0.1"},
        {"noise_norm": float("nan")},
        {"seed": -1},
        {"stopping": "fixed_iterations"},
        {"stopping": {"epsilon": 0.1}},
        {"stopping": {"mode": "fixed_iterations", "max_iterations": "3"}},
    ):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({**_small_cfg().to_dict(), **bad})


def test_default_stopping_is_k_iterations():
    cfg = _small_cfg()
    assert cfg.stopping.mode == FIXED_ITERATIONS
    assert cfg.stopping.max_iterations == cfg.K


def test_constructor_refuses_a_stopping_that_is_not_a_rule():
    # built directly, not through from_dict: refused here, not inside run_experiment
    for stopping in ({"mode": FIXED_ITERATIONS, "max_iterations": 2}, "fixed_iterations"):
        with pytest.raises(ValueError, match="stopping must be an object with keys"):
            _small_cfg(stopping=stopping)


def test_config_dict_roundtrip():
    cfg = _small_cfg(stopping=StoppingRule(RESIDUAL_THRESHOLD, epsilon=0.5))
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({**cfg.to_dict(), "typo": 1})


def test_config_file_load_with_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_cfg().to_dict()))
    cfg = ExperimentConfig.load(path, {"trials": 99, "seed": 42})
    assert cfg.trials == 99
    assert cfg.seed == 42
    assert cfg.m == 24
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentConfig.load(bad)


def test_instances_are_counter_deterministic():
    cfg = _small_cfg(noise_norm=0.3)
    p1, x1 = generate_instance(cfg, 4)
    p2, x2 = generate_instance(cfg, 4)
    np.testing.assert_array_equal(p1.matrix.entries, p2.matrix.entries)
    np.testing.assert_array_equal(p1.observation, p2.observation)
    np.testing.assert_array_equal(x1.values, x2.values)
    # a different trial index gives a different instance
    p3, _ = generate_instance(cfg, 5)
    assert not np.array_equal(p1.matrix.entries, p3.matrix.entries)
    with pytest.raises(ValueError):
        generate_instance(cfg, -1)


def test_instance_construction_contracts():
    cfg = _small_cfg(noise_norm=0.25, min_block_norm=1.5, K=3, trials=1)
    for trial in range(6):
        problem, truth = generate_instance(cfg, trial)
        support = block_support(truth)
        assert len(support) == 3
        norms = block_norms(truth)
        supported = sorted(norms[i - 1] for i in support)
        # smallest block norm hits the floor exactly, everything else above
        assert supported[0] == pytest.approx(1.5, abs=1e-12)
        assert all(v >= 1.5 - 1e-12 for v in supported)
        noise = problem.observation - problem.matrix.entries @ truth.values
        assert np.linalg.norm(noise) == pytest.approx(0.25, rel=1e-12)


def test_noiseless_observation_lies_in_the_span():
    cfg = _small_cfg(noise_norm=0.0)
    problem, truth = generate_instance(cfg, 0)
    _, residual = project_least_squares(
        problem.matrix, block_support(truth), problem.observation
    )
    assert np.linalg.norm(residual) < 1e-12


def test_noiseless_batch_recovers_everything():
    result = run_experiment(_small_cfg(trials=16))
    assert result.recovery_rate == 1.0
    assert result.avg_iterations == 2.0
    assert len(result.records) == 16
    assert [r.seed_offset for r in result.records] == list(range(16))
    assert all(r.error is None for r in result.records)


def test_recovery_is_judged_against_the_drawn_support():
    # every drawn block lies under block_support's default zero tolerance
    cfg = ExperimentConfig(m=40, M=10, d=2, K=3, min_block_norm=1e-11, trials=50)
    assert run_experiment(cfg).recovery_rate == 1.0


def test_tiny_drawn_blocks_are_still_the_support():
    # at this scale every float64 selection score is 0, so the pursuit picks
    # by block index; with K = M that is the drawn support
    cfg = ExperimentConfig(m=8, M=2, d=2, K=2, min_block_norm=1e-170, trials=4)
    result = run_experiment(cfg)
    assert result.recovery_rate == 1.0
    assert all(r.error is None for r in result.records)


class _Stream:
    """A stand-in generator whose normal draws are ``values``, read in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.used = 0

    def normal(self, size):
        count = int(np.prod(size))
        drawn = self.values[self.used : self.used + count].reshape(size)
        self.used += count
        return drawn


def _reference_directions(rng, count, d):
    """The per-block draw: each direction its own call, repeated while zero."""
    rows = []
    for _ in range(count):
        while True:
            g = rng.normal(size=d)
            norm = np.linalg.norm(g)
            if norm > 0.0:
                rows.append(g / norm)
                break
    return np.array(rows)


@pytest.mark.parametrize("zero_rows", [(0,), (2,), (1, 2), (3, 4)])
def test_a_zero_direction_is_redrawn_as_the_per_block_loop_redraws_it(zero_rows):
    count, d = 4, 3
    values = np.random.default_rng(8).normal(size=(count + 4, d))
    values[list(zero_rows)] = 0.0
    got_stream, want_stream = _Stream(values.ravel()), _Stream(values.ravel())
    got = bomp.experiment._unit_directions(got_stream, count, d)
    want = _reference_directions(want_stream, count, d)
    assert got.tobytes() == want.tobytes()
    assert got_stream.used == want_stream.used == (count + len(zero_rows)) * d


def _force_shares(monkeypatch, shares):
    """Split every chunk into ``shares`` draws, whatever the dictionary size
    and the host's CPU count."""
    monkeypatch.setattr(bomp.experiment, "_SPLIT_ENTRIES", 0)
    monkeypatch.setattr(bomp.experiment, "_cpu_count", lambda: shares)


@pytest.fixture
def short_switch_interval():
    """Switch threads every microsecond, so shares interleave finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "stopping",
    [None, StoppingRule(RESIDUAL_THRESHOLD, epsilon=0.9, max_iterations=4)],
    ids=["fixed_iterations", "residual_threshold"],
)
def test_result_is_identical_for_any_chunk_size(monkeypatch, short_switch_interval, stopping):
    cfg = _small_cfg(noise_norm=0.4, trials=24, stopping=stopping)
    dictionary_bytes = 8 * cfg.m * cfg.layout.ambient_dim
    # the default's chunk holds 16 trials at (128, 64, 4) and every trial here,
    # in one share: these dictionaries are below the split's gate
    reference = run_experiment(cfg)
    drawn, threads = bomp.experiment._draw_trial, set()

    def watched(cfg, k, out):
        threads.add(threading.get_ident())
        drawn(cfg, k, out)

    monkeypatch.setattr(bomp.experiment, "_draw_trial", watched)
    # a 7-trial chunk splits 3 + 4 and 2 + 2 + 3; 24 shares give one per trial
    for chunk in (1, 7, 16, cfg.trials):
        monkeypatch.setattr(bomp.experiment, "_CHUNK_BYTES", chunk * dictionary_bytes)
        for shares in (1, 2, 3, cfg.trials):
            _force_shares(monkeypatch, shares)
            threads.clear()
            assert run_experiment(cfg) == reference, (chunk, shares)
            # helpers are reused once idle, so only split or not is certain
            assert (len(threads) > 1) == (min(chunk, shares) > 1), (chunk, shares)
    if stopping is not None:
        # trials leave the batch at different steps
        assert len({r.iterations for r in reference.records}) > 1


@pytest.mark.parametrize("shares", [1, 2, 3])
@pytest.mark.parametrize("chunk", [1, 7, 16])
def test_the_batch_stacks_are_the_single_instances(monkeypatch, chunk, shares):
    # the stacks the kernel pursues, and the truths the supports are read
    # off, hold byte for byte what generate_instance draws for each trial
    cfg = _small_cfg(noise_norm=0.4, trials=24)
    monkeypatch.setattr(
        bomp.experiment, "_CHUNK_BYTES", chunk * 8 * cfg.m * cfg.layout.ambient_dim
    )
    _force_shares(monkeypatch, shares)
    draw_chunk, pursue = bomp.experiment._draw_chunk, bomp.experiment._pursue
    truths, pursued = [], []

    def drawn(cfg, trials, stacks, shares, pool):
        draw_chunk(cfg, trials, stacks, shares, pool)
        truths.append(stacks[2][: len(trials)].copy())

    def copied(entries, observations, layout, stop):
        pursued.append((entries.copy(), observations.copy()))
        return pursue(entries, observations, layout, stop)

    monkeypatch.setattr(bomp.experiment, "_draw_chunk", drawn)
    monkeypatch.setattr(bomp.experiment, "_pursue", copied)
    run_experiment(cfg)
    stacks = [np.concatenate(parts) for parts in (*zip(*pursued), truths)]
    assert [len(stack) for stack in stacks] == [cfg.trials] * 3
    for k in range(cfg.trials):
        problem, truth = generate_instance(cfg, k)
        single = (problem.matrix.entries, problem.observation, truth.values)
        assert [stack[k].tobytes() for stack in stacks] == [a.tobytes() for a in single], k


def test_a_batch_holds_one_stack_of_dictionaries(monkeypatch):
    # chunks of 16, 16 and 8 trials; a stack allocated while the last one is
    # still referenced would hold two at once. Three shares draw each chunk,
    # and tracemalloc sees the allocations of every thread.
    monkeypatch.setattr(bomp.experiment, "_cpu_count", lambda: 3)
    cfg = ExperimentConfig(m=128, M=64, d=4, K=8, noise_norm=0.1, trials=40)
    run_experiment(dataclasses.replace(cfg, trials=1))  # modules numpy imports on first use
    tracemalloc.start()
    try:
        result = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.error is None for r in result.records)
    assert peak < 1.5 * bomp.experiment._CHUNK_BYTES


def _inject(instance, out):
    """Stand-in for a trial's draw: writes the ``(problem, truth)`` pair's
    dictionary, observation and truth into the trial's slices of the three
    stacks, as the draw does."""
    problem, truth = instance
    for slot, drawn in zip(out, (problem.matrix.entries, problem.observation, truth.values)):
        slot[...] = drawn


def test_rank_failure_mid_batch_leaves_its_neighbours_alone(monkeypatch):
    # block 3 repeats the first column of block 1 next to a fresh column, so
    # it scores high but spans nothing new once block 1 is in
    rng = np.random.default_rng(15)
    layout = BlockLayout(4, 2)
    entries = rng.normal(size=(10, 8))
    entries[:, 4] = entries[:, 0]
    A = BlockedMatrix(layout, entries)
    y = entries @ np.array([3.0, 2.5, 0.0, 0.0, 2.0, 4.0, 0.0, 0.0]) + 0.1 * rng.normal(size=10)
    deficient = (SensingProblem(matrix=A, observation=y), BlockSignal.zero(layout))
    with pytest.raises(RankDeficientError) as reference:
        project_least_squares(A, (1, 3), y)

    cfg = ExperimentConfig(
        m=10, M=4, d=2, K=2, noise_norm=0.1, trials=8, seed=5,
        stopping=StoppingRule(FIXED_ITERATIONS, max_iterations=4),
    )
    clean = run_experiment(cfg)
    drawn = bomp.experiment._draw_trial
    monkeypatch.setattr(
        bomp.experiment, "_draw_trial",
        lambda cfg, k, out: _inject(deficient, out) if k == 1 else drawn(cfg, k, out),
    )
    mixed = run_experiment(cfg)  # all eight trials share one chunk
    assert mixed.records[1].error == f"RankDeficientError: {reference.value}"
    assert clean.records[1].error is None
    neighbours = [k for k in range(cfg.trials) if k != 1]
    assert [mixed.records[k] for k in neighbours] == [clean.records[k] for k in neighbours]


_NON_FINITE = "contains non-finite entries"


@pytest.mark.parametrize(
    "faults, message",
    [
        pytest.param({5: "matrix"}, f"^matrix {_NON_FINITE}$", id="matrix"),
        pytest.param({5: "observation"}, f"^observation {_NON_FINITE}$", id="observation"),
        # the lowest failing trial raises, whichever way each trial fails
        pytest.param({2: "matrix", 5: "overflow"}, f"^matrix {_NON_FINITE}$", id="matrix-overflow"),
        pytest.param(
            {1: "overflow", 3: "observation"},
            "^"
            + re.escape(
                f"min_block_norm {np.finfo(float).max:g} and noise_norm 0 "
                "overflow double precision in trial 1"
            )
            + "$",
            id="overflow-observation",
        ),
    ],
)
def test_a_non_finite_draw_is_refused(monkeypatch, faults, message):
    _force_shares(monkeypatch, 2)  # shares of trials 0 to 3 (this thread) and 4 to 7
    drawn = bomp.experiment._draw_trial

    def poisoned(cfg, k, out):
        if faults.get(k) == "overflow":  # a floor that overflows in the real draw
            cfg = dataclasses.replace(cfg, min_block_norm=np.finfo(float).max)
        drawn(cfg, k, out)
        if faults.get(k) in ("matrix", "observation"):
            out[("matrix", "observation").index(faults[k])][-1] = np.nan

    monkeypatch.setattr(bomp.experiment, "_draw_trial", poisoned)
    with pytest.raises(ValueError, match=message):
        run_experiment(_small_cfg())


@pytest.mark.parametrize(
    "shares, failing, lowest",
    # shares of 8 trials: 0-3 and 4-7 for two, 0-1, 2-4 and 5-7 for three
    [(1, range(5, 8), 5), (2, range(5, 8), 5), (3, (4, 7), 4), (3, (6, 2), 2)],
)
def test_an_overflowing_draw_raises_for_the_lowest_failing_trial(
    monkeypatch, shares, failing, lowest
):
    drawn = bomp.experiment._draw_trial

    def huge(cfg, k, out):
        # a floor that overflows in the real draw, under its own errstate
        if k in failing:
            cfg = dataclasses.replace(cfg, min_block_norm=np.finfo(float).max)
        drawn(cfg, k, out)

    _force_shares(monkeypatch, shares)
    monkeypatch.setattr(bomp.experiment, "_draw_trial", huge)
    with pytest.raises(ValueError, match=f"overflow double precision in trial {lowest}$"):
        run_experiment(_small_cfg())


def test_no_thread_is_started_below_the_split_gate(monkeypatch):
    def refused(self, *args, **kwargs):
        raise AssertionError("a share was submitted to the pool")

    monkeypatch.setattr(bomp.experiment, "_cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit", refused)
    cfg = _small_cfg(trials=16)
    assert cfg.m * cfg.layout.ambient_dim < bomp.experiment._SPLIT_ENTRIES
    assert all(r.error is None for r in run_experiment(cfg).records)
    # at the gate the same batch is split
    monkeypatch.setattr(bomp.experiment, "_SPLIT_ENTRIES", cfg.m * cfg.layout.ambient_dim)
    with pytest.raises(AssertionError, match="submitted to the pool"):
        run_experiment(cfg)


def test_overflowing_trials_are_recorded_as_errors():
    # the scores are taken at unit scale, so noise of 1e160 runs every pick
    result = run_experiment(ExperimentConfig(m=8, M=4, d=2, K=2, noise_norm=1e160, trials=3))
    for record in result.records:
        assert record.iterations == 2 and record.error is None
    # at 1.7e308 the estimate of trial 0 overflows, about 2.0e308, and its
    # record says so, with the 2 picks made before the refusal; trials 1 and
    # 2 stay finite
    result = run_experiment(ExperimentConfig(m=8, M=4, d=2, K=2, noise_norm=1.7e308, trials=3))
    assert result.recovery_rate == 0.0
    refused, *kept = result.records
    assert refused.iterations == 2
    assert refused.error == "BompError: the least-squares estimate overflows double precision"
    for record in kept:
        assert record.iterations == 2 and record.error is None


def test_solver_errors_are_recorded_not_raised(monkeypatch):
    # two identical column blocks: the second pick makes the least squares
    # rank deficient, which must land in the record, with both picks, not
    # abort the batch
    layout = BlockLayout(2, 1)
    A = BlockedMatrix(layout, np.array([[1.0, 1.0], [0.0, 0.0]]))
    instance = (
        SensingProblem(matrix=A, observation=np.array([1.0, 0.3])),
        BlockSignal(layout, np.array([1.0, 0.0])),
    )
    monkeypatch.setattr("bomp.experiment._draw_trial", lambda cfg, k, out: _inject(instance, out))
    cfg = ExperimentConfig(
        m=2, M=2, d=1, K=1, noise_norm=1.0, trials=3, seed=0,
        stopping=StoppingRule(FIXED_ITERATIONS, max_iterations=2),
    )
    result = run_experiment(cfg)
    assert len(result.records) == 3
    for record in result.records:
        assert not record.recovered
        assert record.error is not None
        assert "RankDeficientError" in record.error
        assert record.iterations == 2


def test_recovery_rate_is_monotone_in_block_magnitude():
    # deterministic given the seed, so the climb is reproducible
    rates = []
    for norm in (0.2, 0.4, 0.8, 1.6, 3.2):
        cfg = ExperimentConfig(m=24, M=6, d=2, K=2, noise_norm=1.0,
                               min_block_norm=norm, trials=400, seed=7)
        rates.append(run_experiment(cfg).recovery_rate)
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 0.02
    assert rates[0] < 0.5 < rates[-1]  # the sweep actually spans the transition
