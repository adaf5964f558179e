import json

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


@pytest.mark.parametrize(
    "stopping",
    [None, StoppingRule(RESIDUAL_THRESHOLD, epsilon=0.9, max_iterations=4)],
    ids=["fixed_iterations", "residual_threshold"],
)
def test_result_is_identical_for_any_chunk_size(monkeypatch, stopping):
    cfg = _small_cfg(noise_norm=0.4, trials=24, stopping=stopping)
    dictionary_bytes = 8 * cfg.m * cfg.layout.ambient_dim
    results = []
    for chunk in (1, 7, cfg.trials):
        monkeypatch.setattr(bomp.experiment, "_CHUNK_BYTES", chunk * dictionary_bytes)
        results.append(run_experiment(cfg))
    assert results[0] == results[1] == results[2]
    if stopping is not None:
        # trials leave the batch at different steps
        assert len({r.iterations for r in results[0].records}) > 1


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
        m=10, M=4, d=2, K=2, noise_norm=0.1, trials=3, seed=5,
        stopping=StoppingRule(FIXED_ITERATIONS, max_iterations=4),
    )
    clean = run_experiment(cfg)
    drawn = bomp.experiment.generate_instance
    monkeypatch.setattr(
        bomp.experiment, "generate_instance",
        lambda cfg, k: deficient if k == 1 else drawn(cfg, k),
    )
    mixed = run_experiment(cfg)  # all three trials share one chunk
    assert mixed.records[1].error == f"RankDeficientError: {reference.value}"
    assert clean.records[1].error is None
    assert (mixed.records[0], mixed.records[2]) == (clean.records[0], clean.records[2])


def test_overflowing_trials_are_recorded_as_errors():
    result = run_experiment(ExperimentConfig(m=8, M=4, d=2, K=2, noise_norm=1e160, trials=3))
    assert result.recovery_rate == 0.0
    for record in result.records:
        assert record.iterations == 0
        assert record.error.startswith("BompError: the residual norm or the block selection")


def test_solver_errors_are_recorded_not_raised(monkeypatch):
    # two identical column blocks: the second pick makes the least squares
    # rank deficient, which must land in the record, not abort the batch
    layout = BlockLayout(2, 1)
    A = BlockedMatrix(layout, np.array([[1.0, 1.0], [0.0, 0.0]]))
    instance = (
        SensingProblem(matrix=A, observation=np.array([1.0, 0.3])),
        BlockSignal(layout, np.array([1.0, 0.0])),
    )
    monkeypatch.setattr("bomp.experiment.generate_instance", lambda cfg, k: instance)
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
