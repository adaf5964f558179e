import json

import numpy as np
import pytest

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
from bomp.solver import FIXED_ITERATIONS, RESIDUAL_THRESHOLD, StoppingRule


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
    from bomp.solver import project_least_squares

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


def test_result_is_identical_for_any_worker_count(monkeypatch):
    cfg = _small_cfg(noise_norm=0.4, trials=24)
    monkeypatch.setenv("BOMP_THREADS", "1")
    serial = run_experiment(cfg)
    monkeypatch.setenv("BOMP_THREADS", "5")
    threaded = run_experiment(cfg)
    assert serial == threaded


def test_bomp_threads_validation(monkeypatch):
    cfg = _small_cfg(trials=2)
    monkeypatch.setenv("BOMP_THREADS", "abc")
    with pytest.raises(ValueError):
        run_experiment(cfg)
    monkeypatch.setenv("BOMP_THREADS", "-2")
    with pytest.raises(ValueError):
        run_experiment(cfg)


def test_solver_errors_are_recorded_not_raised(monkeypatch):
    # two identical column blocks: the second pick makes the least squares
    # rank deficient, which must land in the record, not abort the batch
    layout = BlockLayout(2, 1)
    A = BlockedMatrix(layout, np.array([[1.0, 1.0], [0.0, 0.0]]))
    instance = (
        SensingProblem(matrix=A, observation=np.array([1.0, 0.3]), noise_bound=1.0),
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
