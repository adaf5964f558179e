"""Seeded Monte Carlo recovery experiments.

Instances are generated from a counter-based stream keyed by
``(seed, trial_index)``, so a batch is reproducible under any parallel
partition of the trial range: worker count changes the schedule, never the
data. Aggregation is a plain fold in trial-index order.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .core import BlockLayout, as_int, as_real, as_seed, block_support, gaussian_instance
from .errors import BompError
from .solver import FIXED_ITERATIONS, StoppingRule, run_bomp

_CONFIG_KEYS = {
    "m", "M", "d", "K",
    "noise_norm", "min_block_norm", "trials", "seed", "stopping",
}
_STOPPING_KEYS = {field.name for field in fields(StoppingRule)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Batch description. JSON config files mirror these field names.

    Every trial draws its own Gaussian instance (see ``generate_instance``).
    ``stopping`` left as None means a fixed budget of exactly K iterations.
    """

    m: int
    M: int
    d: int
    K: int
    noise_norm: float = 0.0
    min_block_norm: float = 1.0
    trials: int = 100
    seed: int = 0
    stopping: StoppingRule | None = None

    def __post_init__(self):
        for name in ("m", "M", "d", "K", "trials"):
            value = as_int(getattr(self, name), name)
            if value < 1:
                raise ValueError(f"{name} must be a positive integer")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", as_seed(self.seed))
        for name in ("noise_norm", "min_block_norm"):
            value = as_real(getattr(self, name), name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.K > self.M:
            raise ValueError(f"K={self.K} exceeds the number of blocks M={self.M}")
        if self.K * self.d > self.m:
            raise ValueError(
                f"K*d={self.K * self.d} exceeds m={self.m}; least squares on the "
                "support would be underdetermined"
            )
        if self.noise_norm < 0.0:
            raise ValueError("noise_norm must be nonnegative")
        if self.min_block_norm <= 0.0:
            raise ValueError("min_block_norm must be positive")
        if self.stopping is None:
            object.__setattr__(
                self,
                "stopping",
                StoppingRule(mode=FIXED_ITERATIONS, max_iterations=self.K),
            )

    @property
    def layout(self) -> BlockLayout:
        return BlockLayout(self.M, self.d)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {"m", "M", "d", "K"} - set(data)
        if missing:
            raise ValueError(f"config is missing required keys: {sorted(missing)}")
        data = dict(data)
        stopping = data.get("stopping")
        if isinstance(stopping, dict):
            unknown = set(stopping) - _STOPPING_KEYS
            if unknown:
                raise ValueError(f"unknown stopping keys: {sorted(unknown)}")
            if "mode" not in stopping:
                raise ValueError("stopping is missing required key 'mode'")
            data["stopping"] = StoppingRule(**stopping)
        elif stopping is not None:
            raise ValueError(
                f"stopping must be an object with keys {sorted(_STOPPING_KEYS)}, "
                f"got {stopping!r}"
            )
        return cls(**data)

    @classmethod
    def load(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        """Read a JSON config file; entries in ``overrides`` win."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        data.update(overrides or {})
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "m": self.m, "M": self.M, "d": self.d, "K": self.K,
            "noise_norm": self.noise_norm,
            "min_block_norm": self.min_block_norm,
            "trials": self.trials, "seed": self.seed,
            "stopping": {
                "mode": self.stopping.mode,
                "epsilon": self.stopping.epsilon,
                "max_iterations": self.stopping.max_iterations,
            },
        }


def _unit_direction(rng: np.random.Generator, d: int) -> np.ndarray:
    while True:
        g = rng.normal(size=d)
        norm = np.linalg.norm(g)
        if norm > 0.0:
            return g / norm


def generate_instance(cfg: ExperimentConfig, trial_index: int):
    """Build the Gaussian instance for one trial; returns (problem, truth).

    Drawn by :func:`gaussian_instance`: i.i.d. matrix entries of variance
    1/m; uniform random size-K block support; supported blocks are random
    directions with norms at least
    min_block_norm and the smallest norm equal to it exactly; noise rescaled
    to the exact norm noise_norm. Everything is a pure function of
    (seed, trial_index).
    """
    if trial_index < 0:
        raise ValueError("trial_index must be nonnegative")

    def floored_blocks(rng, count):
        excess = np.abs(rng.normal(size=count))
        excess[int(np.argmin(excess))] = 0.0
        return [cfg.min_block_norm * (1.0 + e) * _unit_direction(rng, cfg.d) for e in excess]

    rng = np.random.default_rng((cfg.seed, trial_index))
    return gaussian_instance(rng, cfg.layout, cfg.m, cfg.K, floored_blocks, cfg.noise_norm)


@dataclass(frozen=True)
class TrialRecord:
    seed_offset: int
    recovered: bool
    iterations: int
    error: str | None = None

    def to_dict(self) -> dict:
        out = {
            "seed_offset": self.seed_offset,
            "recovered": self.recovered,
            "iterations": self.iterations,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class ExperimentResult:
    recovery_rate: float
    avg_iterations: float
    records: tuple

    def to_dict(self) -> dict:
        return {
            "recovery_rate": self.recovery_rate,
            "avg_iterations": self.avg_iterations,
            "records": [record.to_dict() for record in self.records],
        }


def _worker_count(trials: int) -> int:
    raw = os.environ.get("BOMP_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"BOMP_THREADS must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"BOMP_THREADS must be nonnegative, got {cap}")
    workers = os.cpu_count() or 1
    if cap > 0:
        workers = min(workers, cap)
    return max(1, min(workers, trials))


def _run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialRecord:
    try:
        problem, truth = generate_instance(cfg, trial_index)
        trace = run_bomp(problem, cfg.stopping)
        # off-support entries are exact zeros, so any nonzero block was drawn
        recovered = set(trace.chosen_indices) == set(block_support(truth, zero_tol=0.0))
        return TrialRecord(trial_index, recovered, trace.iterations_run)
    except (BompError, np.linalg.LinAlgError) as exc:
        return TrialRecord(trial_index, False, 0, error=f"{type(exc).__name__}: {exc}")


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the batch; recovered means the chosen index set equals the support.

    Trials run on a thread pool (BOMP_THREADS caps the width, 0 means auto).
    Per-trial solver failures land in the record's error field instead of
    aborting the batch. Output is identical for any worker count.
    """
    workers = _worker_count(cfg.trials)
    if workers == 1:
        records = [_run_trial(cfg, k) for k in range(cfg.trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda k: _run_trial(cfg, k), range(cfg.trials)))

    recovered = sum(record.recovered for record in records)
    avg = sum(record.iterations for record in records) / cfg.trials
    return ExperimentResult(
        recovery_rate=recovered / cfg.trials,
        avg_iterations=avg,
        records=tuple(records),
    )
