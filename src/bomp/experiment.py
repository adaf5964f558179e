"""Seeded Monte Carlo recovery experiments.

Instances are generated from a counter-based stream keyed by
``(seed, trial_index)``, and the pursuit's outcome for a trial does not
depend on the trials batched with it, so a result is a pure function of the
config. Aggregation is a plain fold in trial-index order.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .core import BlockLayout, as_int, as_real, as_seed, block_support, gaussian_instance
from .io import json_fields
from .solver import FIXED_ITERATIONS, StoppingRule, run_bomp_batch

# bytes of dictionaries stacked into one pursuit call (two trials at
# m=128, n=256): one trial at a time was slower, and larger stacks raised
# the peak memory of a batch without a clear speed-up
_CHUNK_BYTES = 1 << 19


def _checked_keys(cls, data: dict, what: str) -> dict:
    """``data`` unchanged; ValueError unless its keys are field names of the
    dataclass ``cls`` and include every field without a default."""
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
    if missing:
        raise ValueError(f"{what} is missing required keys: {sorted(missing)}")
    return data


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
        """The config a JSON object describes; ``stopping`` is an object too."""
        data = dict(_checked_keys(cls, data, "config"))
        stopping = data.get("stopping")
        if isinstance(stopping, dict):
            data["stopping"] = StoppingRule(**_checked_keys(StoppingRule, stopping, "stopping"))
        elif stopping is not None:
            raise ValueError(
                f"stopping must be an object with keys "
                f"{sorted(f.name for f in fields(StoppingRule))}, got {stopping!r}"
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
        return json_fields(self)


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
        return {k: v for k, v in json_fields(self).items() if k != "error" or v is not None}


@dataclass(frozen=True)
class ExperimentResult:
    recovery_rate: float = field(init=False)
    avg_iterations: float = field(init=False)
    records: tuple

    def __post_init__(self):
        n = len(self.records)
        object.__setattr__(self, "recovery_rate", sum(r.recovered for r in self.records) / n)
        object.__setattr__(self, "avg_iterations", sum(r.iterations for r in self.records) / n)

    def to_dict(self) -> dict:
        return {**json_fields(self), "records": [record.to_dict() for record in self.records]}


def _record(trial_index: int, truth, outcome) -> TrialRecord:
    if isinstance(outcome, Exception):
        return TrialRecord(trial_index, False, 0, error=f"{type(outcome).__name__}: {outcome}")
    # off-support entries are exact zeros, so any nonzero block was drawn
    recovered = set(outcome.chosen_indices) == set(block_support(truth, zero_tol=0.0))
    return TrialRecord(trial_index, recovered, outcome.iterations_run)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the batch; recovered means the chosen index set equals the support.

    Trials are drawn one at a time and pursued in chunks of a few, stacked
    into one :func:`run_bomp_batch` call. Per-trial solver failures land in
    the record's error field instead of aborting the batch.
    """
    chunk = max(1, _CHUNK_BYTES // (8 * cfg.m * cfg.layout.ambient_dim))
    records = []
    for start in range(0, cfg.trials, chunk):
        trials = range(start, min(start + chunk, cfg.trials))
        instances = [generate_instance(cfg, k) for k in trials]
        outcomes = run_bomp_batch([problem for problem, _ in instances], cfg.stopping)
        records += [
            _record(k, truth, outcome)
            for k, (_, truth), outcome in zip(trials, instances, outcomes)
        ]
    return ExperimentResult(records=tuple(records))
