"""Seeded Monte Carlo recovery experiments.

Instances are generated from a counter-based stream keyed by
``(seed, trial_index)``, and the pursuit's outcome for a trial does not
depend on the trials batched with it, so a result is a pure function of the
config. A batch draws each chunk of trials straight into stacks of
dictionaries, observations and truths, as ``generate_instance`` draws one,
and the pursuit kernel reads them in place. The fixed costs are paid per
chunk where the outputs allow it: the kernel finishes together every trial
that stops at a step, and a chunk's recovered flags come from one pass over
its truths. Each trial still draws from its own stream, but its K directions
come from one call. On dictionaries of ``_SPLIT_ENTRIES`` entries or more, a
chunk's draws are split into contiguous shares, one per CPU the process may
run on: the calling thread draws the first and a pool, which lives for one
batch, the others. Each trial's generator and slices belong to one share,
which checks them, so no output bit depends on the CPU count, the share
count or the chunk size. Aggregation is a plain fold in trial-index order.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .core import (
    MAX_ARRAY_DOUBLES,
    BlockLayout,
    _check_finite,
    _draw_gaussian,
    _instance,
    as_int,
    as_real,
)
from .io import checked_keys, json_fields, load_json_object
from .solver import FIXED_ITERATIONS, StoppingRule, _pursue, _stacked_norms

# bytes of the one stack of dictionaries a batch draws into and pursues: 16
# trials at m=128, n=256. Per-call overhead, not flops, bounds the pursuit
# there, so larger stacks are faster: with the draw split over two CPUs, 300
# such trials took a median of minimum op times of 150 ms in 16-trial stacks
# against 172 ms in the 8-trial stacks of 2^21 bytes, lower in 8 of 8
# alternating pairs of processes (2-vCPU x86_64, numpy 2.4.6, 2 BLAS threads;
# the serial draw had given 283 against 320 ms). The stacks are the only copy
# of each instance; observations and truths add m + n doubles a trial, 1.2%
# more at (128, 64, 4). mc_medium's peak RSS rose 3.0 MB (7.1%, BENCH_24.json)
# with the stacked finish, about 2.7 MB of it for the larger stack, inside its
# 0.1 bound. A 32-trial stack would add about 6 MB and break it.
_CHUNK_BYTES = 1 << 22
# A chunk's draws are split into one contiguous share per CPU when each
# trial's dictionary has at least this many entries; below it the calling
# thread draws them all. standard_normal releases the interpreter lock while
# it fills a dictionary, but a draw's other calls hold it, so on small
# dictionaries the shares wait on each other. Minimum op time of
# run_experiment, split on two CPUs against the serial draw, median of 4
# alternating pairs of processes (same host), noise_norm 0.05, seed 0,
# entries per trial in brackets:
#   (24, 6, 2), K=2, 2000 trials      [288]  0.135 -> 0.207 s  +54%
#   (32, 16, 2), K=2, 1000 trials    [1024]  0.086 -> 0.118 s  +38%
#   (64, 32, 2), K=2, 600 trials     [4096]  0.068 -> 0.071 s   +4%
#   (64, 32, 2), K=8, 600 trials     [4096]  0.094 -> 0.099 s   +5%
#   (96, 32, 2), K=2, 600 trials     [6144]  0.098 -> 0.085 s  -14%
#   (128, 32, 2), K=2, 600 trials    [8192]  0.111 -> 0.085 s  -24%
#   (64, 64, 2), K=4, 600 trials     [8192]  0.118 -> 0.091 s  -22%
#   (64, 64, 4), K=4, 300 trials    [16384]  0.102 -> 0.072 s  -30%
#   (128, 64, 4), K=8, 300 trials   [32768]  0.205 -> 0.154 s  -25%
# The cross-over lies between 2^12 and 6144 entries; the gate sits at the
# first power of two past it.
_SPLIT_ENTRIES = 1 << 13


def _keys(cls) -> tuple[set, set]:
    """The field names of the dataclass ``cls``, and those without a default."""
    names = fields(cls)
    return {f.name for f in names}, {f.name for f in names if f.default is MISSING}


@dataclass(frozen=True)
class ExperimentConfig:
    """Batch description. JSON config files mirror these field names.

    Every trial draws its own Gaussian instance (see ``generate_instance``).
    Counts are positive integers, K at most M and m // d, ``seed`` and
    ``noise_norm`` nonnegative, ``min_block_norm`` positive; ``stopping`` None
    means exactly K iterations.
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
        for name in ("m", "M", "d", "trials"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        # K blocks, and K*d <= m, so least squares on the support is determined
        K = as_int(self.K, "K", maximum=min(self.M, self.m // self.d))
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "seed", as_int(self.seed, "seed", minimum=0))
        for name, positive in (("noise_norm", False), ("min_block_norm", True)):
            object.__setattr__(self, name, as_real(getattr(self, name), name, positive))
        as_int(self.m * self.M * self.d, "the dictionary size m*M*d", maximum=MAX_ARRAY_DOUBLES)
        if self.stopping is None:
            object.__setattr__(
                self,
                "stopping",
                StoppingRule(mode=FIXED_ITERATIONS, max_iterations=self.K),
            )
        elif not isinstance(self.stopping, StoppingRule):
            raise ValueError(
                f"stopping must be an object with keys "
                f"{sorted(f.name for f in fields(StoppingRule))}, got {self.stopping!r}"
            )

    @property
    def layout(self) -> BlockLayout:
        return BlockLayout(self.M, self.d)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config a JSON object describes; ``stopping`` is an object too."""
        data = dict(checked_keys(data, *_keys(cls), "config"))
        stopping = data.get("stopping")
        if isinstance(stopping, dict):
            stopping = checked_keys(stopping, *_keys(StoppingRule), "stopping")
            data["stopping"] = StoppingRule(**stopping)
        return cls(**data)

    @classmethod
    def load(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        """Read a JSON config file; entries in ``overrides`` win."""
        data = load_json_object(path, "config")
        data.update(overrides or {})
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return json_fields(self)


def _unit_directions(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """``count`` random unit vectors in R^d, as rows, drawn from ``rng`` as
    ``count`` calls of ``rng.normal(size=d)`` would draw them, each call
    repeated while it gives a zero vector: the nonzero rows keep their order
    and a zero row's redraw comes after them. Each norm is its own dot
    product, the form ``np.linalg.norm`` takes for one vector, so every row
    has the bits of a single draw's ``g / np.linalg.norm(g)``."""
    rows = rng.normal(size=(count, d))
    norms = _stacked_norms(rows)
    while not (norms > 0.0).all():
        kept = rows[norms > 0.0]
        rows = np.concatenate([kept, rng.normal(size=(count - len(kept), d))])
        norms = _stacked_norms(rows)
    return rows / norms[:, None]


def generate_instance(cfg: ExperimentConfig, trial_index: int):
    """Build the Gaussian instance for one trial; returns (problem, truth).

    Drawn as :func:`gaussian_instance` draws: i.i.d. matrix entries of variance
    1/m; uniform random size-K block support; supported blocks are random
    directions with norms at least
    min_block_norm and the smallest norm equal to it exactly; noise rescaled
    to the exact norm noise_norm. Everything is a pure function of
    (seed, trial_index). Raises ValueError naming min_block_norm and
    noise_norm when the draw overflows double precision.
    """
    return _instance(cfg.layout, cfg.m, _draw_trial, cfg, trial_index)


def _draw_trial(cfg: ExperimentConfig, trial_index: int, out) -> None:
    """The draw of :func:`generate_instance`, written into ``out``, the
    (dictionary, observation, truth) triple :func:`_draw_gaussian` fills,
    unchecked for finiteness."""
    trial_index = as_int(trial_index, "trial_index", minimum=0)

    def floored_blocks(rng, count):
        excess = np.abs(rng.normal(size=count))
        excess[int(np.argmin(excess))] = 0.0
        return (cfg.min_block_norm * (1.0 + excess))[:, None] * _unit_directions(rng, count, cfg.d)

    rng = np.random.default_rng((cfg.seed, trial_index))
    # the block norms and the noise are the only draws that can overflow
    try:
        with np.errstate(over="raise"):
            _draw_gaussian(rng, cfg.layout, cfg.K, floored_blocks, cfg.noise_norm, out)
    except FloatingPointError:
        raise ValueError(
            f"min_block_norm {cfg.min_block_norm:g} and noise_norm {cfg.noise_norm:g} "
            f"overflow double precision in trial {trial_index}"
        ) from None


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


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _draw_share(cfg: ExperimentConfig, trials: range, stacks) -> None:
    """The draws of ``trials`` in order, each into its slices of ``stacks``
    and checked as a BlockedMatrix and a SensingProblem check theirs."""
    for k, *out in zip(trials, *stacks):
        _draw_trial(cfg, k, out)
        _check_finite(out[0], "matrix")
        _check_finite(out[1], "observation")


def _draw_chunk(cfg, trials, stacks, shares, pool) -> None:
    """The draws of ``trials`` into the first slices of ``stacks``, in up to
    ``shares`` contiguous shares: the first on this thread, the others on
    ``pool``. Shares are read in order, so the lowest failing trial raises."""
    shares = min(shares, len(trials))
    cuts = [len(trials) * i // shares for i in range(shares + 1)]
    helpers = [
        pool.submit(_draw_share, cfg, trials[a:b], [stack[a:b] for stack in stacks])
        for a, b in zip(cuts[1:], cuts[2:])
    ]
    _draw_share(cfg, trials[: cuts[1]], [stack[: cuts[1]] for stack in stacks])
    for helper in helpers:
        helper.result()


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the batch; recovered means the chosen index set equals the support.

    ``_CHUNK_BYTES`` of dictionaries, and the observations and truths of as
    many trials, are allocated once per batch and reused for every chunk:
    each trial draws its instance straight into its slices, and the pursuit
    kernel reads the filled stacks in place. At ``_SPLIT_ENTRIES`` entries
    per dictionary or more, a chunk's draws are split into one contiguous
    share per CPU in the process's affinity mask, at most one per trial; the
    calling thread draws the first share and a thread pool that ends with
    the call draws the rest. Below it no thread is started. A chunk's
    supports are read off its truths in one pass. Per-trial solver failures
    land in the record's error field, with the picks made before the refusal
    as its iterations; a draw that overflows or is not finite raises the
    ValueError of the lowest such trial, whatever the shares.
    """
    # imported here, so a process that runs no batch does not load it and
    # the logging module it imports: about 8 ms and half a MB of peak RSS
    from concurrent.futures import ThreadPoolExecutor

    n = cfg.layout.ambient_dim
    chunk = min(cfg.trials, max(1, _CHUNK_BYTES // (8 * cfg.m * n)))
    shares = min(chunk, _cpu_count()) if cfg.m * n >= _SPLIT_ENTRIES else 1
    stacks = (np.empty((chunk, cfg.m, n)), np.empty((chunk, cfg.m)), np.empty((chunk, n)))
    records = []
    # the pool starts a thread only when a share is submitted to it
    with ThreadPoolExecutor(max(1, shares - 1)) as pool:
        for start in range(0, cfg.trials, chunk):
            trials = range(start, min(start + chunk, cfg.trials))
            _draw_chunk(cfg, trials, stacks, shares, pool)
            entries, observations, truths = (stack[: len(trials)] for stack in stacks)
            outcomes = _pursue(entries, observations, cfg.layout, cfg.stopping)
            # off-support entries are exact zeros, so any nonzero block was drawn
            support = (truths.reshape(-1, cfg.M, cfg.d) != 0.0).any(axis=2)
            chosen = np.zeros_like(support)
            for t, outcome in enumerate(outcomes):
                if not isinstance(outcome, Exception):
                    chosen[t, np.array(outcome.chosen_indices, dtype=int) - 1] = True
            recovered = (chosen == support).all(axis=1)
            records += [
                TrialRecord(
                    k, False, outcome.iterations_run, error=f"{type(outcome).__name__}: {outcome}"
                )
                if isinstance(outcome, Exception)
                else TrialRecord(k, bool(ok), outcome.iterations_run)
                for k, outcome, ok in zip(trials, outcomes, recovered)
            ]
    return ExperimentResult(records=tuple(records))
