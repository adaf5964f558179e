"""Write every listed CLI output into one directory, so two runs compare by ``diff -r``.

    python scripts/cli_outputs.py OUTDIR

``bomp`` must be importable (installed, or ``PYTHONPATH=src``). The script
writes its inputs into OUTDIR first: a seed-0 Gaussian system at (m, M, d) =
(128, 64, 4) with 8 supported blocks, its observation scaled by 2^-600 (the
unscaled squares of the residual underflow) and by 2^400, its dictionary
scaled by 2^-600 and by 2^600 with the observation as drawn (the unscaled
squares of the scores underflow and overflow), and two experiment configs.
It then runs each command in this process and writes what the command
prints, or the file it writes, next to them: ``run``, ``trace``, ``both``,
``tiny``, ``huge``, ``tiny_dictionary``, ``huge_dictionary``,
``experiment``, ``threshold``, ``proofs``, ``rip_exact`` and
``rip_sample``, plus ``large``, the trace of 64
fixed picks on the seed-0 instance at (1024, 512, 4), which the float32
screen scores, and ``draws``, the sha256 of the dictionary, observation and
truth bytes of trials 0 to 3 of the experiment config and of one proof-sweep
instance, so a draw whose bits move shows even where no recovery does. No
output names a path, so the directories of two runs, under two BLAS thread
counts or from two checkouts, match byte for byte when the outputs do.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from bomp import BlockedMatrix, BlockLayout, ExperimentConfig, StoppingRule
from bomp import generate_instance, run_bomp
from bomp.cli import main as bomp_main
from bomp.core import gaussian_instance
from bomp.io import save_matrix, save_vector


def write_inputs(out: Path) -> None:
    rng = np.random.default_rng(0)
    m, M, d = 128, 64, 4
    entries = rng.normal(size=(m, M * d)) / np.sqrt(m)
    x = np.zeros(M * d)
    x[: 8 * d] = rng.normal(size=8 * d) + 2.0
    y = entries @ x + 0.1 * rng.normal(size=m) / np.sqrt(m)
    for name, j in (("A", 0), ("A_tiny", -600), ("A_huge", 600)):
        scaled = BlockedMatrix(BlockLayout(M, d), np.ldexp(entries, j))
        save_matrix(out / f"{name}.csv", scaled, out / "layout.json")
    save_vector(out / "y.csv", y)
    save_vector(out / "y_tiny.csv", y * 2.0**-600)
    save_vector(out / "y_huge.csv", y * 2.0**400)
    config = {"m": 128, "M": 64, "d": 4, "K": 8, "trials": 300, "noise_norm": 0.1, "seed": 0}
    (out / "experiment_config.json").write_text(json.dumps(config))
    # trials stop at 11 to 21 picks: the kernel finishes its stack step by step
    threshold = {
        "m": 64, "M": 64, "d": 1, "K": 8, "trials": 40, "noise_norm": 0.1, "seed": 3,
        "stopping": {"mode": "residual_threshold", "epsilon": 0.07},
    }
    (out / "threshold_config.json").write_text(json.dumps(threshold))


def run_cli(out: Path, name: str | None, *argv: str) -> None:
    """``bomp argv``, its standard output written to ``name.json`` unless
    ``name`` is None; SystemExit unless it exits 0."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = bomp_main(list(argv))
    if code != 0:
        raise SystemExit(f"bomp {' '.join(argv)} exited {code}")
    if name is not None:
        (out / f"{name}.json").write_text(printed.getvalue())


def write_outputs(out: Path) -> None:
    layout = ["--layout", str(out / "layout.json")]
    system = ["--matrix", str(out / "A.csv"), *layout]
    for name, dictionary, obs, stop in (
        ("run", "A", "y", ["--max-iter", "8", "--trace", str(out / "trace.json")]),
        ("both", "A", "y", ["--epsilon", "0.05", "--max-iter", "20"]),
        ("tiny", "A", "y_tiny", ["--max-iter", "8"]),
        ("huge", "A", "y_huge", ["--max-iter", "8"]),
        ("tiny_dictionary", "A_tiny", "y", ["--max-iter", "8"]),
        ("huge_dictionary", "A_huge", "y", ["--max-iter", "8"]),
    ):
        matrix = ["--matrix", str(out / f"{dictionary}.csv"), *layout]
        run_cli(out, name, "run", *matrix, "--obs", str(out / f"{obs}.csv"), *stop)
    for name in ("experiment", "threshold"):
        config = ["--config", str(out / f"{name}_config.json")]
        run_cli(out, None, "experiment", *config, "--out", str(out / f"{name}.json"))
    run_cli(out, "proofs", "verify-proofs", "--trials", "100", "--seed", "0")
    run_cli(out, "rip_exact", "rip", *system, "--order", "2", "--exact")
    run_cli(out, "rip_sample", "rip", *system, "--order", "3", "--sample", "2000", "--seed", "0")

    large = ExperimentConfig(m=1024, M=512, d=4, K=64, noise_norm=0.1, seed=0)
    problem, _ = generate_instance(large, 0)
    trace = run_bomp(problem, StoppingRule("fixed_iterations", max_iterations=64))
    (out / "large.json").write_text(json.dumps(trace.to_dict()))

    config = ExperimentConfig.load(out / "experiment_config.json")
    draws = {f"trial {k}": digests(*generate_instance(config, k)) for k in range(4)}
    proof_draw = gaussian_instance(np.random.default_rng(0), BlockLayout(6, 2), 60, 3, 0.25)
    draws["proof sweep"] = digests(*proof_draw)
    (out / "draws.json").write_text(json.dumps(draws, indent=1))


def digests(problem, truth) -> dict:
    """The sha256 of an instance's dictionary, observation and truth bytes."""
    arrays = {
        "entries": problem.matrix.entries,
        "observation": problem.observation,
        "truth": truth.values,
    }
    return {name: hashlib.sha256(arr.tobytes()).hexdigest() for name, arr in arrays.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/cli_outputs.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    write_inputs(out)
    write_outputs(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
