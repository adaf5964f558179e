"""Benchmark of the bomp library: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pursuit_large --seed 0 --seconds 32 --trace 0

The benchmark imports ``bomp`` from ``src/`` of the checkout and drives its
public API in-process, from one single-threaded caller in a closed loop: the
next operation starts when the previous one has returned and its output has
been checked. Inputs are Gaussian and fixed by ``--seed``.

Workloads (one operation each):

* ``pursuit_large``: one ``run_bomp`` solve at (m, M, d, K) = (1024, 512, 4, 64),
  exactly K iterations, noisy; cycles over a few instances generated in
  set-up. Nearly all of its time is the least-squares projection.
* ``mc_small``: one ``run_experiment`` batch of 2000 trials at (24, 6, 2, 2);
  per-trial overhead and the thread-pool fan-out dominate. It runs by hand
  but is left out of ``BENCHMARK.json``: its two pool threads hand the
  interpreter lock back and forth around every small numpy call, so its
  time follows the host's thread wake-up latency. Over two sets of ten
  seeds its 10th percentile spread by 16-18% and moved 23% between sets,
  too close to any bound a later change could be held to. Compare it only
  in alternating pairs of runs.
* ``mc_medium``: one batch of 300 trials at (128, 64, 4, 8), where the pool
  helps rather than hurts.
* ``verify_proofs``: one ``run_proof_verification(300, seed)`` sweep; the only
  workload that reaches ``rip`` and ``proofs``.

``--trace 0`` measures the end-to-end metrics. The result object carries
the three that ``BENCHMARK.json`` bounds: ``op_min_s`` (wall seconds of the
fastest operation), ``setup_s`` (median of several set-ups, each
an import, input generation and one warm-up operation) and ``peak_rss_mb``
(peak resident memory of this fresh process). The median ``op_p50_s``,
``op_tail_s`` (highest percentile with ten samples above it, printed with
that percentile and the sample count), ``items_per_s`` and ``fail_ratio``
are printed and kept in the result file but not bounded: on a shared
two-core machine operation times switch between phases about 1.5x apart
that last seconds to minutes. Over sets of ten seeds the median spread by
up to 36% and the 10th percentile by up to 25%, where the fastest
operation stayed within 15%. ``--trace 1`` runs the
workload untraced for half the time and traced for the other half, and
reports per-layer counts and self times per operation plus
``trace.overhead_s``. Every run prints its environment and a readable
summary, writes the full record to ``perfbench/results/``, and prints the
result object as the last line of standard output.

Every output is checked. At seed 0 (``REF_SEED``) each operation is compared
with the stored reference in ``perfbench/refs/``; on every seed the solver
and proof invariants are checked and each operation must reproduce the
first output for the same input. Neither BLAS threads nor ``BOMP_THREADS``
are pinned, so the library's defaults are what gets measured.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS_DIR = BENCH_DIR / "refs"
RESULTS_DIR = BENCH_DIR / "results"

REF_SEED = 0
SETUP_SAMPLES = 5  # set-ups per run, one in this process and the rest in probes
RESIDUAL_REL_TOL = 1e-9  # final residual norm against the reference, relative
ORTHO_REL_TOL = 1e-9  # |A_S' r| against ||y||
IDENTITY_TOL = 1e-9  # worst relative gap between the two margin routes
TAIL_BEYOND = 10  # samples a reported tail percentile must leave beyond it


class Pursuit:
    """One ``run_bomp`` solve per operation, cycling over pre-built instances."""

    full = dict(m=1024, M=512, d=4, K=64, noise_norm=0.1, instances=3)
    tiny = dict(m=40, M=10, d=2, K=3, noise_norm=0.1, instances=2)

    def __init__(self, bomp, params: dict, seed: int):
        self.bomp = bomp
        p = dict(params)
        self.slots = p.pop("instances")
        self.K = p["K"]
        cfg = bomp.ExperimentConfig(**p, seed=seed)
        self.instances = [bomp.generate_instance(cfg, i) for i in range(self.slots)]
        self.stop = bomp.StoppingRule(mode="fixed_iterations", max_iterations=self.K)
        self.items_per_op = 1

    def op(self, k: int):
        problem, _ = self.instances[k % self.slots]
        return self.bomp.run_bomp(problem, self.stop)

    def record(self, k: int, trace) -> dict:
        return {
            "chosen": list(trace.chosen_indices),
            "final_residual": trace.residual_norms[-1],
        }

    def invariants(self, k: int, trace) -> list:
        import numpy as np

        problem, _ = self.instances[k % self.slots]
        A, y = problem.matrix, problem.observation
        problems = []
        chosen = list(trace.chosen_indices)
        if trace.status != "converged" or trace.iterations_run != self.K:
            problems.append(f"status {trace.status} after {trace.iterations_run} iterations")
        if len(set(chosen)) != len(chosen) or len(chosen) != self.K:
            problems.append(f"chosen blocks {chosen} are not {self.K} distinct blocks")
        norms = trace.residual_norms
        if any(b > a * (1.0 + 1e-12) for a, b in zip(norms, norms[1:])):
            problems.append("residual norm increased")
        scale = float(np.linalg.norm(y))
        r = y - A.entries @ trace.final_estimate.values
        if abs(float(np.linalg.norm(r)) - norms[-1]) > RESIDUAL_REL_TOL * scale:
            problems.append("final residual norm disagrees with the estimate")
        if chosen:
            correlation = float(np.max(np.abs(np.hstack([A.block(i) for i in chosen]).T @ r)))
            if correlation > ORTHO_REL_TOL * scale:
                problems.append(f"residual not orthogonal to chosen blocks ({correlation:.2e})")
        off = np.ones(A.layout.num_blocks, dtype=bool)
        off[np.array(chosen, dtype=int) - 1] = False
        if np.any(self.bomp.block_norms(trace.final_estimate)[off] != 0.0):
            problems.append("estimate is nonzero off the chosen blocks")
        return problems

    @staticmethod
    def compare(got: dict, want: dict) -> list:
        problems = []
        if got["chosen"] != want["chosen"]:
            problems.append(f"chosen blocks {got['chosen']} != {want['chosen']}")
        if abs(got["final_residual"] - want["final_residual"]) > RESIDUAL_REL_TOL * abs(
            want["final_residual"]
        ):
            problems.append(
                f"final residual {got['final_residual']!r} != {want['final_residual']!r}"
            )
        return problems


class Experiment:
    """One ``run_experiment`` batch per operation."""

    def __init__(self, bomp, params: dict, seed: int):
        self.bomp = bomp
        self.cfg = bomp.ExperimentConfig(**params, seed=seed)
        self.slots = 1
        self.items_per_op = self.cfg.trials

    def op(self, k: int):
        return self.bomp.run_experiment(self.cfg)

    def record(self, k: int, result) -> dict:
        return {
            "trials": [[int(r.recovered), r.iterations, r.error] for r in result.records],
        }

    def invariants(self, k: int, result) -> list:
        problems = []
        records = result.records
        if [r.seed_offset for r in records] != list(range(self.cfg.trials)):
            problems.append("records are not one per trial in trial order")
        errors = [r.error for r in records if r.error is not None]
        if errors:
            problems.append(f"{len(errors)} trials failed, first: {errors[0]}")
        if any(r.iterations != self.cfg.K for r in records if r.error is None):
            problems.append(f"a trial did not run exactly K={self.cfg.K} iterations")
        recovered = sum(r.recovered for r in records)
        if result.recovery_rate != recovered / self.cfg.trials:
            problems.append("recovery_rate disagrees with the records")
        return problems

    @staticmethod
    def compare(got: dict, want: dict) -> list:
        if got["trials"] == want["trials"]:
            return []
        diff = sum(a != b for a, b in zip(got["trials"], want["trials"]))
        diff += abs(len(got["trials"]) - len(want["trials"]))
        return [f"{diff} trials differ in recovered, iterations or error"]


class MonteCarloSmall(Experiment):
    full = dict(m=24, M=6, d=2, K=2, trials=2000, noise_norm=0.05)
    tiny = dict(m=24, M=6, d=2, K=2, trials=40, noise_norm=0.05)


class MonteCarloMedium(Experiment):
    full = dict(m=128, M=64, d=4, K=8, trials=300, noise_norm=0.1)
    tiny = dict(m=32, M=8, d=2, K=2, trials=10, noise_norm=0.1)


class Proofs:
    """One ``run_proof_verification`` sweep per operation."""

    full = dict(trials=300)
    tiny = dict(trials=4)
    COUNTS = ("identity_passes", "lemma_passes", "theta_passes")
    FAILURES = ("identity_failures", "lemma_failures", "theta_failures")

    def __init__(self, bomp, params: dict, seed: int):
        self.bomp = bomp
        self.trials = params["trials"]
        self.seed = seed
        self.slots = 1
        self.items_per_op = self.trials

    def op(self, k: int):
        return self.bomp.run_proof_verification(self.trials, self.seed)

    def record(self, k: int, summary) -> dict:
        out = summary.to_dict()
        return {name: out[name] for name in self.COUNTS + self.FAILURES + ("worst_identity_residual",)}

    def invariants(self, k: int, summary) -> list:
        record = self.record(k, summary)
        problems = [f"{name} = {record[name]}" for name in self.FAILURES if record[name] != 0]
        problems += [
            f"{name} = {record[name]} of {self.trials}"
            for name in self.COUNTS
            if record[name] != self.trials
        ]
        if not record["worst_identity_residual"] <= IDENTITY_TOL:
            problems.append(f"worst identity residual {record['worst_identity_residual']:.3e}")
        return problems

    @classmethod
    def compare(cls, got: dict, want: dict) -> list:
        return [
            f"{name} {got[name]} != {want[name]}"
            for name in cls.COUNTS + cls.FAILURES
            if got[name] != want[name]
        ]


WORKLOADS = {
    "pursuit_large": Pursuit,
    "mc_small": MonteCarloSmall,
    "mc_medium": MonteCarloMedium,
    "verify_proofs": Proofs,
}


def check_checkout() -> None:
    if not (SRC / "bomp" / "__init__.py").is_file():
        raise SystemExit(f"error: no bomp sources under {SRC}; run from a bomp checkout")


def import_bomp():
    """Import ``bomp`` from this checkout's ``src/``, never from elsewhere."""
    check_checkout()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bomp

    if Path(bomp.__file__).resolve().parent != SRC / "bomp":
        raise SystemExit(f"error: imported bomp from {bomp.__file__}, not from {SRC}")
    return bomp


def setup(name: str, size: str, seed: int):
    """Import, generate the workload's inputs and run one warm-up operation.

    Returns (seconds taken, workload, warm-up output or exception).
    """
    start = time.perf_counter()
    bomp = import_bomp()
    cls = WORKLOADS[name]
    workload = cls(bomp, getattr(cls, size), seed)
    try:
        warm = workload.op(0)
    except Exception as exc:  # reported as a failed operation
        warm = exc
    return time.perf_counter() - start, workload, warm


def probe_setup(name: str, size: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured by that interpreter."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", name, "--seed", str(seed), "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Checker:
    """Checks each operation's output and keeps the failure tally."""

    def __init__(self, workload, name: str, size: str, seed: int):
        self.workload = workload
        self.first: dict = {}
        self.reference = None
        path = REFS_DIR / f"{name}.json"
        if seed == REF_SEED and size == "full":
            stored = json.loads(path.read_text())
            if stored["params"] != type(workload).full:
                raise SystemExit(f"error: {path} was made for other parameters")
            self.reference = stored["records"]
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def check(self, k: int, output) -> bool:
        self.attempted += 1
        if isinstance(output, Exception):
            problems = [f"raised {type(output).__name__}: {output}"]
        else:
            w = self.workload
            record = w.record(k, output)
            slot = k % w.slots
            problems = w.invariants(k, output)
            if slot in self.first:
                problems += [f"not reproducible: {p}" for p in w.compare(record, self.first[slot])]
            else:
                self.first[slot] = record
            if self.reference is not None:
                problems += [f"reference: {p}" for p in w.compare(record, self.reference[slot])]
        if problems:
            self.failed += 1
            self.problems.append({"op": k, "problems": problems[:5]})
        return not problems


def closed_loop(workload, checker: Checker, first_k: int, seconds: float, tracer=None):
    """Run operations back to back for ``seconds``; return times and span summaries."""
    import spans

    times, layers = [], []
    k = first_k
    deadline = time.perf_counter() + seconds
    # stop before an operation of average length would overrun the deadline
    while not times or time.perf_counter() + sum(times) / len(times) <= deadline:
        root = tracer.open_root() if tracer else None
        start = time.perf_counter()
        try:
            output = workload.op(k)
        except Exception as exc:  # a failing operation is counted, not fatal
            output = exc
        times.append(time.perf_counter() - start)
        summary = spans.summarize(tracer.close_root(root)) if tracer else None
        if checker.check(k, output) and summary is not None:
            layers.append(summary)
        k += 1
    return times, layers


def tail(times: list) -> tuple:
    """Highest percentile that leaves ``TAIL_BEYOND`` samples above it.

    Returns (value, percentile, sample count). Below 20 samples this
    percentile is at or under the median; with too few samples for any
    percentile to qualify, the maximum is reported at percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    i = n - TAIL_BEYOND - 1
    return ordered[i], 100.0 * (i + 1) / n, n


def blas_threads() -> int | None:
    """Thread count OpenBLAS will use, read from the library numpy loaded."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "BOMP_THREADS": os.environ.get("BOMP_THREADS", "unset"),
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def per_layer(layers: list, untraced: list, traced: list) -> tuple:
    """Per-operation layer metrics from the traced operations.

    Times are medians over operations; exact counts must repeat on every
    operation, and any that does not is returned as a problem.
    """
    import spans

    metrics, problems = {}, []
    for name in spans.DETERMINISTIC:
        values = {summary[name] for summary in layers}
        if len(values) > 1:
            problems.append(f"{name} differs between operations: {sorted(values)}")
        metrics[name] = (layers[0][name] if layers else 0, "count")
    metrics["experiment.threads_seen"] = (
        max((s["experiment.threads_seen"] for s in layers), default=0), "count")
    for layer in spans.SELF_TIMES:
        name = f"{layer}.self_s"
        metrics[name] = (statistics.median(s[name] for s in layers) if layers else 0.0, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return metrics, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Measure one workload and return the full result record."""
    # the traced run reports no set-up time, so it skips the probes
    probes = 0 if trace else SETUP_SAMPLES - 1
    setup_samples = [probe_setup(name, size, seed) for _ in range(probes)]
    own_setup, workload, warm = setup(name, size, seed)
    setup_samples.append(own_setup)
    checker = Checker(workload, name, size, seed)
    checker.check(0, warm)

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "size": size, "environment": environment(),
              "setup_samples_s": setup_samples}
    if not trace:
        times, _ = closed_loop(workload, checker, 1, seconds)
        metrics = {
            "op_min_s": (min(times), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        tail_value, tail_pct, n = tail(times)
        record.update(
            op_times_s=times, op_tail_percentile=tail_pct, op_samples=n,
            unbounded={
                "op_p50_s": {"value": statistics.median(times), "unit": "s"},
                "op_tail_s": {"value": tail_value, "unit": "s"},
                "items_per_s": {"value": workload.items_per_op * len(times) / sum(times),
                                "unit": "1/s"},
            },
        )
    else:
        import spans

        untraced, _ = closed_loop(workload, checker, 1, seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, layers = closed_loop(workload, checker, 1 + len(untraced), seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics, problems = per_layer(layers, untraced, traced)
        if problems:
            checker.failed += 1
            checker.problems.append({"op": "traced run", "problems": problems})
        record.update(untraced_op_times_s=untraced, traced_op_times_s=traced)

    record.update(
        attempted=checker.attempted,
        failed=checker.failed,
        fail_ratio=checker.failed / checker.attempted,
        reference_checked=checker.reference is not None,
        problems=checker.problems[:20],
        metrics={key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    )
    return record


def report(record: dict) -> None:
    env = record["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} operations, {record['failed']} failed, "
          f"fail_ratio {record['fail_ratio']:.4g}, "
          f"reference {'checked' if record['reference_checked'] else 'not used (invariants only)'}")
    if "op_samples" in record:
        print(f"op_tail_s is the p{record['op_tail_percentile']:.1f} of "
              f"{record['op_samples']} operations")
    for entry in record["problems"]:
        print(f"  failed op {entry['op']}: {'; '.join(entry['problems'])}")
    for key, metric in {**record.get("unbounded", {}), **record["metrics"]}.items():
        value = metric["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {key:34s} {shown} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REF_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same workload shape at toy size, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    if args.setup_probe:
        seconds, _, warm = setup(args.workload, args.size, args.seed)
        if isinstance(warm, Exception):
            raise warm
        print(json.dumps({"setup_s": seconds}))
        return 0

    check_checkout()
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    report(record)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
