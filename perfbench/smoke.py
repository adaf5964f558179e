"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at toy size, untraced once and traced twice, and fails
unless: every operation passes its checks; the emitted metric names are
exactly those in ``BENCHMARK.json``; two traced runs give identical exact
counts; and after each traced run every ``bomp`` module binds the same
objects it bound before. It also runs the command line once in the
checkout, and once in a copy holding only the benchmark, where it must
exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import spans

SEED = 1
SECONDS = 0.3


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke test failed: {message}")


def bomp_bindings() -> dict:
    return {
        (module_name, attribute): value
        for module_name, module in list(sys.modules.items())
        if module is not None and (module_name == "bomp" or module_name.startswith("bomp."))
        for attribute, value in vars(module).items()
    }


def cli(cwd: Path, script: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(script), "--workload", "mc_small", "--seed", str(SEED),
           "--seconds", str(SECONDS), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = sorted(metric["name"] for metric in spec["end_to_end"])
    per_layer = sorted(metric["name"] for metric in spec["per_layer"])

    run.import_bomp()
    before = bomp_bindings()
    for name in run.WORKLOADS:
        record = run.run_workload(name, SEED, SECONDS, trace=False, size="tiny")
        check(record["failed"] == 0, f"{name}: {record['problems']}")
        check(sorted(record["metrics"]) == end_to_end, f"{name}: untraced metric names")
        counts = []
        for _ in range(2):
            record = run.run_workload(name, SEED, SECONDS, trace=True, size="tiny")
            check(record["failed"] == 0, f"{name} traced: {record['problems']}")
            check(sorted(record["metrics"]) == per_layer, f"{name}: traced metric names")
            check(not spans.traced_bindings(), f"{name}: wrappers left {spans.traced_bindings()}")
            after = bomp_bindings()
            changed = [key for key in before if after.get(key) is not before[key]]
            check(not changed, f"{name}: bindings not restored: {changed}")
            counts.append({key: record["metrics"][key]["value"] for key in spans.DETERMINISTIC})
        check(counts[0] == counts[1], f"{name}: traced counts differ: {counts}")
        print(f"{name}: ok")

    proc = cli(run.ROOT, Path(run.__file__))
    check(proc.returncode == 0, f"command line failed: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] and result["attempted"] >= 1, "command line result")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, Path(bare) / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = cli(Path(bare), Path(bare) / run.BENCH_DIR.name / "run.py")
        check(proc.returncode != 0, "ran without bomp sources")
        check('"metrics"' not in proc.stdout, "printed a result without bomp sources")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
