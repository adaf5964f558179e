"""Write the reference outputs the benchmark compares against at seed 0.

    python3 perfbench/make_refs.py [workload ...]

Each file in ``perfbench/refs/`` holds the checked record of every distinct
input of one workload at full size and ``REF_SEED``. Regenerate only when a
change is meant to alter the library's outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run


def main(names) -> int:
    run.REFS_DIR.mkdir(exist_ok=True)
    for name in names or sorted(run.WORKLOADS):
        _, workload, _ = run.setup(name, "full", run.REF_SEED)
        records = []
        for k in range(workload.slots):
            output = workload.op(k)
            problems = workload.invariants(k, output)
            if problems:
                raise SystemExit(f"{name}: output {k} fails its invariants: {problems}")
            records.append(workload.record(k, output))
        path = run.REFS_DIR / f"{name}.json"
        path.write_text(json.dumps({
            "workload": name,
            "seed": run.REF_SEED,
            "params": type(workload).full,
            "records": records,
        }) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
