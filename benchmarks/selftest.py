"""Self-test of the benchmark's determinism.

    python3 benchmarks/selftest.py

* Every workload's op list is a function of the seed alone: the same seed
  gives the same list, another seed a different one.
* Two traced runs of an in-process workload with the same seed give
  identical exact per-layer counts (``tracing.EXACT``), bit for bit.

Exits with status 1 and names the mismatch if either fails.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

# --seconds for the op lists and traced runs: small lists, the same checks
SELFTEST_SECONDS = 1


def op_lists_ok():
    sys.path.insert(0, str(run.SRC))
    ok = True
    for name in run.WORKLOAD_NAMES:
        workload = run.load_workload(name, str(run.OUT_DIR))
        first, _ = run.make_ops(workload, 7, SELFTEST_SECONDS)
        again, _ = run.make_ops(workload, 7, SELFTEST_SECONDS)
        other, _ = run.make_ops(workload, 8, SELFTEST_SECONDS)
        same = run.op_list_digest(first) == run.op_list_digest(again)
        differ = run.op_list_digest(first) != run.op_list_digest(other)
        print(f"{name}: seed 7 repeats its op list: {same}; seed 8 differs: {differ}")
        ok = ok and same and differ
    return ok


def traced_exact(name, seed):
    subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(SELFTEST_SECONDS), "--trace", "1"],
                   check=True, stdout=subprocess.DEVNULL, cwd=run.ROOT)
    with open(run.OUT_DIR / f"{name}-seed{seed}-trace1.json") as fh:
        record = json.load(fh)
    return record["exact"], record["op_list_sha256"]


def exact_counts_ok():
    ok = True
    for name in ("scan", "geometry"):
        first = traced_exact(name, 7)
        second = traced_exact(name, 7)
        same = first == second
        print(f"{name}: exact counts repeat for seed 7: {same}")
        if not same:
            for key in first[0]:
                if first[0][key] != second[0][key]:
                    print(f"  {key}: {first[0][key]!r} vs {second[0][key]!r}")
        ok = ok and same
    return ok


def main():
    ok = op_lists_ok()
    ok = exact_counts_ok() and ok
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
