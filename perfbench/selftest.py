#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale. Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that
  * an untraced call prints every end-to-end metric of BENCHMARK.json with
    its unit, exits 0 and reports correct;
  * two traced calls print every per-layer metric with its unit, and every
    exact value (counts, simulated outputs, heap figures) repeats bit for
    bit between them;
  * a failing correctness check (--inject-violation) makes the command exit
    non-zero with correct=false and every operation failed.
It also checks that the benchmark refuses to run, without printing a
result, from a copy that holds only BENCHMARK.json and perfbench/.
Exits 0 when all checks pass.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("vpic_spill", "workflow", "vpic_observed", "cluster_mix")
SEED = 3
# Host-measured per-layer metrics; every other per-layer value is exact.
HOST_UNITS = ("s", "ns")
HOST_METRICS = ("mem.rss_run_mb",)


def bench(cwd, workload, trace, *extra):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
           *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(condition, message):
        if not condition:
            failures.append(message)
            print(f"FAIL {message}", flush=True)

    def has_all(result, metrics, label):
        for m in metrics:
            got = result["metrics"].get(m["name"]) if result else None
            expect(got is not None and got.get("unit") == m["unit"]
                   and isinstance(got.get("value"), (int, float)),
                   f"{label}: metric {m['name']} missing or without unit {m['unit']}")

    for workload in WORKLOADS:
        rc, result, err = bench(ROOT, workload, 0)
        expect(rc == 0 and result is not None and result["correct"],
               f"{workload} untraced: rc={rc} result={result} stderr={err[-500:]}")
        has_all(result, spec["end_to_end"], f"{workload} untraced")

        traced = []
        for attempt in (1, 2):
            rc, result, err = bench(ROOT, workload, 1)
            expect(rc == 0 and result is not None and result["correct"],
                   f"{workload} traced #{attempt}: rc={rc} stderr={err[-500:]}")
            has_all(result, spec["per_layer"], f"{workload} traced #{attempt}")
            traced.append(result)
        if all(traced):
            for m in spec["per_layer"]:
                if m["unit"] in HOST_UNITS or m["name"] in HOST_METRICS:
                    continue
                a = traced[0]["metrics"].get(m["name"], {}).get("value")
                b = traced[1]["metrics"].get(m["name"], {}).get("value")
                expect(a == b, f"{workload}: exact metric {m['name']} differs ({a} vs {b})")

        rc, result, err = bench(ROOT, workload, 0, "--inject-violation")
        expect(rc != 0, f"{workload}: an injected violation exited 0")
        expect(result is not None and not result["correct"]
               and result["failed"] == result["attempted"] > 0,
               f"{workload}: an injected violation did not fail every operation: {result}")
        print(f"ok   {workload}", flush=True)

    # A copy with nothing but the benchmark must refuse to run.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, result, _ = bench(bare, "vpic_spill", 0)
    expect(rc != 0 and result is None, f"bare copy: rc={rc} result={result}")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: " + ("FAILED" if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
