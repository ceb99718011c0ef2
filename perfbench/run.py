#!/usr/bin/env python3
"""Benchmark of the UniviStor simulator: host wall time, set-up time and peak
memory of four workloads, plus a traced run that times each layer.

Run from the repository root:

    python3 perfbench/run.py --workload vpic_spill --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (the simulator's libraries
plus the benchmark binary) in Release mode under .bench_build/. Each
measured run is a fresh perfbench_sim process, so its peak resident set,
read here with wait4, belongs to it alone. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they
are the per-layer ones, from pairs of untraced and traced runs of the same
seed. perfbench/README.md explains the workloads and metrics.

Exit status: 0 when every correctness check passed, 1 when a check failed
(the JSON line is still printed), 2 when the benchmark cannot run at all
(no sources, failed build, bad arguments).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench_sim")

DEFAULT_SEED = 1  # README.md also names a held-out seed, never used while tuning

# Shapes of the four workloads. "tiny" is the self-test scale.
WORKLOADS = {
    "vpic_spill": {
        "full": ["--ranks", "1024", "--steps", "10"],
        "tiny": ["--ranks", "128", "--steps", "10"],
    },
    "workflow": {
        "full": ["--ranks", "2048", "--steps", "5"],
        "tiny": ["--ranks", "256", "--steps", "2"],
    },
    "vpic_observed": {
        "full": ["--ranks", "1024", "--steps", "10"],
        "tiny": ["--ranks", "128", "--steps", "10"],
        # Same simulation as vpic_spill: its simulated workload outputs
        # must equal vpic_spill's at the same seed and shape.
        "reference": "vpic_spill",
    },
    "cluster_mix": {
        "full": ["--ranks", "1024", "--jobs", "256"],
        "tiny": ["--ranks", "64", "--jobs", "16"],
    },
}

MIN_RUNS = 3           # measured runs per call, even past --seconds
SETUP_SAMPLES = 25     # set-up timings per call (runs plus set-up-only probes)
SETUP_PROBE_LIMIT_S = 3.0
# Every process this call starts after the build must end within this many
# seconds; a child still running then is killed and counts as failed.
RUN_BUDGET_S = 150.0
deadline = float("inf")
# Exact outputs that only the traced run's driver decorator can see.
DECORATOR_ONLY = ("vmpi.",)
REFERENCE_KEYS = ("workload.",)


class Failure(Exception):
    """The benchmark cannot run (exit status 2)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise Failure(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the benchmark binary from source."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise Failure("simulator sources (src/CMakeLists.txt) not found; "
                      "run from the repository root")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            raise Failure(f"{tool} not found on PATH")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_sim", "-j", jobs])
    with open(log_path, "a") as out:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                raise Failure(f"build step failed ({' '.join(cmd)}):\n{tail}")


def run_child(workload, seed, scale, mode, inject=False):
    """Runs perfbench_sim once; returns its report plus peak RSS (MiB)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--mode", mode]
    cmd += WORKLOADS[workload][scale]
    if inject:
        cmd.append("--inject-violation")
    out_path = os.path.join(BUILD_DIR, "child.stdout")
    err_path = os.path.join(BUILD_DIR, "child.stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        out = f.read()
    with open(err_path) as f:
        stderr = f.read()[-2000:]
    report = None
    if proc.returncode == 0:
        try:
            report = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            report = None
    if report is None:
        report = {"ok": False, "ops": 0, "setup_s": 0.0, "wall_s": 0.0, "exact": {}, "layer": {},
                  "violations": [f"{mode} run exited {proc.returncode}: {stderr.strip()}"]}
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return report


class Checker:
    """Collects correctness violations and operation counts."""

    def __init__(self):
        self.violations = []
        self.attempted = 0
        self.failed = 0

    def run(self, label, report, expected_ops):
        ops = report["ops"] or expected_ops or 1
        self.attempted += ops
        if not report["ok"]:
            self.failed += ops
            for v in report["violations"] or ["run failed"]:
                self.violations.append(f"{label}: {v}")

    def finish(self):
        """A failed check that no single run owns fails every operation."""
        if self.violations and self.failed == 0:
            self.failed = self.attempted
        return not self.violations

    def same(self, label, a, b, keys):
        for key in keys:
            if a.get(key) != b.get(key):
                self.violations.append(f"{label}: {key} differs ({a.get(key)!r} vs {b.get(key)!r})")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure_end_to_end(args, spec, checker):
    name, seed, scale = args.workload, args.seed, args.scale
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < args.seconds:
        report = run_child(name, seed, scale, "run", inject=args.inject_violation)
        checker.run(f"run {len(runs) + 1}", report, runs[0]["ops"] if runs else 0)
        if runs:  # same seed, same exact outputs
            checker.same(f"run {len(runs) + 1} vs run 1", report["exact"], runs[0]["exact"],
                         runs[0]["exact"].keys())
        runs.append(report)
    measured_s = time.monotonic() - start

    setups = [r["setup_s"] for r in runs if r["ok"]]
    probe_start = time.monotonic()
    while len(setups) < SETUP_SAMPLES and time.monotonic() - probe_start < SETUP_PROBE_LIMIT_S:
        probe = run_child(name, seed, scale, "setup")
        if not probe["ok"]:
            checker.run("setup probe", probe, 0)
            break
        setups.append(probe["setup_s"])

    check_reference(args, runs[0], checker)
    checker.finish()

    walls = [r["wall_s"] for r in runs]
    rss = [r["peak_rss_mb"] for r in runs]
    ok_frac = (checker.attempted - checker.failed) / checker.attempted if checker.attempted else 0.0
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(rss),
        "ok_frac": ok_frac,
    }
    print(f"perfbench: workload={name} seed={seed} scale={scale} runs={len(runs)} "
          f"measured={measured_s:.1f}s")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for metric, samples in (("wall_s", walls), ("setup_s", setups), ("peak_rss_mb", rss)):
        q1, q3 = quartiles(samples) if samples else (0.0, 0.0)
        print(f"  {metric:<12} {values[metric]:>12.6g} {units.get(metric, '')}"
              f"  (median of {len(samples)}; q1 {q1:.6g}, q3 {q3:.6g}; seed {seed})")
    failed_frac = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"  {'failed_frac':<12} {failed_frac:>12.6g} ratio  "
          f"({checker.failed} of {checker.attempted} operations failed; seed {seed})")
    print(f"  {'ok_frac':<12} {ok_frac:>12.6g} {units.get('ok_frac', '')}  (1 - failed_frac)")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def check_reference(args, report, checker):
    """vpic_observed must simulate exactly what vpic_spill simulates."""
    reference = WORKLOADS[args.workload].get("reference")
    if reference is None or not report["ok"]:
        return
    ref = run_child(reference, args.seed, args.scale, "run")
    if not ref["ok"]:
        checker.violations.append(f"reference {reference} run failed: {ref['violations']}")
        return
    keys = [k for k in ref["exact"] if k.startswith(REFERENCE_KEYS)]
    checker.same(f"{args.workload} vs {reference}", report["exact"], ref["exact"], keys)


def measure_per_layer(args, spec, checker):
    """Pairs of untraced and traced runs of one seed for --seconds."""
    name, seed, scale = args.workload, args.seed, args.scale
    plains, traceds = [], []
    start = time.monotonic()
    while not plains or time.monotonic() - start < args.seconds:
        n = len(plains) + 1
        plain = run_child(name, seed, scale, "run", inject=args.inject_violation)
        checker.run(f"untraced run {n}", plain, 0)
        traced = run_child(name, seed, scale, "traced", inject=args.inject_violation)
        checker.run(f"traced run {n}", traced, plain["ops"])
        first = plains[0] if plains else plain
        checker.same(f"untraced run {n} vs run 1", plain["exact"], first["exact"],
                     first["exact"].keys())
        keys = [k for k in plain["exact"] if not k.startswith(DECORATOR_ONLY)]
        checker.same(f"traced vs untraced run {n}", traced["exact"], plain["exact"], keys)
        if traceds:
            checker.same(f"traced run {n} vs run 1", traced["exact"], traceds[0]["exact"],
                         traceds[0]["exact"].keys())
        plains.append(plain)
        traceds.append(traced)
    check_reference(args, plains[0], checker)

    def median_of(runs, section, key):
        return statistics.median(r[section].get(key, 0.0) for r in runs)

    values = dict(traceds[0]["exact"])
    for key in traceds[0]["layer"]:
        values[key] = median_of(traceds, "layer", key)
    # The program's own allocations and resident set come from the untraced
    # runs; the decorator and replays would otherwise show up in them.
    for key in ("mem.allocs", "mem.alloc_mb"):
        values[key] = plains[0]["exact"].get(key)
    values["mem.rss_run_mb"] = median_of(plains, "layer", "mem.rss_run_mb")
    values["bench.trace_overhead_s"] = (statistics.median(r["wall_s"] for r in traceds) -
                                        statistics.median(r["wall_s"] for r in plains))

    metrics = {}
    print(f"perfbench: workload={name} seed={seed} scale={scale} traced breakdown "
          f"(host times: median of {len(traceds)} traced runs)")
    for m in spec["per_layer"]:
        value = values.get(m["name"])
        if value is None:
            checker.violations.append(f"per-layer metric {m['name']} was not measured")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<28} {value:>16.8g} {m['unit']}")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small shapes")
    parser.add_argument("--inject-violation", action="store_true",
                        help="self-test only: add a failing invariant to every run")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    global deadline
    try:
        spec = load_spec()
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        checker = Checker()
        if args.trace:
            metrics = measure_per_layer(args, spec, checker)
        else:
            metrics = measure_end_to_end(args, spec, checker)
    except Failure as e:
        log(f"perfbench: {e}")
        return 2

    correct = checker.finish()
    for v in checker.violations[:20]:
        log(f"perfbench: violation: {v}")
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
