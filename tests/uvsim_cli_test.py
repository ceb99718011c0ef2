#!/usr/bin/env python3
"""CLI contract for uvsim's numeric flags.

Runs the built uvsim once per numeric flag and hostile value (zero,
negative, non-numeric, non-integral and huge) on a small base command.
Every run must exit 0 (the value is valid and the run completed) or 2 (the
value was rejected with a message on stderr): never a signal, never the
exit code 1 of a failed run, and never a hang.

    python3 tests/uvsim_cli_test.py path/to/uvsim
"""
import subprocess
import sys

VALUES = ["0", "-1", "abc", "1e30", "99999999999"]
SINGLE = ["--workload=vpic", "--procs=8", "--steps=1", "--mb=1"]
CLUSTER = ["--cluster", "--jobs=2", "--procs=16"]
CASES = (
    [(SINGLE, flag, v) for flag in ("procs", "mb", "steps", "scrub", "sample-interval",
                                    "span-limit") for v in VALUES]
    + [(SINGLE, "ec", v) for v in ["0+1", "1+0", "3x+1", "-1+1", "4+", "99999999999+1"]]
    + [(CLUSTER, flag, v) for flag in ("procs", "jobs", "interarrival", "seed", "lustre-frac",
                                       "ec-frac", "bb-mb", "osts", "ppn", "solo-jobs")
       for v in VALUES]
)
TIMEOUT_S = 60


def main():
    uvsim = sys.argv[1]
    failures = []
    for base, flag, value in CASES:
        cmd = [uvsim] + base + [f"--{flag}={value}"]
        try:
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(f"{' '.join(cmd)}: no exit within {TIMEOUT_S} s")
            continue
        if run.returncode < 0:
            failures.append(f"{' '.join(cmd)}: killed by signal {-run.returncode}")
        elif run.returncode not in (0, 2):
            failures.append(f"{' '.join(cmd)}: exit {run.returncode}\n{run.stderr[-500:]}")
        elif run.returncode == 2 and f"--{flag}" not in run.stderr:
            failures.append(f"{' '.join(cmd)}: exit 2 without naming --{flag} on stderr")
    for failure in failures:
        print(failure)
    print(f"{len(CASES) - len(failures)}/{len(CASES)} flag values exit 0 or 2")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
