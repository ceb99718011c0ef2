#!/usr/bin/env python3
"""Observing or checking a run must not change it.

Runs `uvsim --workload=workflow --procs=64 --mb=8 --steps=2` on UniviStor and
on Lustre, each plain and with `--metrics`, and requires the workload line
(`producer writes ... | workflow elapsed ...`) to be identical: the sampler
that a metrics file turns on may extend the engine clock, never the workflow.
Then runs a crash-and-recover VPIC run with `--metrics`, with and without
`--check`, and requires the two metrics files to be byte-identical: the
checks' own metadata queries must not be counted into the run's metrics.

    python3 tests/uvsim_observe_test.py build/tools/uvsim
"""
import os
import subprocess
import sys
import tempfile

RUN = ["--workload=workflow", "--procs=64", "--mb=8", "--steps=2"]
CHECKED = ["--workload=vpic", "--procs=64", "--mb=16", "--steps=2",
           "--faults=crash@0.5:node=1", "--recover"]


def workflow_line(uvsim, args, cwd):
    out = subprocess.run([uvsim] + RUN + args, capture_output=True, text=True, timeout=120,
                         cwd=cwd, check=True).stdout
    lines = [line for line in out.splitlines() if line.startswith("producer writes ")]
    return lines[0] if len(lines) == 1 else f"no single workload line in:\n{out}"


def metrics_file(uvsim, args, cwd, name):
    subprocess.run([uvsim] + CHECKED + args + [f"--metrics={name}"], capture_output=True,
                   timeout=120, cwd=cwd, check=True)
    with open(os.path.join(cwd, name), "rb") as f:
        return f.read()


def main():
    uvsim = os.path.abspath(sys.argv[1])
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        for system in ([], ["--system=lustre"]):
            plain = workflow_line(uvsim, system, scratch)
            observed = workflow_line(uvsim, system + ["--metrics=m.json"], scratch)
            name = " ".join(system) or "--system=univistor"
            if plain != observed:
                failures += 1
                print(f"{name}: plain '{plain}' but observed '{observed}'")
            else:
                print(f"{name}: {plain}")
        unchecked = metrics_file(uvsim, [], scratch, "unchecked.json")
        checked = metrics_file(uvsim, ["--check"], scratch, "checked.json")
        if unchecked != checked:
            failures += 1
            print("--check changed the metrics file of the run it checked")
        else:
            print(f"--check: metrics file identical ({len(checked)} bytes)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
