#!/usr/bin/env python3
"""Observing a workflow run must not change it.

Runs `uvsim --workload=workflow --procs=64 --mb=8 --steps=2` on UniviStor and
on Lustre, each plain and with `--metrics`, and requires the workload line
(`producer writes ... | workflow elapsed ...`) to be identical: the sampler
that a metrics file turns on may extend the engine clock, never the workflow.

    python3 tests/uvsim_observe_test.py build/tools/uvsim
"""
import os
import subprocess
import sys
import tempfile

RUN = ["--workload=workflow", "--procs=64", "--mb=8", "--steps=2"]


def workflow_line(uvsim, args, cwd):
    out = subprocess.run([uvsim] + RUN + args, capture_output=True, text=True, timeout=120,
                         cwd=cwd, check=True).stdout
    lines = [line for line in out.splitlines() if line.startswith("producer writes ")]
    return lines[0] if len(lines) == 1 else f"no single workload line in:\n{out}"


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
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
