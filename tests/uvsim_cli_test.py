#!/usr/bin/env python3
"""CLI contract for every text input of the built tools.

Runs each tool once per hostile value (zero, negative, non-numeric,
non-integral and huge) of each numeric flag, argument and bench environment
variable, once per malformed job-trace line, SLO list, fault plan and
scenario spec, and once per first cache layer with each observer (metrics,
trace, attribution) installed. Every run must exit 0 (the input is valid and the run
completed) or 2 (it was rejected with a message on stderr naming the flag,
argument, variable or key): never a signal, never the exit code 1 of a
failed run, and never a hang. The malformed grammar inputs, the flags that
would select nothing in their mode, and the bench_trajectory values, must
exit 2. A valid uvsim run, single or
--cluster, must exit 0 and state its host cost in exactly one stderr line.

    python3 tests/uvsim_cli_test.py build/tools/uvsim [build/tools/uvfuzz ...]

Each path is recognised by its file name; the cases of the tools given run.
"""
import os
import re
import subprocess
import sys
import tempfile

VALUES = ["0", "-1", "abc", "1e30", "99999999999"]
SINGLE = ["--workload=vpic", "--procs=8", "--steps=1", "--mb=1"]
CLUSTER = ["--cluster", "--jobs=2", "--procs=16"]
TIMEOUT_S = 60

# What a case must do: exit 0 or 2; be rejected (exit 2); or run (exit 0,
# with exactly one host-cost line on stderr).
ANY, REJECT, RUN = "exit 0 or 2", "reject", "run"
COST_LINE = re.compile(r"^uvsim: host \d+\.\d\d s, \d+ events \(\d+\.\d\d M events/s\), "
                       r"peak RSS \d+ MiB$", re.MULTILINE)

# Malformed job-trace lines and the key each one must be rejected for.
JOB_LINES = [
    ("at=0 procs=8abc", "procs"),
    ("at=0.5xyz procs=4", "at"),
    ("at=nan procs=4", "at"),
    ("at=inf procs=4", "at"),
    ("at=0 procs=4 procs=2", "procs"),
    ("at=0 procs=4 mb=17592186044417", "mb"),
    ("at=0 procs=4 ec=7", "ec"),
    ("at=0 procs=4 layer=1", "layer"),
    ("at=0 procs=4 kind=vpic compute=-1", "compute"),
    ("at=0 procs=4 quantum=9", "quantum"),
]
SLOS = [
    ("stretch<=abc", "threshold"),
    ("stretch<=nan", "threshold"),
    ("stretch<=4:fast=nan", "fast"),
    ("stretch<=4:slow=inf", "slow"),
    ("stretch<=4:burn=1e999", "burn"),
    ("stretch<=4:budget=xyz", "budget"),
    ("stretch<=4:budget=0.5,budget=0.1", "budget"),
]
SPECS = [
    ("procs=4 procs=8 mb=1", "procs"),
    ("procs=4 ia=2 mb=1", "ia"),
    ("procs=4 ec=0+0 mb=1", "ec"),
    ("procs=4 osts=16 ec=2147483647+1", "ec"),
    ("procs=4 compute=-1 workload=vpic mb=1", "compute"),
]


def cases(tools, scratch):
    """Yields (tool, argv, extra environment, name an exit 2 must carry on
    stderr, what the case must do: ANY, REJECT or RUN)."""
    if "uvsim" in tools:
        for base in (SINGLE, CLUSTER):
            yield "uvsim", base, {}, "uvsim", RUN
        for flag in ("procs", "mb", "steps", "scrub", "sample-interval", "span-limit"):
            for v in VALUES:
                yield "uvsim", SINGLE + [f"--{flag}={v}"], {}, f"--{flag}", ANY
        for v in VALUES:
            yield "uvsim", SINGLE + ["--ec=2+1", f"--scrub={v}"], {}, "--scrub", ANY
        for v in ["0+1", "1+0", "3x+1", "-1+1", "4+", "99999999999+1", "2147483647+1"]:
            yield "uvsim", SINGLE + [f"--ec={v}"], {}, "--ec", REJECT
        # Flags that would select nothing in a single run: an unknown layer,
        # a scrub with no erasure code, a read-back of a workload with none.
        for flag, name in (("--layer=foo", "--layer"), ("--scrub", "--scrub"),
                           ("--read", "--read")):
            yield "uvsim", SINGLE + [flag], {}, name, REJECT
        yield "uvsim", SINGLE + ["--faults=crash@0.002:node=1,node=0"], {}, "node", REJECT
        # Cluster-only flags select nothing in a single run: each needs --cluster.
        for flag in ("--jobs=2", "--csched=fcfs", "--interarrival=0.5", "--seed=7", "--bb-bound",
                     "--lustre-frac=0.5", "--ec-frac=0.5", "--bb-mb=8", "--osts=2", "--ppn=2",
                     "--solo-jobs=2", "--job-file=/nonexistent", "--job-trace=jt.json", "--slo",
                     "--live"):
            yield "uvsim", SINGLE + [flag], {}, flag.split("=")[0], REJECT
        # Observed runs take the traced leg paths of every layer.
        for layer in ("dram", "bb", "disk"):
            for observer in ("--metrics=m.json", "--trace=t.json", "--attribution"):
                yield "uvsim", SINGLE + [f"--layer={layer}", observer], {}, "--layer", ANY
        for flag in ("procs", "jobs", "interarrival", "seed", "lustre-frac", "ec-frac", "bb-mb",
                     "osts", "ppn", "solo-jobs"):
            for v in VALUES:
                yield "uvsim", CLUSTER + [f"--{flag}={v}"], {}, f"--{flag}", ANY
        for i, (line, key) in enumerate(JOB_LINES):
            path = os.path.join(scratch, f"job{i}.trace")
            with open(path, "w") as f:
                f.write("# hostile line follows\r\n" + line + "\r\n")
            yield "uvsim", ["--cluster", "--procs=16", f"--job-file={path}"], {}, key, REJECT
        for spec, key in SLOS:
            yield "uvsim", CLUSTER + [f"--slo={spec}"], {}, key, REJECT
        # Single-run flags select nothing in a cluster run: each job takes its
        # shape from the mix or the job file, and a scrub needs erasure coding.
        for flag in ("--layer=bb", "--read", "--steps=2", "--mb=8", "--no-ia", "--no-coc",
                     "--no-adpt", "--no-la", "--scrub"):
            yield "uvsim", CLUSTER + [flag], {}, flag.split("=")[0], REJECT
    if "uvfuzz" in tools:
        for flag, base in (("seeds", []), ("base-seed", ["--seeds=2"]), ("seed", []),
                           ("jobs", ["--seeds=2"]), ("time-budget", ["--seeds=2"])):
            for v in VALUES:
                yield "uvfuzz", ["--quiet"] + base + [f"--{flag}={v}"], {}, f"--{flag}", ANY
        for v in VALUES:
            yield "uvfuzz", ["--quiet", "--seeds=2", "-j", v], {}, "-j", ANY
        for spec, key in SPECS:
            yield "uvfuzz", [f"--spec={spec}"], {}, key, REJECT
    if "uvreport" in tools:
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "ci",
                              "golden_report.json")
        for flag in ("rel-tol", "share-tol", "min-seconds"):
            for v in VALUES:
                yield ("uvreport", ["--diff", f"--{flag}={v}", golden, golden], {}, f"--{flag}",
                       ANY)
    if "bench_trajectory" in tools:
        # A valid -j runs the whole bench, so only values it must reject.
        for v in VALUES[1:]:
            yield "bench_trajectory", ["-j", v], {}, "-j", REJECT
    if "fig5a_write_ia_coc" in tools:
        for v in VALUES + ["2000000000", "64"]:
            yield "fig5a_write_ia_coc", [], {"UVS_MAX_PROCS": v}, "UVS_MAX_PROCS", ANY
        for v in VALUES:
            env = {"UVS_MAX_PROCS": "64", "UVS_OBS_DIR": scratch, "UVS_SAMPLE_INTERVAL": v}
            yield "fig5a_write_ia_coc", [], env, "UVS_SAMPLE_INTERVAL", ANY
    if "tier_planner" in tools:
        for lead, name in (([], "file_GiB"), (["64"], "servers"), (["64", "512"], "osts")):
            for v in VALUES + ["2147483647"]:
                yield "tier_planner", lead + [v], {}, name, ANY
    if "vpic_checkpoint" in tools:
        for v in VALUES + ["2147483647"]:
            yield "vpic_checkpoint", [v], {}, "steps", ANY


def main():
    tools = {os.path.basename(path): os.path.abspath(path) for path in sys.argv[1:]}
    failures = []
    runs = 0
    with tempfile.TemporaryDirectory() as scratch:
        for tool, args, env, name, expect in cases(tools, scratch):
            runs += 1
            cmd = [tools[tool]] + args
            shown = " ".join(f"{k}={v}" for k, v in env.items()) + " " + " ".join(cmd)
            try:
                run = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S,
                                     cwd=scratch, env={**os.environ, **env})
            except subprocess.TimeoutExpired:
                failures.append(f"{shown}: no exit within {TIMEOUT_S} s")
                continue
            if run.returncode < 0:
                failures.append(f"{shown}: killed by signal {-run.returncode}")
            elif run.returncode not in (0, 2) or (expect == RUN and run.returncode != 0):
                failures.append(f"{shown}: exit {run.returncode}\n{run.stderr[-500:]}")
            elif expect == RUN and len(COST_LINE.findall(run.stderr)) != 1:
                failures.append(f"{shown}: no single host-cost line on stderr")
            elif run.returncode == 2 and name not in run.stderr:
                failures.append(f"{shown}: exit 2 without naming {name} on stderr")
            elif expect == REJECT and run.returncode != 2:
                failures.append(f"{shown}: accepted a malformed input")
    for failure in failures:
        print(failure)
    print(f"{runs - len(failures)}/{runs} inputs of {', '.join(sorted(tools))} exit as required")
    return 1 if failures or runs == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
