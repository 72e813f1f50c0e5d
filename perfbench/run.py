#!/usr/bin/env python3
"""Build and run the Chorus benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fileserver --seed 42 --seconds 10 --trace 0

The script builds perfbench/bench.exe with dune (inside the checkout:
the build goes to _build/ and dune's shared cache is disabled), runs it
with the same arguments, and relays its output.  The last line of
stdout is the benchmark's JSON result.  The script checks that the
result names exactly the metrics BENCHMARK.json declares for the mode
(end_to_end for --trace 0, per_layer for --trace 1).

setup_s is measured here, from process start to the first measured
op: the CPU time of a bench.exe process run with --setup-only, which
starts, sets the workload up and exits where measuring would begin.
Like every host time of the benchmark it is scaled to the reference
machine, by `bench.exe --calibrate` processes run just before and just
after each probe.  It is the median of SETUP_PROBES such probes.

Exit status: 0 when a result line was printed, non-zero on a build
failure, a crash, a timeout or a malformed result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["fileserver", "fileserver-steal", "kv-zipf", "chaos"]
# A run measures for --seconds plus set-up and its last repetition.
RUN_LIMIT_S = 150
SETUP_PROBES = 11


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def build():
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled",
           "./perfbench/bench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        return str(e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        return "dune build failed (exit %d)" % proc.returncode
    return None


def calibration():
    """(seconds the calibration work took, its reference seconds)."""
    out = subprocess.run([EXE, "--calibrate"], cwd=ROOT, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    took, ref = out.split()
    return float(took), float(ref)


def setup_seconds(args):
    """Median scaled CPU seconds of processes that only set the workload
    up, or None when a probe fails."""
    times = []
    before, _ = calibration()
    for _ in range(SETUP_PROBES):
        proc = subprocess.Popen(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"], cwd=ROOT, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            return None
        after, ref = calibration()
        cpu = usage.ru_utime + usage.ru_stime
        times.append(cpu * ref / ((before + after) / 2))
        before = after
    return statistics.median(times)


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    err = build()
    if err:
        return fail(err)
    setup = None
    if args.trace == 0:
        setup = setup_seconds(args)
        if setup is None:
            return fail("--setup-only probe failed")
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".perfbench")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_LIMIT_S, text=True)
    except subprocess.TimeoutExpired:
        return fail("benchmark exceeded %d s" % RUN_LIMIT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return fail("bench.exe exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        return fail("last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail("result has keys %s" % sorted(result))
    if setup is not None:
        result["metrics"] = dict(
            [("setup_s", {"value": setup, "unit": "s"})]
            + list(result["metrics"].items()))
        lines[-1] = json.dumps(result)
    declared = declared_metrics(args.trace)
    if declared is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared:
            return fail("metrics differ from BENCHMARK.json: %s"
                        % sorted(set(got.items()) ^ set(declared.items())))
    print("\n".join(lines))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
