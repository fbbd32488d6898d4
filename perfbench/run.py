#!/usr/bin/env python3
"""perfbench: build and run the repository benchmark (see README.md here).

Run one measurement, from the root of a checkout:

    python3 perfbench/run.py --workload explore_suite --seed 1 --seconds 40 --trace 0

The first run configures and builds the library, hpacd and the driver into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build. The last line of stdout is the result object;
the full result (environment, modeled device time, failures) is kept in
<build>/results/. Other commands:

    python3 perfbench/run.py compare A.json [A2.json ...] -- B.json [B2.json ...]
        medians and quartiles of two sets of full results; refuses to compare
        results whose environments differ.
    python3 perfbench/run.py capture
        re-capture reference.txt (output digests) from the current build.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ("explore_suite", "campaign_fleet", "hpacd_mix")
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(bdir):
    """Configure once, then bring the two binaries up to date."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench", "hpacd"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def driver_command(bdir, workload, seed, seconds, trace, work, doc, capture=False):
    cmd = [
        os.path.join(bdir, "perfbench"),
        "--workload=" + workload,
        "--seed=%d" % seed,
        "--seconds=%g" % seconds,
        "--trace=%d" % trace,
        "--work-dir=" + work,
        "--cache-dir=" + os.path.join(bdir, "cache"),
        "--reference=" + REFERENCE,
        "--hpacd=" + os.path.join(bdir, "hpacd"),
    ]
    if doc:
        cmd.append("--doc=" + doc)
    if capture:
        cmd.append("--capture")
    return cmd


def run_once(args):
    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(bdir, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    doc = os.path.join(bdir, "results", tag + ".json")
    cmd = driver_command(bdir, args.workload, args.seed, args.seconds, args.trace, work, doc)
    # Its own process group, so a timeout also stops the daemons and fleet
    # workers the driver started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def stop_group(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_group)
    signal.signal(signal.SIGINT, stop_group)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group()
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: driver exited with %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


def capture():
    """Record reference digests: every workload's outputs and the engine calls."""
    bdir = build_dir()
    if not build(bdir):
        return 1
    work = os.path.join(bdir, "work", "capture")
    shutil.rmtree(work, ignore_errors=True)
    if os.path.exists(REFERENCE):
        os.remove(REFERENCE)
    # A traced run covers every workload and every engine-call scenario.
    cmd = driver_command(bdir, "explore_suite", 1, 1, 1, work, None, capture=True)
    code = subprocess.run(cmd).returncode
    shutil.rmtree(work, ignore_errors=True)
    return code


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(paths):
    if "--" not in paths:
        print("usage: run.py compare A.json [...] -- B.json [...]", file=sys.stderr)
        return 2
    split = paths.index("--")
    sides = [paths[:split], paths[split + 1:]]
    docs = [[json.load(open(p)) for p in side] for side in sides]
    if not docs[0] or not docs[1]:
        print("compare: each side needs at least one result", file=sys.stderr)
        return 2
    envs = {json.dumps(d["environment"], sort_keys=True) for side in docs for d in side}
    if len(envs) != 1:
        print("compare: refusing to compare results from different environments:",
              file=sys.stderr)
        for env in sorted(envs):
            print("  " + env, file=sys.stderr)
        return 3
    workloads = {d["workload"] for side in docs for d in side}
    if len(workloads) != 1:
        print("compare: results are from different workloads: %s" % sorted(workloads),
              file=sys.stderr)
        return 3
    print("%-44s %14s %14s %9s" % ("metric", "A median", "B median", "B/A"))
    for block, name in [(block, name) for block in ("metrics", "workload_metrics")
                        for name in docs[0][0][block]]:
        if not all(name in d[block] for s in docs for d in s):
            continue
        a = [d[block][name]["value"] for d in docs[0]]
        b = [d[block][name]["value"] for d in docs[1]]
        qa, qb = quartiles(a), quartiles(b)
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        print("%-44s %14.6g %14.6g %9.4f  (A IQR %.3g..%.3g, B IQR %.3g..%.3g)"
              % (name, qa[1], qb[1], ratio, qa[0], qa[2], qb[0], qb[2]))
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    if argv and argv[0] == "capture":
        return capture()
    parser = argparse.ArgumentParser(description="Run one perfbench measurement.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run_once(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
