#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark program gdda_perfbench (perfbench/CMakeLists.txt, which
compiles the gdda libraries from src/) into .bench_build/, runs one workload,
and passes its output through. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload lattice_freefall --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke      # self-test of the benchmark itself

Build output goes to stderr. Exit codes: 0 ok, 2 build failed, 3 the run
timed out, otherwise the benchmark program's own exit code.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "gdda_perfbench")
# slope_static runs by hand and in --smoke only: BENCHMARK.json leaves it out
# because every run of it has failed operations (README.md, "Known defect").
WORKLOADS = ("slope_static", "lattice_freefall", "session_fleet")
RUN_TIMEOUT_S = 170
# Thread budget of one run: the lattice's 2-thread step team; the fleet's
# workers run single-threaded jobs.
RUN_ENV = dict(os.environ, OMP_NUM_THREADS="2")


def run_quiet(cmd):
    """Run a build command with its output on stderr; True on success."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"] if shutil.which("ninja") else []
    if not run_quiet(configure):
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs])


def run_bench(args):
    """Run gdda_perfbench once; returns (exit code, stdout text)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, *args, "--work-dir", WORK_DIR]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=RUN_ENV, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"run.py: gdda_perfbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3, ""
    return proc.returncode, out


def last_json(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def smoke():
    """Every named metric printed with its unit; an injected fingerprint
    mismatch counted as a failed operation and an incorrect run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    short = ["--seed", "1", "--seconds", "1"]
    for w in WORKLOADS:
        for trace in (0, 1):
            rc, out = run_bench(["--workload", w, "--trace", str(trace), *short])
            doc = last_json(out)
            if rc != 0 or doc is None:
                problems.append(f"{w} trace={trace}: exit {rc}, no result line")
                continue
            if set(doc) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w} trace={trace}: result keys {sorted(doc)}")
            if doc.get("correct") is not True:
                problems.append(f"{w} trace={trace}: correctness gate failed")
            got = {k: v.get("unit") for k, v in doc.get("metrics", {}).items()}
            if got != expected[trace]:
                problems.append(f"{w} trace={trace}: metrics/units differ from BENCHMARK.json")
            print(f"smoke {w} trace={trace}: {len(got)} metrics", file=sys.stderr)
        rc, out = run_bench(["--workload", w, "--trace", "0", "--inject-mismatch", *short])
        doc = last_json(out)
        if rc != 0 or doc is None:
            problems.append(f"{w} inject: exit {rc}, no result line")
        elif doc["correct"] is not False or doc["failed"] < 1:
            problems.append(f"{w} inject: mismatch not reported ({doc['correct']}, {doc['failed']})")
        else:
            print(f"smoke {w} inject: counted {doc['failed']} failed", file=sys.stderr)
    for p in problems:
        print("smoke FAIL: " + p, file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    rc, out = run_bench(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
