#!/usr/bin/env python3
"""Build and run the live-dataplane benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload small-par4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare A.json B.json

A run configures and builds perfbench/ (the nfp library plus the benchmark
program) into .bench_build/perfbench, runs one workload and prints every
metric by name with its unit. The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ledger. Each run also
writes its result and run metadata to .bench_out/, and a traced run its
spans. --compare prints the change between two such result files and
refuses results taken with different CPU counts.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "nfp_perfbench")
BUILD_TYPE = "RelWithDebInfo"
# A run must end within 180 s; the build of an up-to-date tree takes about
# a second, so the measured part gets the rest.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src; run from a "
            "checkout of the repository")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so stdout carries only the run.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def source_digest():
    """sha256 over the library and benchmark sources; unlike the git
    revision it also identifies a source tree that is not a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def compare(path_a, path_b):
    try:
        with open(path_a) as f:
            a = json.load(f)
        with open(path_b) as f:
            b = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read result file: {e}")
        return 2
    cpus_a = a["meta"].get("online_cpus")
    cpus_b = b["meta"].get("online_cpus")
    if cpus_a != cpus_b:
        log(f"refusing to compare: online_cpus differ ({path_a}: {cpus_a}, "
            f"{path_b}: {cpus_b})")
        return 2
    if a["meta"].get("workload") != b["meta"].get("workload"):
        log("refusing to compare results of different workloads")
        return 2
    print(f"workload {a['meta']['workload']}, online_cpus {cpus_a}")
    print(f"{'metric':28} {'A':>16} {'B':>16} {'B/A-1':>9}")
    ma = a["result"]["metrics"]
    mb = b["result"]["metrics"]
    for name in ma:
        if name not in mb:
            continue
        va, vb = ma[name]["value"], mb[name]["value"]
        rel = f"{vb / va - 1:+.2%}" if va else "-"
        print(f"{name:28} {va:16.6g} {vb:16.6g} {rel:>9}  {ma[name]['unit']}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--self-test", action="store_true",
                    help="check that the output oracle counts a corrupted, "
                         "a missing and a duplicated frame")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return subprocess.run([BINARY, "--self-test"]).returncode

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{stem}.csv")]
    load_at_start = os.getloadavg()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        meta = {}
        for line in lines:
            if line.startswith("meta "):
                meta = json.loads(line[len("meta "):])
    except (IndexError, ValueError):
        log(f"no result (exit code {proc.returncode})")
        return proc.returncode or 1
    if proc.returncode not in (0, 1):
        log(f"benchmark failed with exit code {proc.returncode}")
        return proc.returncode

    meta.update({
        "load_avg_at_start": list(load_at_start),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "seconds": args.seconds,
        "trace": args.trace,
    })
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w") as f:
        json.dump({"meta": meta, "result": result}, f, indent=1)
    for line in lines[:-1]:
        if not line.startswith("meta "):
            print(line)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
