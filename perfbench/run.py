#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
harness and the repository libraries it links into $CARGO_TARGET_DIR
(default .bench_build); later runs only rebuild what changed. Build
output goes to stderr. The harness's stdout is passed through; its
last line is the JSON result, checked here against the metric names
and units BENCHMARK.json declares for the chosen trace mode.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ladder_ise", "ladder_ca", "service_sign_burst",
             "service_mixed_paced")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= a.seconds <= 120:
        p.error("--seconds must be in 1..120")
    return a


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {root / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not (build_dir / "CMakeCache.txt").is_file():
        cfg = [cmake, "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        run_build_step(cfg)
    run_build_step([cmake, "--build", str(build_dir), "--target", "perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))])
    exe = build_dir / "perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def run_build_step(cmd):
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}")


def expected_metrics(root, traced):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def check_result(line, expected):
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from the contract"
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, or units differ"
    return None


def main():
    args = parse_args()
    root = Path(__file__).resolve().parent.parent
    if not (root / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json in {root}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    exe = build(root, build_dir)
    expected = expected_metrics(root, args.trace == 1)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = r.stdout.rstrip("\n").splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        print(f"perfbench: harness exited with {r.returncode}",
              file=sys.stderr)
        sys.exit(r.returncode or 1)
    problem = check_result(lines[-1], expected)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
