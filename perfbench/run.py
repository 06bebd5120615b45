#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --open-loop-rate R --workload W --seed N \
        --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build (or
$CARGO_TARGET_DIR when set); build output goes to stderr so that the
last line of stdout is the benchmark's JSON result. A traced run writes
its spans as Chrome trace JSON to .bench_build/traces/<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> bool:
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(build_dir):
        return 2
    work_dir = build_dir / f"work-{known.workload}-{os.getpid()}"
    args = [str(build_dir / "perfbench"), *sys.argv[1:],
            "--work-dir", str(work_dir)]
    if known.trace == "1":
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(traces / f"{known.workload}-{known.seed}.json")]
    child = subprocess.Popen(args, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        child.kill()
        child.wait()
        return 3
    except KeyboardInterrupt:
        child.kill()
        child.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
