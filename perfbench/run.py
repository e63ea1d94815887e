#!/usr/bin/env python3
"""Runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload threads1 --seed 7 --seconds 40 --trace 0

Builds perfbench/ (and with it the library sources in src/) in Release into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
benchmark binary once at the workload's thread count, and prints one JSON
line: correct / attempted / failed and the metrics BENCHMARK.json lists for
the mode (end_to_end with --trace 0, per_layer with --trace 1). Exits
non-zero without a result line when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_THREADS = {"threads1": 1, "threads4": 4}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "--parallel", "4"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def run(binary, work_dir, args):
    """Runs the benchmark in a fresh scratch directory; returns its result."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [str(binary), "--threads", str(WORKLOAD_THREADS[args.workload]),
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=work_dir, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_root = target if target.is_absolute() else ROOT / target
    try:
        binary = build(build_root / "perfbench")
        result = run(binary, build_root / "work", args)
    except (RuntimeError, ValueError, subprocess.SubprocessError,
            OSError) as error:
        log(str(error))
        return 1

    metrics = result["metrics"]
    wrong = [m["name"] for m in wanted
             if metrics.get(m["name"], {}).get("unit") != m["unit"]]
    if wrong:
        log(f"metrics missing or in another unit: {', '.join(wrong)}")
        return 1
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
