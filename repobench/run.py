#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

    python3 repobench/run.py --workload sn_mem --seed 1 --seconds 25 --trace 0
    python3 repobench/run.py --self-test

Run it from the root of a checkout. It builds the library and the benchmark
program (flatbench) from source into .bench_build/ (incrementally after the
first run), runs one workload, and prints flatbench's environment
fingerprint followed, as the last line, by one JSON object: {"correct",
"attempted", "failed", "metrics"}. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list; each
is checked by name and unit before printing. Exits 1 when any answer was wrong or any operation failed, and 2
when the benchmark cannot be built or run.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "repobench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sn_mem", "lss_disk", "churn_overlay")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts):
    print("[repobench]", *parts, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds `targets`; raises on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"library sources not found under {ROOT}")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake is not installed")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                    "--target", *targets],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def src_digest():
    """sha256 over the library sources, so runs of a checkout without git
    history still name the code they measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def expected_metrics(spec, trace):
    """{name: unit} the result must carry for this trace mode."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def validate_result(result, expected):
    """Returns the list of ways `result` breaks the output schema."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    keys = set(result)
    if keys != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(keys)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key, low in (("attempted", 1), ("failed", 0)):
        value = result[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            problems.append(f"{key} is not a whole number >= {low}")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names differ: missing {missing}, "
                        f"unexpected {extra}")
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: not a {{value, unit}} object")
            continue
        value = entry["value"]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if name in expected and entry["unit"] != expected[name]:
            problems.append(f"{name}: unit {entry['unit']!r}, "
                            f"expected {expected[name]!r}")
    return problems


def run(args):
    started = time.monotonic()
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
        build(["flatbench"])
    except (OSError, ValueError, RuntimeError,
            subprocess.SubprocessError) as e:
        log("cannot build the benchmark:", e)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    cmd = [str(BUILD_DIR / "flatbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--out={OUT_DIR}",
           f"--git-sha={git_sha()}", f"--src-digest={src_digest()}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"flatbench did not finish within {RUN_TIMEOUT_S} s")
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"flatbench exited with code {proc.returncode}")
        return 2
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("flatbench's last line is not JSON:", lines[-1][:200])
        return 2
    problems = validate_result(result, expected_metrics(spec, args.trace))
    if problems:
        for p in problems:
            log("schema:", p)
        return 2
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    log(f"done in {time.monotonic() - started:.1f} s")
    return 0 if result["correct"] and proc.returncode == 0 else 1


def self_test():
    try:
        build(["trace_test"])
    except (RuntimeError, subprocess.SubprocessError) as e:
        log("cannot build the self-tests:", e)
        return 2
    native = subprocess.run([str(BUILD_DIR / "trace_test")]).returncode
    suite = unittest.defaultTestLoader.discover(str(BENCH_DIR),
                                                pattern="test_*.py")
    python_ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if native == 0 and python_ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests and exit")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
