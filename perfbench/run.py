#!/usr/bin/env python3
"""Build the ftmc benchmark program from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The program is configured and built with
CMake into $CARGO_TARGET_DIR (default .bench_build) on the first call;
scratch files go to .bench_build/work.  Standard output ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  The exit code is the
program's: 0 when every output check passed, non-zero otherwise (and when
the build fails, with no JSON line).
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("dse-eval-dtlarge", "dse-select-synth1", "serve-worker-dtlarge")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return build_dir / "ftmc_perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (ROOT / target / "perfbench").resolve()
    binary = build(build_dir)
    if binary is None:
        log("perfbench: build failed")
        return 1

    work_dir = ROOT / ".bench_build" / "work"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--git-sha", git_sha()]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
