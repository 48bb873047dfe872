#!/usr/bin/env python3
"""Builds and runs the SummaryStore benchmark.

    python3 perfbench/run.py --workload ingest|cold_query|wire --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the program's src/) into .bench_build, or into
$CARGO_TARGET_DIR when that is set; later calls only rebuild what changed.
Build output goes to stderr. Each run gets a fresh store directory under
.bench_tmp/, removed when the run ends, whatever its outcome; traced runs
write their spans to .bench_out/. The last line of standard output is the
benchmark's JSON result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds; returns the build directory or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step {cmd[:2]} failed: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step {cmd[:2]} exited {done.returncode}", file=sys.stderr)
            return None
    return out


def run_child(cmd):
    """Runs cmd, relaying its stdout; returns its exit code (1 on timeout)."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        try:
            out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 1
        except BaseException:
            child.kill()
            child.wait()
            raise
    if child.returncode == 0:
        sys.stdout.write(out)
    else:
        sys.stderr.write(out)
        print(f"perfbench: run exited {child.returncode}", file=sys.stderr)
    return child.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["ingest", "cold_query", "wire"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the oracle self-test instead")
    args = parser.parse_args()
    # On SIGTERM, still stop the child and remove the store directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build()
    if out is None:
        return 1
    if args.selftest:
        return run_child([os.path.join(out, "oracle_selftest")])

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    spans_dir = os.path.join(ROOT, ".bench_out")
    if args.trace:
        os.makedirs(spans_dir, exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--store-dir", store_dir]
        if args.trace:
            cmd += ["--out-dir", spans_dir]
        return run_child(cmd)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
