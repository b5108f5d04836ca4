#!/usr/bin/env python3
"""Build and run the TCOB benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload lookup_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the engine and the driver (Release)
under .bench_build/perfbench; later calls only rebuild what changed. The
driver prints one JSON object as the last line of stdout: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Traced runs
also leave artifacts (Chrome trace of the benchmark's spans, the engine's
flight-recorder dump, self time per layer) in .bench_build/artifacts/.
Build output and diagnostics go to stderr. See perfbench/README.md.
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
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
TRACE_VALIDATOR = os.path.join(ROOT, "tools", "validate_trace_json.py")


def log(msg):
    sys.stderr.write("[perfbench] %s\n" % msg)
    sys.stderr.flush()


def run_quiet(cmd):
    """Runs a build step with its output sent to stderr."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "db", "database.h")):
        log("engine sources (src/) not found next to perfbench/")
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        os.makedirs(BUILD_DIR, exist_ok=True)
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", BUILD_DIR, "--target", target,
                      "-j", jobs]):
        return None
    return os.path.join(BUILD_DIR, target)


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        sha = head.stdout.strip() if head.returncode == 0 else "unknown"
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--", "src", "perfbench"],
                               capture_output=True, text=True, timeout=30)
        return sha + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_sha256():
    """Content hash of the engine and benchmark sources (identifies the
    measured code where the tree is not a git checkout)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def validate_traces(paths):
    if not os.path.isfile(TRACE_VALIDATOR):
        log("trace validator not found; artifacts not validated")
        return True
    proc = subprocess.run([sys.executable, TRACE_VALIDATOR] + paths,
                          stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def self_test():
    binary = build("perfbench_selftest")
    if binary is None:
        return 1
    out_dir = os.path.join(BUILD_ROOT, "selftest")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, "spans.json")
    if subprocess.run([binary, spans]).returncode != 0:
        return 1
    return 0 if validate_traces([spans]) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")

    binary = build("tcob_perfbench")
    if binary is None:
        log("build failed")
        return 1

    work = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    artifacts = os.path.join(BUILD_ROOT, "artifacts",
                             "%s-seed%d" % (args.workload, args.seed))
    shutil.rmtree(artifacts, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--artifacts-dir", artifacts,
           "--git-sha", git_sha(), "--source-sha256", source_sha256()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log("benchmark exited with %d" % proc.returncode)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if args.trace == 1:
        traces = [os.path.join(artifacts, "spans.json"),
                  os.path.join(artifacts, "flight_recorder.json")]
        if not validate_traces(traces):
            log("trace artifacts failed validation")
            result["correct"] = False
        log("artifacts in %s" % os.path.relpath(artifacts, ROOT))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
