#!/usr/bin/env python3
"""Builds the ssno benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload converge --seed 1 --seconds 10 --trace 0

Workloads: converge, stepping, verify, serve (see perfbench/README.md).
The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is reused by later runs; build output goes to stderr, so the last line
of standard output is the benchmark's JSON result.  Options the script does
not know (--tiny, --corrupt ...) are passed to the benchmark binary.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

# A traced run at --seconds 10 takes under 70 s; sizes scale with --seconds.
TIMEOUT_BASE_S = 30
TIMEOUT_PER_SECOND_S = 14


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def source_revision(root):
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, check=False).returncode:
            fail("cmake configure failed")
    command = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, check=False).returncode:
        fail("build failed")
    binary = os.path.join(build_dir, "ssno_perfbench")
    if not os.path.isfile(binary):
        fail(f"{binary} missing after build")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, passthrough = parser.parse_known_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)

    workdir = os.path.join(target, f"perfbench-work-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", workdir, "--commit", source_revision(root)]
    command += passthrough
    timeout = TIMEOUT_BASE_S + TIMEOUT_PER_SECOND_S * args.seconds
    try:
        proc = subprocess.run(command, cwd=root, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {timeout} s")
    finally:
        shutil.rmtree(os.path.join(root, workdir), ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
