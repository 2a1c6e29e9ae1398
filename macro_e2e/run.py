#!/usr/bin/env python3
"""Builds and runs the dproc macro benchmark.

Usage, from the repository root:

    python3 macro_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: fig9_smartpointer, flat64, hier128_full (see macro_e2e/README.md).
The first run configures and builds an optimised copy of the dproc libraries
and the benchmark binary under .bench_build/macro_e2e; later runs only
rebuild what changed. Build output goes to stderr. The benchmark's report
goes to stdout and its last line is one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

With --trace 1 the spans of the traced pass are also written as Chrome trace
JSON to .bench_build/traces/<workload>-seed<n>.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "macro_e2e")
BINARY = os.path.join(BUILD_DIR, "macro_e2e")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def die(message):
    print("macro_e2e: " + message, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, stdout):
    """Runs `cmd` in its own process group and returns (returncode, output).
    On timeout the whole group (a build's compilers too) is killed and
    reaped before dying."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, output


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; dies on failure."""
    if run_group(cmd, timeout, sys.stderr)[0] != 0:
        die("failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("dproc sources not found next to " + HERE)
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S)


def provenance():
    """Git sha when the checkout is a repository, and a digest of the
    sources the binary was built from (the checkout may carry no .git)."""
    sha = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "include", "macro_e2e"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "git_sha=%s source_sha256=%s nproc=%d" % (
        sha, digest.hexdigest()[:16], os.cpu_count() or 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    print("provenance: " + provenance(), flush=True)
    returncode, output = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = output.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if returncode != 0 or not isinstance(result, dict):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("benchmark exited %d without a result" % returncode)
    sys.stdout.write(output)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
