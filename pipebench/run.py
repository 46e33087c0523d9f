#!/usr/bin/env python3
"""Build and run the BayesPerf pipeline benchmark.

Usage, from the root of a bayesperf checkout:

    python3 pipebench/run.py --workload hibench_replay --seed 1 \
        --seconds 10 --trace 0

The script configures and builds pipebench/ (a CMake project that
pulls the library in from the parent checkout) into
.bench_build/pipebench, then runs the benchmark binary with the same
arguments.  Build output goes to standard error; the binary's report
goes to standard output and ends with one JSON result line.  The exit
code is non-zero when the build fails, the binary fails its in-band
correctness checks, or it overruns its time limit.
"""

import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
BINARY = os.path.join(BUILD, "pipebench")
# A run must end within 180 s; leave headroom for the no-op build check.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    """Run a build step with its output on stderr; stop on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(cmd), result.returncode or 2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no bayesperf sources beside pipebench/; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    # Serialize concurrent invocations on one build tree.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_quiet(["cmake", "--build", BUILD, "--target", "pipebench",
                   "-j", jobs])


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark binary is built from."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "bench", "pipebench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(dirpath, f) for f in files
                      if f.endswith((".h", ".cc", ".cpp", ".txt"))]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    build()
    env = dict(os.environ, PIPEBENCH_GIT_COMMIT=git_commit(),
               PIPEBENCH_SOURCE_DIGEST=source_digest())
    try:
        result = subprocess.run([BINARY] + sys.argv[1:], env=env,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 3)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
