#!/usr/bin/env python3
"""Build and run the flow benchmark.

    python3 flowbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and builds
flowbench/ (which compiles ../src) into $CARGO_TARGET_DIR/flowbench, or
.bench_build/flowbench when that variable is unset; later runs only rebuild
what changed. Build output goes to standard error. The benchmark's standard
output is passed through; its last line is the JSON result. A traced run
also writes its spans to <build dir>/traces/.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    """Runs cmd to completion; the child is killed and reaped on timeout."""
    with subprocess.Popen(cmd, **kw) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            die("timed out after %d s: %s" % (timeout, " ".join(cmd)), 3)
        return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found next to flowbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "flowbench"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "flowbench",
                  "-j", "2"])
    for cmd in steps:
        try:
            code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        except FileNotFoundError:
            die("cmake is not installed")
        if code != 0:
            die("build step failed: " + " ".join(cmd), 1)
    return build_dir


def main():
    args = sys.argv[1:]
    build_dir = build()
    cmd = [os.path.join(build_dir, "flowbench")] + args
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tag = "-".join(a.lstrip("-") for a in args)
        cmd += ["--trace-out", os.path.join(trace_dir, tag + ".json")]
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        sys.exit(code)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        die("the benchmark printed no result line", 1)


if __name__ == "__main__":
    main()
