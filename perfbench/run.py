#!/usr/bin/env python3
"""Build and run the libmahimahi end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload rt-steady --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (which pulls in the
repository's libmahimahi) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset, then runs one workload.
The last line of standard output is the result as one JSON object; the exit
code is non-zero when the build, the run or a correctness check fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rt-steady", "rt-saturate", "rt-kv-crash", "sim-wan50")
# One run must end within 180 s; leave room for start-up and teardown.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """Metric name -> unit the result must carry, from BENCHMARK.json."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, args, workdir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)

    workdir = os.path.join(build_dir, f"work-{os.getpid()}")
    try:
        code, out = run(binary, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(out)
        fail(f"no result line (exit code {code})")
    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            sys.stderr.write(out)
            fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(expected) - set(got))}, "
                 f"extra {sorted(set(got) - set(expected))}, "
                 f"units {sorted(k for k in got if k in expected and got[k] != expected[k])}")
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0 or not result.get("correct"):
        sys.exit(code or 1)


if __name__ == "__main__":
    main()
