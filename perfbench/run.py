#!/usr/bin/env python3
"""Build and run one workload of the incdx benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `perfbench/` (its own Cargo workspace) and the `incdx-serve`
daemon in release mode into $CARGO_TARGET_DIR (default `.bench_build`),
runs the workload, and prints a run record line followed by the result
line: one JSON object with `correct`, `attempted`, `failed` and
`metrics`. The exit code is the benchmark binary's: 0 when every answer
was right. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stuckat-exhaustive", "dedc-first", "serve-mixed")
RUN_TIMEOUT_S = 170


def first_line(cmd, cwd):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_record(args, root):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": first_line(["rustc", "--version"], root),
        "commit": first_line(["git", "rev-parse", "HEAD"], root),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"),
         "-p", "incdx-perfbench", "-p", "incdx-serve"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    release = os.path.join(target, "release")
    state = os.path.join(target, "perfbench")
    cmd = [os.path.join(release, "incdx-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state", state, "--daemon", os.path.join(release, "incdx-serve")]
    record = run_record(args, root)
    # Own session, so the daemon the benchmark starts can be reaped with
    # it whatever happens.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(proc.returncode or 1)
    result = lines[-1]
    runs = os.path.join(state, "runs")
    os.makedirs(runs, exist_ok=True)
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(runs, name), "w") as f:
        json.dump({"run_record": record, "result": json.loads(result)}, f)
    print(json.dumps({"run_record": record}))
    print(result)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
