#!/usr/bin/env python3
"""Runs one workload of the reliability-aware flow's benchmark.

    python3 reliabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `reliabench` (a package of its own in
this directory) with cargo into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the workload in a child process whose stderr goes to a
file under `.bench_build/reliabench/`, and prints as its last stdout line
one JSON object: `correct`, `attempted`, `failed` and `metrics` — every
end-to-end metric with `--trace 0`, every per-layer metric with
`--trace 1`. The traced run also reports `trace.overhead_pct`: how much
slower the workload's headline metric was traced than in the last untraced
run of the same workload in this checkout (one is made first if none
exists). Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

WORKLOADS = ("charlib_cold", "paper_flow", "serve_mixed")
# The end-to-end metric whose traced/untraced difference is the tracing
# overhead, and whether higher is better for it.
HEADLINE = {
    "charlib_cold": ("arcs_per_s", True),
    "paper_flow": ("flow_s", False),
    "serve_mixed": ("sat_rps", True),
}
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(message):
    print(f"reliabench: {message}", file=sys.stderr, flush=True)


# Every function starts on a 64-byte boundary. Cargo hashes the location
# of path dependencies into symbol names, which reorders the functions of
# the binary, so without this one checkout of the same source served
# `serve_mixed` 1.5x slower than another: its hot parse loop ran fast or
# slow by where it fell against the cache lines.
ALIGN_FUNCTIONS = "-C llvm-args=-align-all-functions=6"


def build(bench_dir, target_dir):
    """Builds the benchmark binary; returns its path or None."""
    rustflags = f"{os.environ.get('RUSTFLAGS', '')} {ALIGN_FUNCTIONS}".strip()
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir, RUSTFLAGS=rustflags)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(bench_dir, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    binary = os.path.join(target_dir, "release", "reliabench")
    if done.returncode != 0 or not os.path.isfile(binary):
        log(f"build failed with exit code {done.returncode}")
        return None
    return binary


def pin_to_one_cpu():
    """Keeps every thread of the workload on one CPU. The timed work is
    single-threaded; without the pin, each client/server hand-off crossed
    to the other virtual CPU, whose wake-up latency on a shared host swung
    the serve figures by a third from run to run."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_child(binary, args, trace, work_dir):
    """Runs one workload in a child process; returns its result object."""
    tag = f"{args.workload}-seed{args.seed}-trace{trace}"
    stderr_path = os.path.join(work_dir, f"{tag}.stderr")
    stdout_path = os.path.join(work_dir, f"{tag}.stdout")
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--spans", os.path.join(work_dir, f"{tag}.spans.jsonl"),
        "--stderr-file", stderr_path, "--workdir", os.path.relpath(work_dir),
    ]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        child = subprocess.Popen(cmd, stdout=out, stderr=err, preexec_fn=pin_to_one_cpu)
        timer = threading.Timer(CHILD_TIMEOUT_S, lambda: child.send_signal(signal.SIGKILL))
        timer.start()
        try:
            child.wait()
        finally:
            timer.cancel()
    with open(stdout_path, encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()
    for line in lines[:-1]:
        print(line)
    if child.returncode != 0 or not lines:
        log(f"{tag} exited with {child.returncode}; stderr in {stderr_path}")
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log(f"{tag} printed no result line")
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    work_dir = os.path.join(root, ".bench_build", "reliabench")
    os.makedirs(work_dir, exist_ok=True)
    binary = build(bench_dir, target_dir)
    if binary is None:
        return 1

    last_path = os.path.join(work_dir, f"last-untraced-{args.workload}.json")
    untraced = None
    if args.trace == 1 and not os.path.isfile(last_path):
        untraced = run_child(binary, args, 0, work_dir)
        if untraced is None:
            return 1
        with open(last_path, "w", encoding="utf-8") as f:
            json.dump({"seed": args.seed, "metrics": untraced["metrics"]}, f)
    result = run_child(binary, args, args.trace, work_dir)
    if result is None:
        return 1

    if args.trace == 0:
        metrics = result["metrics"]
        with open(last_path, "w", encoding="utf-8") as f:
            json.dump({"seed": args.seed, "metrics": metrics}, f)
    else:
        if untraced is None:
            with open(last_path, encoding="utf-8") as f:
                untraced = json.load(f)
        name, higher_is_better = HEADLINE[args.workload]
        plain = untraced["metrics"][name]["value"]
        traced = result["metrics"][name]["value"]
        slower = plain / traced - 1.0 if higher_is_better else traced / plain - 1.0
        metrics = dict(result["layers"])
        metrics["trace.overhead_pct"] = {"value": 100.0 * slower, "unit": "%"}
        for key, entry in result["metrics"].items():
            before = untraced["metrics"].get(key, {}).get("value")
            print(f"tracing overhead: {key} traced {entry['value']:.6g} "
                  f"untraced {before if before is None else format(before, '.6g')} "
                  f"(untraced seed {untraced.get('seed', args.seed)})")

    for key, value in sorted(result.get("info", {}).items()):
        print(f"info: {key} = {value}")
    for failure in result.get("failures", []):
        print(f"failed: {failure}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
