#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (its own Cargo package, path dependencies on the
repository's crates) in release mode, into $CARGO_TARGET_DIR or
.bench_build/ at the repository root, then runs the binary. The binary's
standard output is passed through; its last line is the JSON result.

If the binary dies or hangs without printing a result, this script prints
one itself with every op failed, so a broken run is a failed row, not a
missing one. A failed build prints no result. The exit code is 0 only
when every check passed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary's own per-replay timeout is 60 s; this bounds the whole run.
RUN_TIMEOUT_S = 160
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Run from the repository root so its .cargo/config.toml (the
    # program's own build flags) applies.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        return None
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def is_result(line):
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    return isinstance(obj, dict) and set(obj) == RESULT_KEYS


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", os.path.join(HERE, "out"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        print(f"run.py: no result after {RUN_TIMEOUT_S}s, killed", file=sys.stderr)
    lines = out.splitlines()
    sys.stdout.write(out)
    if lines and is_result(lines[-1]):
        return 0 if proc.returncode == 0 else 1
    if proc.returncode == 2:
        # Bad arguments: nothing was attempted.
        return 2
    # Died or hung without a result: record the run with every op failed.
    print(f"run.py: benchmark exited with {proc.returncode} and no result",
          file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}))
    return 1


if __name__ == "__main__":
    sys.exit(main())
