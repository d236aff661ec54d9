#!/usr/bin/env python3
"""Builds the benchmark and the daemon from source, then runs one workload.

    python3 pnrbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds `pnr-serve` (from the
repository's workspace) and `pnr-bench` (this directory's package) into
`$CARGO_TARGET_DIR`, `.bench_build` by default, with cargo's output on
stderr; then it runs `pnr-bench run`, whose last stdout line is the result
object. The exit code is the benchmark's; a failed build exits non-zero
without a result.
"""

import argparse
import os
import signal
import subprocess
import sys

# A run measures for --seconds and then checks its outputs; past this it
# is stuck, and it and every process it started are stopped.
RUN_TIMEOUT_S = 170


def build(env, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    for manifest, extra in (
        (os.path.join(root, "Cargo.toml"), ("-p", "pnr-serve", "--bin", "pnr-serve")),
        (os.path.join(here, "Cargo.toml"), ()),
    ):
        code = build(env, manifest, *extra)
        if code != 0:
            print(f"run.py: building {manifest} failed", file=sys.stderr)
            return code

    bench = os.path.join(env["CARGO_TARGET_DIR"], "release", "pnr-bench")
    cmd = [bench, "run", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--trace")
    # its own process group, so a stuck run takes its daemon and fit
    # children down with it
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
