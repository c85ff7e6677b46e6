#!/usr/bin/env python3
"""Build the benchmark harness from this checkout and run one workload.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload rsm --seed 1 --seconds 10 --trace 0

The harness (perfbench/bench.ml) is an OCaml executable in its own dune
project; it links the repository's libraries, so it is built here from
source with dune before every run (a no-op once built).  Its standard
output is passed through unchanged; the last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status is non-zero, with no result printed, when the checkout is
incomplete, the build fails, or the harness fails or overruns.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 600
RUN_SLACK_S = 150
TARGET = os.path.join("perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, env=None, capture=False):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so nothing outlives this script."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else None,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %ds" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "bench.ml")):
        if not os.path.exists(needed):
            fail("run from the root of a full checkout (missing %s)" % needed)

    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(
        ["dune", "build", "--root", ".", "./" + TARGET],
        BUILD_TIMEOUT_S,
        env=env,
    )
    if code != 0:
        fail("build failed")

    code, out = run(
        [
            os.path.join("_build", "default", TARGET),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        args.seconds + RUN_SLACK_S,
        capture=True,
    )
    text = out.decode()
    lines = text.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(text)
        fail("harness exited with status %d" % code)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(text)


if __name__ == "__main__":
    main()
