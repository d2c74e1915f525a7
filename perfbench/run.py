#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/pbench.exe and the
psimc executable (the serve daemon) with dune into .bench_build, then
runs one workload (sweep, serve, verify or fuzz).  The last line of
standard output is the JSON result.  Exits non-zero, without a result,
when the build or the run fails, and never leaves a process behind.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def reap_group(pgid):
    """Kill whatever is left in the run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "serve", "verify", "fuzz"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/pbench.exe", "./bin/psimc.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    os.makedirs(os.path.join(BUILD_DIR, "run"), exist_ok=True)

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "pbench.exe")
    psimc = os.path.join(BUILD_DIR, "default", "bin", "psimc.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--psimc", psimc]
    # its own process group, so the serve daemon can always be reaped
    proc = subprocess.Popen(cmd, process_group=0)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        reap_group(proc.pid)
    if rc != 0:
        fail(f"pbench exited with status {rc}")


if __name__ == "__main__":
    main()
