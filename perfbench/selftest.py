#!/usr/bin/env python3
"""Check that the benchmark's exact counts repeat exactly.

    python3 perfbench/selftest.py [--seed N]

Run from the root of a checkout.  Runs every workload twice with the
same seed and fails unless the counts below are identical in both runs
and every run reports correct outputs.  Takes about three minutes.
"""

import argparse
import json
import subprocess
import sys

# (workload, trace, metric) whose value must repeat exactly
EXACT = [
    ("sweep", 0, "alloc_mb_per_op"),
    ("verify", 0, "alloc_mb_per_op"),
    ("fuzz", 0, "alloc_mb_per_op"),
    ("sweep", 1, "vm.instrs"),
    ("fuzz", 1, "vm.instrs"),
    ("verify", 1, "equiv.decided_share"),
    ("verify", 1, "equiv.cases"),
    ("fuzz", 1, "oracle.runs"),
    ("serve", 1, "serve.hit_share"),
]


def run(workload, trace, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    seed = ap.parse_args().seed
    ok = True
    for workload, trace in sorted({(w, t) for w, t, _ in EXACT}):
        a, b = run(workload, trace, seed), run(workload, trace, seed)
        for r in (a, b):
            if not r["correct"]:
                print(f"FAIL {workload} trace={trace}: outputs not correct")
                ok = False
        for w, t, metric in EXACT:
            if (w, t) != (workload, trace):
                continue
            va, vb = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
            if va == vb:
                print(f"ok   {workload} {metric} = {va!r}")
            else:
                print(f"FAIL {workload} {metric}: {va!r} vs {vb!r}")
                ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
