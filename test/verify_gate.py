"""Exact verdict gate for `psimc verify-kernel --suite --json` reports.

    python3 test/verify_gate.py check STRATEGY REPORT
    python3 test/verify_gate.py update STRATEGY REPORT

`check` compares every function of REPORT with the STRATEGY entry
(`default` or `slp`) of test/verify_suite_expected.json: its verdict,
case count, and vacuous count (Proved) or reason (Bounded-out).  Any
difference fails, in either direction: a new proof is a change to
record as much as a lost one.  `update` rewrites the STRATEGY entry
from REPORT, for a change that moves verdicts on purpose.
"""

import json
import os
import sys

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verify_suite_expected.json")


def outcomes(report):
    """One entry per `kernel/function`, from a verify-kernel report."""
    out = {}
    for kernel, results in json.load(open(report))["kernels"].items():
        if isinstance(results, dict):  # a kernel that could not be built
            out[kernel] = {"error": results["error"]}
            continue
        for r in results:
            entry = {"verdict": r["verdict"], "cases": r["cases"]}
            if r["verdict"] == "Proved":
                entry["vacuous"] = int(r["detail"].split()[0])
            elif r["verdict"] == "Bounded-out":
                entry["reason"] = r["detail"]
            out[f"{kernel}/{r['func']}"] = entry
    return out


def main():
    if len(sys.argv) != 4 or sys.argv[1] not in ("check", "update"):
        sys.exit(__doc__)
    mode, strategy, report = sys.argv[1:]
    got = outcomes(report)
    expected = json.load(open(EXPECTED)) if os.path.exists(EXPECTED) else {}
    if mode == "update":
        expected[strategy] = got
        with open(EXPECTED, "w") as f:  # one function per line
            f.write("{\n")
            for i, (strat, entries) in enumerate(sorted(expected.items())):
                f.write(f" {json.dumps(strat)}: {{\n")
                lines = [f"  {json.dumps(n)}: {json.dumps(e, sort_keys=True)}" for n, e in sorted(entries.items())]
                f.write(",\n".join(lines))
                f.write("\n }" + ("," if i + 1 < len(expected) else "") + "\n")
            f.write("}\n")
        print(f"wrote {len(got)} {strategy} outcomes to {EXPECTED}")
        return
    want = expected[strategy]
    diffs = [
        f"{name}: expected {want.get(name)}, got {got.get(name)}"
        for name in sorted(set(want) | set(got))
        if want.get(name) != got.get(name)
    ]
    for d in diffs:
        print(d)
    if diffs:
        sys.exit(f"{len(diffs)} of {len(want)} {strategy} outcomes differ from {EXPECTED}")
    print(f"all {len(want)} {strategy} outcomes match")


if __name__ == "__main__":
    main()
