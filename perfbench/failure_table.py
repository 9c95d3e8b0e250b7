#!/usr/bin/env python3
"""Rebuilds the table of (scenario, seed) pairs whose own acceptance checks
fail at --scale=fast, over the scenarios the serve workload requests.

    python3 perfbench/failure_table.py            # seeds 1-16
    python3 perfbench/failure_table.py --last 64  # the seed pool of new keys

Prints a markdown table (scenario, seed, message) and the pairs as a Python
tuple for run.py's KNOWN_FAILING / FAILING_1_64.
"""
import argparse
import subprocess
import sys

import run


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--first", type=int, default=1)
    ap.add_argument("--last", type=int, default=16)
    args = ap.parse_args()
    bins = run.build()
    scenarios = sorted(set(run.SERVE_MIX) | set(run.WARM_SCENARIOS))
    failing = []
    print("| scenario | seed | message |\n|---|---|---|")
    for seed in range(args.first, args.last + 1):
        for scenario in scenarios:
            r = subprocess.run([bins["run"], scenario, "--scale=fast",
                                f"--seed={seed}", f"--jobs={run.NPROC}"],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True, cwd=run.ROOT)
            if r.returncode == 0:
                continue
            lines = [ln for ln in r.stdout.splitlines()
                     if "FAIL:" in ln or "failed:" in ln]
            msg = "; ".join(ln.split("FAIL: ")[-1].split("failed: ")[-1]
                            for ln in lines)
            print(f"| `{scenario}` | {seed} | {msg} |", flush=True)
            failing.append((scenario, seed))
    print(f"\n{len(failing)} failing pairs over seeds "
          f"{args.first}-{args.last}:")
    print(tuple(failing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
