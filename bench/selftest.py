"""Determinism self-test of the benchmark's traced counts.

Runs the traced benchmark twice per workload with the same seed, each in a
fresh interpreter, and requires the counts a later change may rest a claim
on to be exactly equal across the two runs.  Run from the repository root:

    python3 bench/selftest.py                 # all workloads, seed 0
    python3 bench/selftest.py --workload vf-noisy --seed 4

Exits 0 when every count repeats and every output check passed, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ["aaa-identify", "vf-noisy", "extrapolate"]
COUNTS = ["aaa.steps", "identify.candidates", "vf.vf_solve.calls", "asymptotic.far_frac"]


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description="determinism self-test of the traced counts")
    p.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    ok = True
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        for name in COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            same = a == b
            ok &= same
            print(f"{'PASS' if same else 'FAIL'} {workload} {name}: {a!r} {b!r}")
        for run in (first, second):
            if not run["correct"]:
                ok = False
                print(f"FAIL {workload}: {run['failed']} of {run['attempted']} checks failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
