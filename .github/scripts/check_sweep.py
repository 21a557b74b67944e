"""Check a sweep CSV written by ``barydeg eval``.

Usage: python check_sweep.py SWEEP.csv ROWS

Exits nonzero unless the file has ROWS rows, its branches are exactly
{bary, asym}, and every value is finite.
"""

import csv
import math
import sys

path, expected = sys.argv[1], int(sys.argv[2])
rows, branches, finite = 0, set(), True
with open(path, encoding="utf-8") as fh:
    for row in csv.DictReader(fh):
        rows += 1
        branches.add(row["branch"])
        finite = finite and math.isfinite(float(row["r_re"])) and math.isfinite(float(row["r_im"]))
if rows != expected or branches != {"bary", "asym"} or not finite:
    sys.exit(f"{path}: {rows} rows (expected {expected}), "
             f"branches {sorted(branches)}, finite {finite}")
