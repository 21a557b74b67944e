"""Check a sweep CSV written by ``barydeg eval``.

Usage: python check_sweep.py SWEEP.csv ROWS [MASSES forward|inverted BOUND]

Exits nonzero unless the file has ROWS rows, its branches are exactly
{bary, asym}, and every value is finite.  With a mass chain given, it also
requires every ``asym`` row, at s = i * s_abs, within relative error BOUND
of that chain's exact response.
"""

import csv
import math
import sys

path, expected = sys.argv[1], int(sys.argv[2])
chain = sys.argv[3:]
rows, branches, finite, far = 0, set(), True, []
with open(path, encoding="utf-8") as fh:
    for row in csv.DictReader(fh):
        rows += 1
        branches.add(row["branch"])
        value = complex(float(row["r_re"]), float(row["r_im"]))
        finite = finite and math.isfinite(value.real) and math.isfinite(value.imag)
        if chain and row["branch"] == "asym":
            far.append((1j * float(row["s_abs"]), value))
if rows != expected or branches != {"bary", "asym"} or not finite:
    sys.exit(f"{path}: {rows} rows (expected {expected}), "
             f"branches {sorted(branches)}, finite {finite}")

if chain:
    import numpy as np

    import barydeg

    masses, direction, bound = int(chain[0]), chain[1], float(chain[2])
    reference = {"forward": barydeg.forward_tf, "inverted": barydeg.inverse_tf}[direction]
    s, values = np.array(far).T
    exact = reference(barydeg.MassChainSystem(masses), s)
    worst = float(np.max(np.abs(values - exact) / np.abs(exact)))
    print(f"{path}: asym rows within {worst:.3g} of the {direction} {masses}-mass chain")
    if not worst <= bound:
        sys.exit(f"{path}: asym rows err by {worst:.3g} against the {direction} "
                 f"{masses}-mass chain, bound {bound:g}")
