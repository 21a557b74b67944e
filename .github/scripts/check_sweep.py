"""Check a sweep CSV written by ``barydeg eval``.

Usage: python check_sweep.py SWEEP.csv ROWS [MASSES forward|inverted BOUND [MODEL.json]]

Exits nonzero unless the file has ROWS rows, its branches are exactly
{bary, asym}, and every value is finite.  With a mass chain given, it also
requires every ``asym`` row, at s = i * s_abs, within relative error BOUND
of that chain's exact response.

With the swept model file given as well, BOUND holds for the rows beyond the
file's ``cutoff``, each of which must be ``asym``.  The ``asym`` rows at or
inside the cutoff are those the model's switch radius moved to the far
branch; there the far branch's worst error against the chain must stay
within 1.1 times the barycentric form's worst error on the same rows.
"""

import csv
import math
import sys

path, expected = sys.argv[1], int(sys.argv[2])
chain, model_path = sys.argv[3:6], sys.argv[6] if len(sys.argv) > 6 else None
pm = None
if model_path:
    import json

    from barydeg.cli import model_from_json

    with open(model_path, encoding="utf-8") as fh:
        pm = model_from_json(json.load(fh))
rows, branches, finite, far, bary_beyond = 0, set(), True, [], 0
with open(path, encoding="utf-8") as fh:
    for row in csv.DictReader(fh):
        rows += 1
        branches.add(row["branch"])
        value = complex(float(row["r_re"]), float(row["r_im"]))
        finite = finite and math.isfinite(value.real) and math.isfinite(value.imag)
        if row["branch"] == "asym":
            if chain:
                far.append((1j * float(row["s_abs"]), value))
        elif pm is not None and float(row["s_abs"]) > pm.cutoff:
            bary_beyond += 1
if rows != expected or branches != {"bary", "asym"} or not finite:
    sys.exit(f"{path}: {rows} rows (expected {expected}), "
             f"branches {sorted(branches)}, finite {finite}")
if bary_beyond:
    sys.exit(f"{path}: {bary_beyond} rows beyond the cutoff {pm.cutoff:.17g} are not asym")

if chain:
    import numpy as np

    import barydeg

    masses, direction, bound = int(chain[0]), chain[1], float(chain[2])
    reference = {"forward": barydeg.forward_tf, "inverted": barydeg.inverse_tf}[direction]
    s, values = np.array(far).T
    exact = reference(barydeg.MassChainSystem(masses), s)
    errors = np.abs(values - exact) / np.abs(exact)
    beyond = np.ones(s.size, dtype=bool) if pm is None else s.imag > pm.cutoff
    worst = float(np.max(errors[beyond]))
    rows_checked = "asym rows" if pm is None else "rows beyond the cutoff"
    print(f"{path}: {rows_checked} within {worst:.3g} of the {direction} {masses}-mass chain")
    if not worst <= bound:
        sys.exit(f"{path}: {rows_checked} err by {worst:.3g} against the {direction} "
                 f"{masses}-mass chain, bound {bound:g}")
    moved = ~beyond
    if moved.any():
        worst = float(np.max(errors[moved]))
        bary = pm.bary(s[moved])
        bary_worst = float(np.max(np.abs(bary - exact[moved]) / np.abs(exact[moved])))
        print(f"{path}: {np.count_nonzero(moved)} asym rows inside the cutoff within "
              f"{worst:.3g}, the barycentric form within {bary_worst:.3g}")
        if not worst <= 1.1 * bary_worst:
            sys.exit(f"{path}: asym rows inside the cutoff err by {worst:.3g}, above 1.1 times "
                     f"the barycentric form's {bary_worst:.3g}")
