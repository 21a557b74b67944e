"""Relative-error AAA with an optional relative-degree constraint.

Support points are picked greedily at the sample of largest relative error;
after each pick the barycentric weights are recomputed as the minimal
singular vector of the Loewner least-squares problem over the remaining
samples, restricted to the null space that encodes the degree constraint.
The iteration stops as soon as the freshly picked point is already matched
to tolerance by the current model, which is then returned unchanged.

At the steps m <= |d| the constraints leave the weights a single
direction, the one column of their basis, so those steps need no
least-squares problem.  From the first step with more directions on, the
fit keeps one block over the remaining samples: the Loewner block L, built
there by one ``loewner_matrix`` call.  Each step holds at most two such
blocks at once.  Its values on the remaining samples come from their Cauchy
block, built afresh for that step alone beside L, and from
``BarycentricModel._pair``.  The pick then copies L without the new
support's row and with one more column, which ``loewner_matrix`` builds,
and the old L goes.  The weight solve holds L and at most one more block of
its size.  A fit that converges within |d| + 1 terms never builds L.

The fits of one degree sweep share their fully constrained prefix: with a
``spine`` (see :func:`aaa`) a fit at target d resumes after the first |d|
steps, which the fit at the next smaller |d| of the same sign already took,
and takes its first pick from the record instead of checking the model
those steps left; a fresh fit is a resume after zero steps, so there is one
way into the loop.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    BarycentricModel,
    FitReport,
    cauchy_block,
    cauchy_ratio,
    degree_diagnostics,
    loewner_matrix,
    nullspace_basis,
    solve_constrained_weights,
    vandermonde,
)
from .errors import ConfigurationError
from .util import relative_errors

DEFAULT_TOL = 1e-6  # the CLI's tol for AAA when none is given
DEFAULT_MAX_TERMS = 120


@dataclass(frozen=True)
class AaaConfig:
    """Knobs for :func:`aaa`.

    ``target_degree`` is the relative degree to impose (0 recovers the
    unconstrained algorithm; negative degrees constrain the numerator
    side).  ``max_terms`` caps the number of barycentric terms; ``None``
    selects ``min(len(samples) - 1, 120)``.
    """

    tol: float
    target_degree: int = 0
    max_terms: int = None

    def __post_init__(self):
        # integers only: where int() would truncate 2.5, operator.index raises
        object.__setattr__(self, "target_degree", operator.index(self.target_degree))
        if self.max_terms is not None:
            object.__setattr__(self, "max_terms", operator.index(self.max_terms))
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be finite and positive")
        if self.max_terms is not None and self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


def aaa(samples, config, *, spine=None):
    """Fit a degree-constrained interpolatory rational model to the samples.

    Returns ``(model, report)``.  Non-convergence within the term cap is
    reported, not raised, so callers can still compare the result against
    other fits.

    ``spine`` lets fits of the same samples under the same tolerance share
    their fully constrained steps, whatever their term caps: a cap only
    decides where a fit stops.  At step m a fit at target d imposes
    min(|d|, m) constraints on m + 1 weights, so the steps m <= |d| depend
    on d only through its sign.  The dict records them flat as
    ``spine[sign * m] = (support index, weights, pick)``, key 0 serving both
    signs; ``pick`` is the (pool row, sample index) that step m's weights
    pick at step m + 1, ``None`` until a fit makes that pick without
    converging there.  A fit records its steps m <= |d| and their picks
    where the dict lacks them.  A fit at d != 0 under a cap of T terms
    resumes after step min(|d|, T) - 1 when the dict holds it, never deeper,
    and below its cap takes that step's pick from the dict when it is
    there; every other fit, fresh or at degree 0, resumes after zero steps.
    A check that converges or ends the fit at its cap is always evaluated,
    since the report needs its errors.

    The weights of a step whose constraint basis has one column are that
    column; the Loewner block is built at the first step whose basis has
    more.
    """
    pts, vals = samples.points, samples.values
    mprime = pts.size
    if mprime < 2:
        raise ConfigurationError("AAA needs at least 2 samples")
    delta = config.target_degree
    if mprime < abs(delta) + 1:
        raise ConfigurationError(
            f"target degree {delta} needs at least {abs(delta) + 1} samples, got {mprime}"
        )
    tol = config.tol
    cap = DEFAULT_MAX_TERMS if config.max_terms is None else config.max_terms
    # keep at least one sample outside the support set so the least-squares
    # problem never loses all of its rows
    cap = min(cap, mprime - 1)

    sign = -1 if delta < 0 else 1
    if spine is None:
        spine = {}
    # resume after step min(|d|, cap) - 1 of the recorded path when the record
    # holds it, else after zero steps (as a fresh or degree-0 fit always does)
    depth = min(abs(delta), cap)
    start = depth if sign * (depth - 1) in spine else 0
    sup_idx = [spine[sign * m][0] for m in range(start)]
    weights = spine[sign * (start - 1)][1] if start else None
    # samples not yet picked as supports, in sample order; the rows of the
    # Loewner block run over this pool
    pool = np.delete(np.arange(mprime), sup_idx)
    sj, fj = pts[sup_idx], vals[sup_idx]
    x = pts[pool]
    L = None  # built at the first step whose weights have more than one direction
    mean = complex(np.mean(vals))
    approx = np.full(mprime, mean, dtype=complex)
    converged = False

    for m in range(start, cap + 1):
        prev = sign * (m - 1)  # step m - 1's key, recorded when 0 < m <= |d| + 1
        # below the cap, a resumed fit takes step m - 1's pick from the record
        pick = spine[prev][2] if m == start and 0 < m < cap else None
        if pick is None:
            if weights is not None:
                # a temporary block, without hits: pool points are never supports
                approx[pool] = cauchy_ratio(cauchy_block(x, sj)[0],
                                            BarycentricModel._pair(fj, weights), x)
                approx[sup_idx] = vals[sup_idx]
            rel = relative_errors(vals, approx)
            row = int(np.argmax(rel[pool]))
            j = int(pool[row])
            if rel[j] <= tol:
                converged = True
                break
            if 0 < m <= abs(delta) + 1 and spine[prev][2] is None:
                spine[prev] = (*spine[prev][:2], (row, j))
        else:
            row, j = pick
        pool = np.delete(pool, row)
        if m == cap:
            break
        sup_idx.append(j)
        sj = pts[sup_idx]
        fj = vals[sup_idx]
        V = vandermonde(sj, min(abs(delta), m))
        Q = nullspace_basis(V, left_scaling=fj if delta < 0 else None)
        x = pts[pool]
        if Q.shape[1] == 1:
            # one direction left: the minimal singular vector of the 1 x 1
            # triangle is exactly 1, so ``solve_constrained_weights`` would
            # return Q's column; copied, so the record keeps no square block
            weights = Q[:, 0].copy()
        else:
            fx = vals[pool]
            L = (loewner_matrix(x, fx, sj, fj) if L is None
                 else _grow(L, row, loewner_matrix(x, fx, sj[-1:], fj[-1:])[:, 0]))
            weights = solve_constrained_weights(L, Q)
        if m <= abs(delta):
            spine.setdefault(sign * m, (j, weights, None))

    if weights is None:
        # the initial constant already matches the worst point: return it as
        # a single-term model anchored at that point
        model = BarycentricModel([pts[j]], [mean], [1.0])
    else:
        model = BarycentricModel.from_weights(sj, fj, weights)

    effective = int(np.sign(delta)) * min(abs(delta), model.terms - 1)
    report = FitReport.from_errors(model, rel, converged, effective,
                                   degree_diagnostics(model, effective))
    return model, report


def _grow(block, row, column):
    """``block`` without row ``row`` and with ``column`` appended."""
    out = np.empty((block.shape[0] - 1, block.shape[1] + 1), dtype=complex)
    out[:row, :-1] = block[:row]
    out[row:, :-1] = block[row + 1:]
    out[:, -1] = column
    return out
