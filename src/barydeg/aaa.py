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

The fits of one degree sweep share their fully constrained prefix through a
``spine`` record (see :func:`aaa`): a step that a fit of the same sign
already took is read from it, at O(1) cost.
"""

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
from .util import integer, positive, relative_errors

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
        object.__setattr__(self, "target_degree", integer(self.target_degree, "target_degree"))
        if self.max_terms is not None:
            object.__setattr__(self, "max_terms", integer(self.max_terms, "max_terms", 1))
        positive(self.tol, "tol")


def aaa(samples, config, *, spine=None):
    """Fit a degree-constrained interpolatory rational model to the samples.

    Returns ``(model, report)``.  Non-convergence within the term cap is
    reported, not raised, so callers can still compare the result against
    other fits.

    ``spine`` lets fits of the same samples under the same tolerance share
    their fully constrained steps, whatever their term caps: a cap only
    decides where a fit stops.  Step m adds a support and imposes
    min(|d|, m) constraints on m + 1 weights, so the steps m <= |d| of a fit
    at target d depend on d only through its sign.  The dict records them
    as ``spine[sign * m] = (support index, weights, next support index)``,
    key 0 serving both signs; the next index, step m + 1's support, is
    ``None`` until a fit picks it.  One rule reads the record: step m takes
    its weights from it when m <= |d| and it holds step m, and below the cap
    takes its support from step m - 1's pick when 1 <= m <= |d| + 1 and the
    pick is there.  A check that converges or ends the fit at its cap is
    thus always evaluated, since the report needs its errors.

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
    sup_idx = []
    weights = None
    # the samples not yet picked as supports; the rows of the Loewner block
    # run over them in sample order
    pool = np.ones(mprime, dtype=bool)
    L = None  # built at the first step whose weights have more than one direction
    mean = complex(np.mean(vals))
    approx = np.full(mprime, mean, dtype=complex)
    converged = False

    for m in range(cap + 1):
        # step m - 1's record, which holds step m's support once a fit took it
        prev = spine[sign * (m - 1)] if 0 < m <= abs(delta) + 1 else None
        if prev is not None and prev[2] is not None and m < cap:
            j = prev[2]
        else:
            if weights is not None:
                # a temporary block, without hits: pool points are never supports
                x = pts[pool]
                approx[pool] = cauchy_ratio(cauchy_block(x, sj)[0],
                                            BarycentricModel._pair(fj, weights), x)
                approx[sup_idx] = vals[sup_idx]
            rel = relative_errors(vals, approx)
            j = int(np.flatnonzero(pool)[np.argmax(rel[pool])])
            if rel[j] <= tol:
                converged = True
                break
            if prev is not None and prev[2] is None:
                spine[sign * (m - 1)] = (*prev[:2], j)
        pool[j] = False
        if m == cap:
            break
        sup_idx.append(j)
        sj = pts[sup_idx]
        fj = vals[sup_idx]
        if m <= abs(delta) and sign * m in spine:
            weights = spine[sign * m][1]
            continue
        V = vandermonde(sj, min(abs(delta), m))
        Q = nullspace_basis(V, left_scaling=fj if delta < 0 else None)
        if Q.shape[1] == 1:
            # one direction left: the minimal singular vector of the 1 x 1
            # triangle is exactly 1, so ``solve_constrained_weights`` would
            # return Q's column; copied, so the record keeps no square block
            weights = Q[:, 0].copy()
        else:
            x, fx = pts[pool], vals[pool]
            L = (loewner_matrix(x, fx, sj, fj) if L is None
                 else _grow(L, np.count_nonzero(pool[:j]),
                            loewner_matrix(x, fx, sj[-1:], fj[-1:])[:, 0]))
            weights = solve_constrained_weights(L, Q)
        if m <= abs(delta):
            spine[sign * m] = (j, weights, None)

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
