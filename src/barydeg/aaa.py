"""Relative-error AAA with an optional relative-degree constraint.

Support points are picked greedily at the sample of largest relative error;
after each pick the barycentric weights are recomputed as the minimal
singular vector of the Loewner least-squares problem over the remaining
samples, restricted to the null space that encodes the degree constraint.
The iteration stops as soon as the freshly picked point is already matched
to tolerance by the current model, which is then returned unchanged.

The fit keeps its Loewner block and its Cauchy block 1 / (s_j - s_k) over
the remaining samples for its whole run.  Each pick drops the new support's
row from both and appends one column to each; ``loewner_matrix`` builds the
new Loewner column, and the Cauchy block gives the step's values on the
remaining samples without building a model.

The fits of one degree sweep share their fully constrained prefix: with a
``spine`` (see :func:`aaa`) a fit at target d resumes after the first |d|
steps, which the fit at the next smaller |d| of the same sign already took.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    BarycentricModel,
    FitReport,
    cauchy_ratio,
    degree_diagnostics,
    loewner_matrix,
    nullspace_basis,
    solve_constrained_weights,
    vandermonde,
)
from .errors import ConfigurationError
from .util import relative_errors

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
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_terms is not None and self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


def aaa(samples, config, *, spine=None):
    """Fit a degree-constrained interpolatory rational model to the samples.

    Returns ``(model, report)``.  Non-convergence within the term cap is
    reported, not raised, so callers can still compare the result against
    other fits.

    ``spine`` lets fits of the same samples under the same tolerance and
    term cap share their fully constrained steps.  At step m a fit at target
    d imposes min(|d|, m) constraints on m + 1 weights, so the steps
    m <= |d| depend on d only through its sign: they form one path per sign,
    kept in ``spine[d < 0]`` as a list of (support index, weights) pairs,
    one per step.  A fit appends the steps of its path that the list lacks,
    and a fit at |d| >= 1 whose path reaches step |d| - 1 resumes after that
    step, so it never repeats a step of the fit at the next smaller |d|.
    """
    pts, vals = samples.points, samples.values
    mprime = pts.size
    if mprime < 2:
        raise ConfigurationError("AAA needs at least 2 samples")
    delta = int(config.target_degree)
    if mprime < abs(delta) + 1:
        raise ConfigurationError(
            f"target degree {delta} needs at least {abs(delta) + 1} samples, got {mprime}"
        )
    tol = config.tol
    cap = DEFAULT_MAX_TERMS if config.max_terms is None else config.max_terms
    # keep at least one sample outside the support set so the least-squares
    # problem never loses all of its rows
    cap = min(cap, mprime - 1)

    mean = complex(np.mean(vals))
    approx = np.full(mprime, mean, dtype=complex)
    # samples not yet picked as supports, in sample order; the rows of both
    # kept blocks (Loewner and Cauchy 1 / (s_j - s_k)) run over this pool
    pool = np.arange(mprime)
    L = C = np.empty((mprime, 0), dtype=complex)
    sup_idx = []
    weights = None
    converged = False
    j = 0
    start = 0
    # the first step has no constraint, so both sign paths start with it
    paths = [] if spine is None else [spine.setdefault(neg, []) for neg in
                                      ((delta < 0,) if delta else (False, True))]

    if paths and 1 <= abs(delta) <= len(paths[0]):
        # resume after step |d| - 1: rebuild the blocks and the values in one
        # go; the entries are the same elementwise expressions as the grown ones
        start = abs(delta)
        sup_idx = [i for i, _ in paths[0][:start]]
        weights = paths[0][start - 1][1]
        sj, fj = pts[sup_idx], vals[sup_idx]
        pool = np.delete(pool, sup_idx)
        x, fx = pts[pool], vals[pool]
        L = loewner_matrix(x, fx, sj, fj)
        C = 1.0 / (x[:, None] - sj)
        approx[pool] = _pool_values(C, weights, fj, x)
        approx[sup_idx] = vals[sup_idx]

    for m in range(start, cap + 1):
        rel = relative_errors(vals, approx)
        row = int(np.argmax(rel[pool]))
        j = int(pool[row])
        pool = np.delete(pool, row)
        if rel[j] <= tol:
            converged = True
            break
        if m == cap:
            break
        sup_idx.append(j)
        sj = pts[sup_idx]
        fj = vals[sup_idx]
        V = vandermonde(sj, min(abs(delta), m))
        Q = nullspace_basis(V, left_scaling=fj if delta < 0 else None)
        x, fx = pts[pool], vals[pool]
        L = _grow(L, row, loewner_matrix(x, fx, sj[-1:], fj[-1:])[:, 0])
        C = _grow(C, row, 1.0 / (x - pts[j]))
        weights = solve_constrained_weights(L, Q)
        if m <= abs(delta):
            for path in paths:
                if len(path) == m:
                    path.append((j, weights))
        approx[pool] = _pool_values(C, weights, fj, x)
        approx[j] = vals[j]

    if weights is None:
        # the initial constant already matches the worst point: return it as
        # a single-term model anchored at that point
        model = BarycentricModel([pts[j]], [mean], [1.0])
    else:
        model = BarycentricModel.from_weights(sj, fj, weights)

    effective = int(np.sign(delta)) * min(abs(delta), model.terms - 1)
    report = FitReport.from_errors(model, relative_errors(vals, approx), converged,
                                   effective, degree_diagnostics(model, effective))
    return model, report


def _pool_values(C, weights, fj, x):
    """The step's model values at the pool points ``x`` of the Cauchy block."""
    # normalised as from_weights does, so the values are the model's
    w = weights / np.linalg.norm(weights)
    return cauchy_ratio(C, (w * fj, w), x)


def _grow(block, row, column):
    """``block`` without row ``row`` and with ``column`` appended."""
    out = np.empty((block.shape[0] - 1, block.shape[1] + 1), dtype=complex)
    out[:row, :-1] = block[:row]
    out[row:, :-1] = block[row + 1:]
    out[:, -1] = column
    return out
