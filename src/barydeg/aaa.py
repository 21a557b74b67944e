"""Relative-error AAA with an optional relative-degree constraint.

Support points are picked greedily at the sample of largest relative error;
after each pick the barycentric weights are recomputed as the minimal
singular vector of the Loewner least-squares problem over the remaining
samples, restricted to the null space that encodes the degree constraint.
The iteration stops as soon as the freshly picked point is already matched
to tolerance by the current model, which is then returned unchanged.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    BarycentricModel,
    FitReport,
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


def aaa(samples, config):
    """Fit a degree-constrained interpolatory rational model to the samples.

    Returns ``(model, report)``.  Non-convergence within the term cap is
    reported, not raised, so callers can still compare the result against
    other fits.
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
    in_pool = np.ones(mprime, dtype=bool)
    sup_idx = []
    model = None
    converged = False
    j = 0

    for m in range(cap + 1):
        rel = relative_errors(vals, approx)
        rel[~in_pool] = -np.inf
        j = int(np.argmax(rel))
        in_pool[j] = False
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
        L = loewner_matrix(pts[in_pool], vals[in_pool], sj, fj)
        model = BarycentricModel.from_weights(sj, fj, solve_constrained_weights(L, Q))
        approx[in_pool] = model(pts[in_pool])
        approx[sup_idx] = fj

    if model is None:
        # the initial constant already matches the worst point: return it as
        # a single-term model anchored at that point
        model = BarycentricModel([pts[j]], [mean], [1.0])

    effective = int(np.sign(delta)) * min(abs(delta), model.terms - 1)
    report = FitReport.from_errors(model, relative_errors(vals, approx), converged,
                                   effective, degree_diagnostics(model, effective))
    return model, report
