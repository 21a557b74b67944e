"""Simplified non-interpolatory vector fitting with degree constraints.

Support points are placed on a fixed geometric grid (never relocated: a
single Sanathanan-Koerner pass with unit weights), and the numerator and
denominator weights are found from one linearized least-squares solve.
Degree constraints restrict the coefficients to the null space of a
Vandermonde block, exactly as in the interpolatory case but acting on the
numerator weights (negative degree) or denominator weights (positive
degree) directly.  Model complexity grows one support at a time until the
fit is uniformly below tolerance.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    FitReport,
    GeneralBarycentricModel,
    degree_diagnostics,
    eval_general,
    nullspace_basis,
    solve_constrained_weights,
    vandermonde,
)
from .errors import ConfigurationError, ConstraintError, GridError
from .util import relative_errors

DEFAULT_TOL = 1e-4
DEFAULT_MAX_TERMS = 60


@dataclass(frozen=True)
class VfConfig:
    """Knobs for :func:`vf_adaptive`; see :class:`barydeg.aaa.AaaConfig`.

    ``max_terms=None`` selects ``DEFAULT_MAX_TERMS``.
    """

    tol: float = DEFAULT_TOL
    target_degree: int = 0
    max_terms: int = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_terms is not None and self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


def geometric_supports(samples, m):
    """Geometrically spaced support points covering the sampled band.

    Returns the m+1 points 0.9 * s_min * (1.2 T / t)^(k/m), where s_min is
    the sample of smallest magnitude t and T the largest magnitude.  The
    0.9 and 1.2 factors push the grid slightly past both ends of the band,
    keeping the supports disjoint from the sample points.
    """
    mags = np.abs(samples.points)
    t = float(np.min(mags))
    T = float(np.max(mags))
    if t == 0.0:
        raise GridError("geometric support grid needs samples away from the origin")
    anchor = 0.9 * samples.points[int(np.argmin(mags))]
    if m == 0:
        return np.array([anchor])
    ratio = 1.2 * T / t
    return anchor * ratio ** (np.arange(m + 1) / m)


def vf_solve(samples, supports, target_degree):
    """One linearized least-squares fit over fixed supports.

    Minimizes the linearized residual sum |f(s'_j) d(s'_j) - n(s'_j)|^2
    under the normalization ||d|| = 1, with power sums of d (positive
    degree) or n (negative degree) constrained to zero.  Normalizing the
    denominator weights alone keeps the minimizer away from the degenerate
    d -> 0 corner that a jointly normalized solve can fall into when the
    data magnitudes are large.  One QR factorization of [A_n | f C] splits
    the sides: its trailing triangle R22 holds the residual left after the
    best numerator, so d minimizes ||R22 d|| under the constraints and n
    solves R11 n = R12 d in the least-squares sense (R11 is wide when there
    are fewer samples than numerator unknowns).  The returned model stores
    [n; d] jointly rescaled to unit norm, which leaves the represented
    function unchanged.
    """
    supports = np.asarray(supports, dtype=complex).ravel()
    mp1 = supports.size
    delta = int(target_degree)
    if abs(delta) >= mp1:
        raise ConstraintError(
            f"degree {delta} needs more than {mp1} supports"
        )
    pts, vals = samples.points, samples.values
    diff = pts[:, None] - supports[None, :]
    if np.any(diff == 0):
        raise ValueError("supports must be disjoint from the sample points")
    cauchy = 1.0 / diff
    # the constrained side gets the null-space basis (the identity at degree
    # 0), the other side stays unconstrained
    Q = nullspace_basis(vandermonde(supports, abs(delta)))
    eye = np.eye(mp1, dtype=complex)
    basis_n, basis_d = (Q, eye) if delta < 0 else (eye, Q)
    k = basis_n.shape[1]
    r = np.linalg.qr(np.hstack([cauchy @ basis_n, vals[:, None] * cauchy]), mode="r")
    den = solve_constrained_weights(r[k:, k:], basis_d)
    num = basis_n @ np.linalg.lstsq(r[:k, :k], r[:k, k:] @ den, rcond=None)[0]
    return GeneralBarycentricModel.from_weights(supports, num, den)


def vf_adaptive(samples, config):
    """Grow the geometric support grid until the fit meets tolerance.

    Complexity starts at the smallest grid admitting the degree constraint
    (m = |target_degree|) and increases one support per round.  Returns
    ``(model, report)`` with ``converged=False`` when the term cap is hit.
    """
    delta = int(config.target_degree)
    cap = DEFAULT_MAX_TERMS if config.max_terms is None else config.max_terms
    if cap < abs(delta) + 1:
        raise ConfigurationError(f"max_terms={cap} cannot accommodate degree {delta}")
    model = None
    rel = None
    converged = False
    for m in range(abs(delta), cap):
        model = vf_solve(samples, geometric_supports(samples, m), delta)
        rel = relative_errors(samples.values, eval_general(model, samples.points))
        if float(np.max(rel)) <= config.tol:
            converged = True
            break
    report = FitReport.from_errors(model, rel, converged, delta,
                                   degree_diagnostics(model, delta))
    return model, report
