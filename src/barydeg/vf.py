"""Simplified non-interpolatory vector fitting with degree constraints.

Support points are placed on a fixed geometric grid (never relocated: a
single Sanathanan-Koerner pass with unit weights), and the numerator and
denominator weights are found from one linearized least-squares solve.
Degree constraints restrict the coefficients to the null space of a
Vandermonde block, exactly as in the interpolatory case but acting on the
numerator weights (negative degree) or denominator weights (positive
degree) directly.  Model complexity grows one support at a time until the
fit is uniformly below tolerance.  A term cap too small to hold the
target degree lowers the imposed degree, as in AAA (see :func:`vf_adaptive`).

Grid m and the QR triangle R of its block [C | f C] (C the Cauchy block
1 / (s'_j - s_k) of the samples) depend on the samples and m alone, so a
round's solve (:func:`vf_solve`) reads R and never the samples: a
numerator constraint re-triangularizes a block of R's size, not of the
samples'.  A round that factors its grid writes [C | f C] into one
row-major buffer and keeps only R; it takes its values from its own Cauchy
block (``core.cauchy_block``, as a model call does), built after the solve
once that buffer is freed.  The model is built once, after the last round.
The fits of one degree sweep share their triangles: with a ``grids``
record (see :func:`vf_adaptive`) the fits at d != 0 reuse the grids that
the degree-0 fit factored.
"""

from dataclasses import dataclass

import numpy as np

from .aaa import AaaConfig
from .core import (
    FitReport,
    GeneralBarycentricModel,
    cauchy_block,
    cauchy_ratio,
    degree_diagnostics,
    eval_general,
    nullspace_basis,
    solve_constrained_weights,
    vandermonde,
)
from .errors import GridError
from .util import relative_errors

DEFAULT_TOL = 1e-4
DEFAULT_MAX_TERMS = 60


@dataclass(frozen=True)
class VfConfig(AaaConfig):
    """Knobs for :func:`vf_adaptive`; see :class:`barydeg.aaa.AaaConfig`.

    ``tol`` defaults to ``DEFAULT_TOL``; ``max_terms=None`` selects
    ``DEFAULT_MAX_TERMS``.
    """

    tol: float = DEFAULT_TOL


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


def vf_solve(r, supports, target_degree):
    """One linearized least-squares fit over fixed supports.

    Minimizes the linearized residual sum |f(s'_j) d(s'_j) - n(s'_j)|^2
    under the normalization ||d|| = 1, with power sums of d (positive
    degree) or n (negative degree) constrained to zero.  Normalizing the
    denominator weights alone keeps the minimizer away from the degenerate
    d -> 0 corner that a jointly normalized solve can fall into when the
    data magnitudes are large.

    The samples enter only through ``r``, the triangle of the QR
    factorization of their block [C | f C] over ``supports``.  A numerator
    constraint n = Q u turns the block into [C Q | f C], whose triangle is
    that of the small block [R1 Q | R2] (R1, R2 the two column halves of
    ``r``), so no sample-sized matrix is factored again.  The trailing
    triangle R22 then holds the residual left after the best numerator, so d
    minimizes ||R22 d|| under the constraints and n solves R11 n = R12 d in
    the least-squares sense (R11 is wide when there are fewer samples than
    numerator unknowns).  A degree the supports cannot hold raises
    ``ConstraintError`` from ``nullspace_basis``.  Returns the unnormalized
    pair ``(num, den)``; ``GeneralBarycentricModel.from_weights`` rescales
    it to a model.
    """
    mp1 = r.shape[1] // 2
    delta = int(target_degree)
    # the constrained side gets the null-space basis (the identity at degree
    # 0), the other side stays unconstrained
    Q = nullspace_basis(vandermonde(supports, abs(delta)))
    eye = np.eye(mp1, dtype=complex)
    basis_n, basis_d = (Q, eye) if delta < 0 else (eye, Q)
    if delta < 0:
        r = np.linalg.qr(np.hstack([r[:, :mp1] @ Q, r[:, mp1:]]), mode="r")
    k = basis_n.shape[1]
    den = solve_constrained_weights(r[k:, k:], basis_d)
    num = basis_n @ np.linalg.lstsq(r[:k, :k], r[:k, k:] @ den, rcond=None)[0]
    return num, den


def vf_adaptive(samples, config, *, grids=None):
    """Grow the geometric support grid until the fit meets tolerance.

    Under the term cap T (``DEFAULT_MAX_TERMS`` when ``config.max_terms`` is
    ``None``) the fit imposes degree d = sign(target) * min(|target|, T - 1).
    Complexity starts at the smallest grid admitting it (m = |d|) and
    increases one support per round.  Returns ``(model, report)`` with
    ``converged=False`` when the term cap is hit.

    ``grids`` lets the fits of one sweep over the same samples share their
    factorizations: grid m and the triangle R of its block [C | f C]
    depend on the samples and m alone.  A fit at d = 0 empties the dict and
    records ``grids[m] = (supports, R)`` for every grid it factors; a fit at
    any other d takes R from the dict when it holds m, and factors the
    other grids without recording them.  So every sweep does the same work,
    however often it is repeated.
    """
    cap = DEFAULT_MAX_TERMS if config.max_terms is None else config.max_terms
    target = int(config.target_degree)
    delta = int(np.sign(target)) * min(abs(target), cap - 1)
    pts, vals = samples.points, samples.values
    # a degree-0 fit starts the record afresh; the other fits only read it.
    # Without a record nothing is kept, so each round's triangle is freed.
    record = delta == 0 and grids is not None
    if record:
        grids.clear()
    converged = False
    for m in range(abs(delta), cap):
        if grids and m in grids:
            supports, r = grids[m]
        else:
            supports = geometric_supports(samples, m)
            r = _factor(samples, supports)
            if record:
                grids[m] = (supports, r)
        num, den = vf_solve(r, supports, delta)
        # normalised as from_weights does, so the values are the model's;
        # the grid's supports were checked disjoint when it was factored
        scale = np.linalg.norm(np.concatenate([num, den]))
        cauchy = cauchy_block(pts, supports)[0]
        rel = relative_errors(vals, cauchy_ratio(cauchy, (num / scale, den / scale), pts))
        # free this grid's block before the next grid's is factored
        del cauchy
        if float(np.max(rel)) <= config.tol:
            converged = True
            break
    model = GeneralBarycentricModel.from_weights(supports, num, den)
    rel = relative_errors(vals, eval_general(model, pts))
    report = FitReport.from_errors(model, rel, converged, delta,
                                   degree_diagnostics(model, delta))
    return model, report


def _factor(samples, supports):
    """Triangle R of the QR factorization of [C | f C].

    Both halves are written in place into one samples x 2(m+1) buffer, the
    Cauchy half by ``cauchy_block``.  The buffer is row-major, unlike the
    blocks the evaluators use, because ``np.linalg.qr`` takes more scratch
    on a column-major input; it is dropped on return.
    """
    pts, vals = samples.points, samples.values
    mp1 = supports.size
    block = np.empty((pts.size, 2 * mp1), dtype=complex)
    # the Cauchy half in place; its hit rows are samples that are supports
    if cauchy_block(pts, supports, out=block[:, :mp1])[1][0].size:
        raise ValueError("supports must be disjoint from the sample points")
    for k in range(mp1):
        np.multiply(vals, block[:, k], out=block[:, mp1 + k])
    return np.linalg.qr(block, mode="r")
