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

Grid m, the QR triangle R of its block [C | f C] (C the Cauchy block
1 / (s'_j - s_k) of the samples) and what the degree constraints add to R
depend on the samples and m alone.  A round that factors its grid builds
all of it once (a ``_Grid``), so that each round's solve
(:func:`vf_solve`), at any degree, is one SVD of a block of R's size, the
last step of the weight solve that AAA uses
(:func:`~barydeg.core.solve_constrained_weights`), and one triangular
solve, and never reads the samples.  The factoring writes
[C | f C] into one row-major buffer and keeps only R's factors; a round's
values come from its own Cauchy block, built after the solve once that
buffer is freed, and from ``GeneralBarycentricModel._pair``.  The model is
built once, after the last round.  The fits of one degree sweep share their
grids through a ``grids`` record (see :func:`vf_adaptive`).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .aaa import AaaConfig
from .core import (
    FitReport,
    GeneralBarycentricModel,
    _min_right_vector,
    cauchy_block,
    cauchy_ratio,
    degree_diagnostics,
    nullspace_basis,
    solve_constrained_weights,
    vandermonde,
)
from .core import evaluate as eval_general
from .errors import ConstraintError, GridError
from .util import error_scale, relative_errors

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


class _Grid(NamedTuple):
    """Support grid m and what every round on it solves from.

    R is the triangle of the QR of [C | f C], with blocks R11, R12 (its
    first m+1 rows) and R22; ``r`` keeps R22.  ``qf`` is the complete
    unitary factor of the QR of conj(V), V the grid's m-column Vandermonde
    block.  Householder QR is nested, so Qf[:, k:] spans the null space of
    k power-sum constraints for every k <= m, and reversing Qf's columns
    puts each of these bases first.  ``t`` is the triangle [Rw | H] of
    [R11 Qf[:, ::-1] | R12], nested the same way: Rw[:j, :j] is the
    triangle of R11 Qf[:, k:] (reversed, j = m+1-k).  With fewer samples
    than unknowns ``r`` is the whole of R and there are no factors.
    """

    supports: np.ndarray
    r: np.ndarray
    qf: np.ndarray = None
    t: np.ndarray = None


def _grid(samples, supports):
    """Factor ``supports`` on ``samples`` into a :class:`_Grid`."""
    r = _factor(samples, supports)
    mp1 = supports.size
    if r.shape[0] < r.shape[1]:
        return _Grid(supports, r)
    qf = np.linalg.qr(np.conj(vandermonde(supports, mp1 - 1)), mode="complete")[0]
    t = np.linalg.qr(np.hstack([r[:mp1, :mp1] @ qf[:, ::-1], r[:mp1, mp1:]]), mode="r")
    return _Grid(supports, r[mp1:, mp1:].copy(), qf, t)


def vf_solve(grid, target_degree):
    """One linearized least-squares fit over a grid's fixed supports.

    Minimizes the linearized residual sum |f(s'_j) d(s'_j) - n(s'_j)|^2
    under the normalization ||d|| = 1, with power sums of d (positive
    degree) or n (negative degree) constrained to zero.  Normalizing the
    denominator weights alone keeps the minimizer away from the degenerate
    d -> 0 corner that a jointly normalized solve can fall into when the
    data magnitudes are large.

    The samples enter only through ``grid`` (see :class:`_Grid`): the
    residual of the pair (n, d) is ||R11 n - R12 d||^2 + ||R22 d||^2.  At
    degree delta, with k = max(-delta, 0) numerator constraints,
    n = Qf[:, k:] u; with j = m+1-k and u' = u reversed the residual is
    ||Rw[:j, :j] u' - H[:j] d||^2 + ||[H[j:]; R22] d||^2.  So a round is
    one SVD for d and one triangular solve for u':

    * delta > 0: d = Qf[:, delta:] v, v minimizing ||R22 Qf[:, delta:] v||,
      which is ``solve_constrained_weights(R22, Qf[:, delta:])``;
    * delta <= 0: d minimizes ||[H[j:]; R22] d|| (R22 alone at 0), the last
      right singular vector that the weight solve also ends in;

    and Rw[:j, :j] u' = H[:j] d.  A grid with fewer samples than unknowns
    takes the general solve of :func:`_solve_few_samples`.  A degree the
    supports cannot hold raises ``ConstraintError``.  Returns the
    unnormalized pair ``(num, den)``; ``GeneralBarycentricModel.from_weights``
    rescales it to a model.
    """
    delta = int(target_degree)
    if grid.qf is None:
        return _solve_few_samples(grid.r, grid.supports, delta)
    mp1 = grid.supports.size
    if abs(delta) >= mp1:
        raise ConstraintError(
            f"{abs(delta)} constraints on {mp1} coefficients leave no nonzero solution")
    k = max(-delta, 0)
    j = mp1 - k
    h = grid.t[:, mp1:]
    if delta > 0:
        den = solve_constrained_weights(grid.r, grid.qf[:, delta:])
    else:
        den = _min_right_vector(np.vstack([h[j:], grid.r]) if k else grid.r)
    u = np.linalg.solve(grid.t[:j, :j], h[:j] @ den)
    return grid.qf[:, k:] @ u[::-1], den


def _solve_few_samples(r, supports, delta):
    """:func:`vf_solve` for a triangle with fewer rows than columns.

    The constrained side gets the null-space basis Q of its degree.  A
    numerator constraint n = Q u turns the block into [C Q | f C], whose
    triangle is that of [R1 Q | R2] (R1, R2 the two column halves of
    ``r``).  The trailing triangle holds the residual left after the best
    numerator, and n solves the leading one in the least-squares sense,
    which takes the minimum-norm solution when that triangle is wide.
    """
    mp1 = r.shape[1] // 2
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
    factorizations: grid m and the factors of the triangle R of its block
    [C | f C] (a ``_Grid``, from which :func:`vf_solve` fits any degree)
    depend on the samples and m alone.  A fit given a dict takes grid m
    from it when it holds m, and records ``grids[m]`` for every grid it
    factors; without one, each round's grid is freed.

    Every round measures its values against the same samples, so the fit
    takes their error scale (``error_scale``) once and passes it to each
    round's ``relative_errors`` and to the report's.
    """
    cap = DEFAULT_MAX_TERMS if config.max_terms is None else config.max_terms
    target = config.target_degree
    delta = int(np.sign(target)) * min(abs(target), cap - 1)
    pts, vals = samples.points, samples.values
    scale = error_scale(vals)
    converged = False
    for m in range(abs(delta), cap):
        if grids and m in grids:
            grid = grids[m]
        else:
            grid = _grid(samples, geometric_supports(samples, m))
            if grids is not None:
                grids[m] = grid
        supports = grid.supports
        num, den = vf_solve(grid, delta)
        # a temporary block; _factor checked the supports disjoint from the samples
        rel = relative_errors(vals, cauchy_ratio(cauchy_block(pts, supports)[0],
                                                 GeneralBarycentricModel._pair(num, den), pts),
                              scale)
        if float(np.max(rel)) <= config.tol:
            converged = True
            break
    model = GeneralBarycentricModel.from_weights(supports, num, den)
    rel = relative_errors(vals, eval_general(model, pts), scale)
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
