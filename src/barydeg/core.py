"""Complex barycentric rational models and their linear-algebra machinery.

A rational function is represented either in interpolatory form,

    r(s) = sum_k w_k f_k / (s - s_k)  /  sum_k w_k / (s - s_k),

or in the general (non-interpolatory) form with independent numerator and
denominator weights,

    r(s) = sum_k n_k / (s - s_k)  /  sum_k d_k / (s - s_k).

Both forms share the support points ``s_k``.  The exact polynomial degrees
of numerator and denominator are encoded in the weights: the numerator
degree drops below the maximal ``m`` exactly when leading power sums of the
numerator coefficients vanish, and likewise for the denominator.  This
module provides the models, their stable evaluation, the Loewner and
Vandermonde matrices used by the fitting routines, null-space extraction
for degree constraints, and the power-sum scan that classifies the degree.

Both model kinds expose the same ``coefficients`` pair (numerator,
denominator): ``(w_k f_k, w_k)`` for the interpolatory form and
``(n_k, d_k)`` for the general form.  Evaluation, classification and the
asymptotic moments read only that pair.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintError,
    PoleEvaluationError,
    TrivialModelError,
    UndefinedValueError,
)
from .util import blockwise

_NORM_TOL = 1e-12
# A power sum counts as nonzero when it exceeds this fraction of the sum of
# its term magnitudes; degree classification and the asymptotic moments
# share it, so they always locate the same degree defects.
_REL_TOL = 1e-8


def _as_complex_vector(x, name):
    arr = np.asarray(x, dtype=complex).ravel().copy()
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def _check_distinct(points, name):
    if np.unique(points).size != points.size:
        raise ValueError(f"{name} must be pairwise distinct")


def support_scale(supports):
    """Scaling constant for power sums: max |s_k|, or 1 if all supports are 0."""
    shat = float(np.max(np.abs(supports)))
    return shat if shat > 0.0 else 1.0


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Training data: distinct complex frequency points with complex values."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _as_complex_vector(self.points, "points"))
        object.__setattr__(self, "values", _as_complex_vector(self.values, "values"))
        if self.points.size != self.values.size:
            raise ValueError("points and values must have equal length")
        _check_distinct(self.points, "sample points")

    def __len__(self):
        return self.points.size


@dataclass(frozen=True, eq=False)
class BarycentricModel:
    """Interpolatory barycentric rational function.

    Attains ``r(s_k) = f_k`` at every support point.  The weight vector is
    kept at unit Euclidean norm, matching the normalization under which the
    fitting problems are solved.
    """

    supports: np.ndarray
    support_values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "supports", _as_complex_vector(self.supports, "supports"))
        object.__setattr__(
            self, "support_values", _as_complex_vector(self.support_values, "support_values")
        )
        object.__setattr__(self, "weights", _as_complex_vector(self.weights, "weights"))
        if not (self.supports.size == self.support_values.size == self.weights.size):
            raise ValueError("supports, support_values and weights must have equal length")
        _check_distinct(self.supports, "supports")
        norm = np.linalg.norm(self.weights)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError("weight vector must have unit Euclidean norm")

    @classmethod
    def from_weights(cls, supports, support_values, weights):
        """Build a model from an unnormalized (nonzero) weight vector."""
        weights = np.asarray(weights, dtype=complex)
        norm = np.linalg.norm(weights)
        if norm == 0.0:
            raise ValueError("weight vector must be nonzero")
        return cls(supports, support_values, weights / norm)

    def __call__(self, s):
        return eval_barycentric(self, s)

    @property
    def terms(self):
        """Number m+1 of barycentric terms."""
        return self.supports.size

    @property
    def coefficients(self):
        """Numerator and denominator barycentric coefficients (w_k f_k, w_k)."""
        return self.weights * self.support_values, self.weights


@dataclass(frozen=True, eq=False)
class GeneralBarycentricModel:
    """Non-interpolatory barycentric rational function.

    Numerator and denominator carry independent weights; the stacked
    coefficient vector [num_weights; den_weights] has unit Euclidean norm.
    """

    supports: np.ndarray
    num_weights: np.ndarray
    den_weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "supports", _as_complex_vector(self.supports, "supports"))
        object.__setattr__(
            self, "num_weights", _as_complex_vector(self.num_weights, "num_weights")
        )
        object.__setattr__(
            self, "den_weights", _as_complex_vector(self.den_weights, "den_weights")
        )
        if not (self.supports.size == self.num_weights.size == self.den_weights.size):
            raise ValueError("supports, num_weights and den_weights must have equal length")
        _check_distinct(self.supports, "supports")
        if not np.any(self.den_weights != 0):
            raise ValueError("denominator weights must not all be zero")
        norm = np.linalg.norm(np.concatenate([self.num_weights, self.den_weights]))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError("stacked coefficient vector must have unit Euclidean norm")

    @classmethod
    def from_weights(cls, supports, num_weights, den_weights):
        """Build a model from unnormalized coefficients (jointly rescaled)."""
        num_weights = np.asarray(num_weights, dtype=complex)
        den_weights = np.asarray(den_weights, dtype=complex)
        norm = np.linalg.norm(np.concatenate([num_weights.ravel(), den_weights.ravel()]))
        if norm == 0.0:
            raise ValueError("coefficient vector must be nonzero")
        return cls(supports, num_weights / norm, den_weights / norm)

    def __call__(self, s):
        return eval_general(self, s)

    @property
    def terms(self):
        return self.supports.size

    @property
    def coefficients(self):
        """Numerator and denominator barycentric coefficients (n_k, d_k)."""
        return self.num_weights, self.den_weights


@dataclass(frozen=True)
class FitReport:
    """Diagnostics of a single fit (AAA or vector fitting).

    ``linf_rel_error`` and ``l2_rel_error`` are taken over the full sample
    set (max, resp. Euclidean norm, of the pointwise relative errors).
    ``effective_degree`` is the degree actually imposed on the returned
    model, sign(target) * min(|target|, terms - 1).  ``constraint_residual``
    is the largest scaled power sum that the constraints force to zero, and
    ``leading_sum_magnitudes`` the two power sums that must stay away from
    zero for the imposed degree to be exact.
    """

    terms: int
    linf_rel_error: float
    l2_rel_error: float
    converged: bool
    constraint_residual: float
    leading_sum_magnitudes: tuple
    effective_degree: int

    @classmethod
    def from_errors(cls, model, rel, converged, effective_degree, diagnostics):
        """Report of ``model`` from its pointwise relative errors ``rel``.

        ``diagnostics`` is ``degree_diagnostics(model, effective_degree)``.
        """
        residual, leading = diagnostics
        return cls(
            terms=model.terms,
            linf_rel_error=float(np.max(rel)),
            l2_rel_error=float(np.linalg.norm(rel)),
            converged=converged,
            constraint_residual=residual,
            leading_sum_magnitudes=leading,
            effective_degree=effective_degree,
        )


def eval_barycentric(model, s):
    """Evaluate an interpolatory model at scalar or array ``s``.

    Points that hit a support exactly (bitwise) return the stored support
    value; everywhere else the ratio of the two barycentric sums is used.
    """
    return _eval_ratio(model, s, lambda k: model.support_values[k])


def eval_general(model, s):
    """Evaluate a general model at scalar or array ``s``.

    At a support point the value is ``n_k / d_k`` by construction; a zero
    ``d_k`` there means the function value is undefined.
    """
    def on_support(k):
        dk = model.den_weights[k]
        if dk == 0:
            raise UndefinedValueError(
                f"model value undefined at support {model.supports[k]}: zero denominator weight"
            )
        return model.num_weights[k] / dk
    return _eval_ratio(model, s, on_support)


def _eval_ratio(model, s, on_support):
    coefficients = model.coefficients

    def block(x):
        # a single block x m array: differences, exact support hits patched
        # to 1, then inverted in place
        cauchy = np.subtract.outer(x, model.supports)
        hit_i, hit_k = np.nonzero(cauchy == 0)
        cauchy[hit_i, hit_k] = 1.0
        np.divide(1.0, cauchy, out=cauchy)
        on_hits = [on_support(k) for k in hit_k]
        out = cauchy_ratio(cauchy, coefficients, x, exempt=hit_i)
        out[hit_i] = on_hits
        return out

    return blockwise(block, s)


def cauchy_ratio(cauchy, coefficients, points, exempt=None):
    """Barycentric ratio (C @ n) / (C @ d) of a Cauchy block C.

    ``cauchy`` holds 1 / (x_i - s_k) for the points ``x_i`` in its rows and
    the supports ``s_k`` in its columns; ``coefficients`` is the (n, d)
    pair.  A vanishing denominator raises PoleEvaluationError at the first
    such point, except in the rows indexed by ``exempt``, whose values the
    caller replaces.
    """
    num_coeffs, den_coeffs = coefficients
    num = cauchy @ num_coeffs
    den = cauchy @ den_coeffs
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    bad = den == 0
    if exempt is not None:
        bad[exempt] = False
    if np.any(bad):
        point = points[np.argmax(bad)]
        raise PoleEvaluationError(f"denominator vanishes at {point}", point=point)
    return out


def loewner_matrix(points, values, supports, support_values):
    """Divided-difference matrix (f_j - f_k) / (s'_j - s_k).

    Rows run over the sample points ``s'_j`` with values ``f_j``, columns
    over the supports ``s_k`` with values ``f_k``.  Sample and support
    points must be disjoint.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    vals = np.asarray(values, dtype=complex).ravel()
    sj = np.asarray(supports, dtype=complex).ravel()
    fj = np.asarray(support_values, dtype=complex).ravel()
    if pts.size != vals.size or sj.size != fj.size:
        raise ValueError("points and values, supports and support_values must have equal lengths")
    diff = pts[:, None] - sj[None, :]
    if np.any(diff == 0):
        j, k = np.argwhere(diff == 0)[0]
        raise ValueError(f"sample point {pts[j]} coincides with support {sj[k]}")
    return (vals[:, None] - fj[None, :]) / diff


def vandermonde(supports, cols):
    """Scaled-monomial Vandermonde block: entry (k, l) = (s_k / shat)**l.

    ``shat`` is :func:`support_scale` of the supports.  The degree
    constraints, their diagnostics and the power-sum scan all read this
    block, so they share the scaled power sums c @ vandermonde(s, cols).
    """
    if cols < 0:
        raise ValueError("column count must be nonnegative")
    sj = np.asarray(supports, dtype=complex).ravel()
    return np.power.outer(sj / support_scale(sj), np.arange(cols))


def nullspace_basis(V, left_scaling=None):
    """Orthonormal basis of the plain-transpose null space of (F V).

    Returns Q with orthonormal columns such that every column q satisfies
    (F V)^T q = 0 where F = diag(left_scaling) (identity if omitted).  Note
    the plain transpose: the degree conditions are linear relations over C
    without conjugation, so the QR factorization is applied to the
    entrywise conjugate of F V.
    """
    A = np.asarray(V, dtype=complex)
    if A.ndim != 2:
        raise ValueError("V must be a matrix")
    rows, cols = A.shape
    if cols > rows - 1:
        raise ConstraintError(
            f"{cols} constraints on {rows} coefficients leave no nonzero solution"
        )
    if left_scaling is not None:
        f = np.asarray(left_scaling, dtype=complex).ravel()
        if f.size != rows:
            raise ValueError("left_scaling length must match the row count of V")
        A = f[:, None] * A
    if cols == 0:
        # no constraint: the complete QR of an empty block is the identity
        return np.eye(rows, dtype=complex)
    Qfull, _ = np.linalg.qr(np.conj(A), mode="complete")
    return Qfull[:, cols:]


def solve_constrained_weights(L, Q):
    """Unit-norm weight vector minimizing ||L w|| over the range of Q.

    Q must have orthonormal columns (typically a null-space basis encoding
    degree constraints); the minimizer is Q v with v a minimal right
    singular vector of L Q.
    """
    L = np.asarray(L, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    if Q.shape[1] == 0:
        raise ConstraintError("constraint basis has no columns")
    LQ = L @ Q
    rows, cols = LQ.shape
    if rows > cols:
        # ||LQ v|| = ||R v||: the square triangle R has the same right
        # singular vectors, and its SVD needs no rows x cols left factor
        LQ = np.linalg.qr(LQ, mode="r")
    # a wide block needs the full factorization for every right singular vector
    _, _, vh = np.linalg.svd(LQ, full_matrices=rows < cols)
    v = np.conj(vh[-1, :])
    return Q @ v


def _power_sum_scan(model, extra_orders=0):
    """Locate the degree defects mu, nu and return the scaled power sums.

    The defect of each coefficient side is the first l < terms where its
    power sum (in the scaled variable s_k / shat) is significant relative
    to the sum of its term magnitudes.  Returns
    (mu, nu, num_sums, den_sums, shat) with num_sums[i] =
    sum_k c_k (s_k/shat)^(mu+i) for i = 0..extra_orders, and likewise for
    den_sums from nu.
    """
    terms = model.terms
    P = vandermonde(model.supports, terms + extra_orders)
    coeffs = np.array(model.coefficients)
    sums = coeffs @ P
    significant = np.abs(sums[:, :terms]) > _REL_TOL * (np.abs(coeffs) @ np.abs(P[:, :terms]))
    for side, what in enumerate(("numerator", "denominator")):
        if not significant[side].any():
            raise TrivialModelError(f"all {what} power sums are negligible; model is trivial")
    mu, nu = (int(l) for l in np.argmax(significant, axis=1))
    return (mu, nu, sums[0, mu:mu + extra_orders + 1], sums[1, nu:nu + extra_orders + 1],
            support_scale(model.supports))


def evaluate(model, s):
    """Evaluate either model kind at ``s``."""
    return model(s)


def degree_diagnostics(model, effective_degree):
    """Constraint residual and leading-sum magnitudes of a constrained fit.

    For an imposed degree d, the fit forces the first |d| power sums of one
    coefficient side to vanish; the returned residual is the largest of
    those sums (in the scaled variable).  The leading-sum pair holds the
    magnitudes of the two power sums that are expected to be *nonzero* for
    the imposed degree to be exact: at order |d| on the constrained side
    and at order 0 on the other.
    """
    u, w = model.coefficients
    depth = abs(effective_degree)
    powers = vandermonde(model.supports, depth + 1)
    sides = (w, u) if effective_degree > 0 else (u, w)
    constrained, free = (np.abs(powers.T @ c) for c in sides)
    residual = float(np.max(constrained[:depth], initial=0.0))
    leading = (float(constrained[depth]), float(free[0]))
    return residual, leading[::-1] if effective_degree > 0 else leading
