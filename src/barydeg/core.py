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
asymptotic moments read only that pair.  The kinds share one evaluator,
which takes a support point's value from the kind's ``_on_support(k)``:
``f_k``, or ``n_k / d_k`` (undefined when ``d_k`` is 0).  They and
``SampleSet`` share one set of checks: every field is a finite, non-empty
complex vector, the fields have equal length, and the first field's points
are pairwise distinct.

:func:`cauchy_block` is the one builder of Cauchy blocks 1 / (x_j - s_k):
model calls, AAA's values on its pool and VF's values in each round all go
through it and on to :func:`cauchy_ratio`, so they share one layout and one
matrix-vector product.  A model call is the block kernel of
:func:`~barydeg.util.blockwise`: each block's ratio is written straight into
its slice of the output.  A point equal to a support (a hit) is an exact zero
difference, so the builder looks for hits only when inverting the block
traps a division by zero.  The fits take each step's pair from the kind's
``_pair``, which also makes the pair that ``from_weights`` stores.  The
block is column-major: each column is one contiguous subtraction, and the
ratio's products run down the columns.  VF's QR buffer [C | f C] is the
exception; it stays row-major because ``np.linalg.qr`` takes more scratch
on a column-major input.
"""

import functools
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    ConstraintError,
    PoleEvaluationError,
    TrivialModelError,
    UndefinedValueError,
)
from .util import blockwise, integer

_NORM_TOL = 1e-12
# A power sum counts as nonzero when it exceeds this fraction of the sum of
# its term magnitudes; degree classification and the asymptotic moments
# share it, so they always locate the same degree defects.
_REL_TOL = 1e-8
# the hit indices of a Cauchy block without hits
_NO_HITS = (np.empty(0, dtype=np.intp),) * 2


def _as_complex_vector(x, name):
    arr = np.asarray(x, dtype=complex).ravel().copy()
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def support_scale(supports):
    """Scaling constant for power sums: max |s_k|, or 1 if all supports are 0."""
    shat = float(np.max(np.abs(supports)))
    return shat if shat > 0.0 else 1.0


@functools.cache
def _field_names(cls):
    """Names of a dataclass's fields, in order; read once per class."""
    return tuple(f.name for f in fields(cls))


class _PointSet:
    """Checks shared by sample sets and both model kinds.

    Every field is a complex vector (``_as_complex_vector``), all fields
    have equal length, and the first field's points are pairwise distinct.
    """

    _points_name = "supports"  # the first field, as the distinctness error names it

    def __post_init__(self):
        names = _field_names(type(self))
        for name in names:
            object.__setattr__(self, name, _as_complex_vector(getattr(self, name), name))
        if len({getattr(self, name).size for name in names}) > 1:
            raise ValueError(f"{', '.join(names[:-1])} and {names[-1]} must have equal length")
        # equal points sort next to each other; 0.0 == -0.0, as in np.unique
        p = np.sort(getattr(self, names[0]))
        if np.count_nonzero(p[1:] == p[:-1]):
            raise ValueError(f"{self._points_name} must be pairwise distinct")


@dataclass(frozen=True, eq=False)
class SampleSet(_PointSet):
    """Training data: distinct complex frequency points with complex values."""

    points: np.ndarray
    values: np.ndarray

    _points_name = "sample points"

    def __len__(self):
        return self.points.size


class _Barycentric(_PointSet):
    """Evaluation shared by both model kinds.

    A kind supplies its ``coefficients`` pair and ``_on_support(k)``, its
    value at support ``k``.
    """

    def __call__(self, s):
        """Evaluate at scalar or array ``s``; a support (bitwise) gives its value."""
        return blockwise(self._kernel(), s)

    def _kernel(self):
        """The block kernel ``block(x, out)``: the values at ``x``, written into ``out``."""
        coefficients = self.coefficients

        def block(x, out):
            cauchy, (hit_i, hit_k) = cauchy_block(x, self.supports)
            on_hits = [self._on_support(k) for k in hit_k]
            cauchy_ratio(cauchy, coefficients, x, exempt=hit_i, out=out)
            out[hit_i] = on_hits

        return block

    @property
    def terms(self):
        """Number m+1 of barycentric terms."""
        return self.supports.size


@dataclass(frozen=True, eq=False)
class BarycentricModel(_Barycentric):
    """Interpolatory barycentric rational function.

    Attains ``r(s_k) = f_k`` at every support point.  The weight vector is
    kept at unit Euclidean norm, matching the normalization under which the
    fitting problems are solved.
    """

    supports: np.ndarray
    support_values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if abs(np.linalg.norm(self.weights) - 1.0) > _NORM_TOL:
            raise ValueError("weight vector must have unit Euclidean norm")

    @classmethod
    def from_weights(cls, supports, support_values, weights):
        """Build a model from an unnormalized (nonzero) weight vector."""
        weights = np.asarray(weights, dtype=complex)
        # the model multiplies in the support values once it has checked them
        return cls(supports, support_values, cls._pair(1.0, weights)[1])

    @staticmethod
    def _pair(support_values, weights):
        """``from_weights``' coefficients (w f, w), w = weights / ||weights||."""
        norm = np.linalg.norm(weights)
        if norm == 0.0:
            raise ValueError("weight vector must be nonzero")
        w = weights / norm
        return w * support_values, w

    @property
    def coefficients(self):
        """Numerator and denominator barycentric coefficients (w_k f_k, w_k)."""
        return self.weights * self.support_values, self.weights

    def _on_support(self, k):
        return self.support_values[k]


@dataclass(frozen=True, eq=False)
class GeneralBarycentricModel(_Barycentric):
    """Non-interpolatory barycentric rational function.

    Numerator and denominator carry independent weights; the stacked
    coefficient vector [num_weights; den_weights] has unit Euclidean norm.
    At a support point the value is ``n_k / d_k``; a zero ``d_k`` there
    means the function value is undefined.
    """

    supports: np.ndarray
    num_weights: np.ndarray
    den_weights: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if not np.any(self.den_weights != 0):
            raise ValueError("denominator weights must not all be zero")
        if abs(np.linalg.norm(np.concatenate(self.coefficients)) - 1.0) > _NORM_TOL:
            raise ValueError("stacked coefficient vector must have unit Euclidean norm")

    @classmethod
    def from_weights(cls, supports, num_weights, den_weights):
        """Build a model from unnormalized coefficients (jointly rescaled)."""
        return cls(supports, *cls._pair(np.asarray(num_weights, dtype=complex).ravel(),
                                        np.asarray(den_weights, dtype=complex).ravel()))

    @staticmethod
    def _pair(num_weights, den_weights):
        """``from_weights``' coefficients: the vectors (n, d) scaled to ||[n; d]|| = 1."""
        norm = _scaled_norm(np.concatenate([num_weights, den_weights]))
        if norm == 0.0:
            raise ValueError("coefficient vector must be nonzero")
        return num_weights / norm, den_weights / norm

    @property
    def coefficients(self):
        """Numerator and denominator barycentric coefficients (n_k, d_k)."""
        return self.num_weights, self.den_weights

    def _on_support(self, k):
        dk = self.den_weights[k]
        if dk == 0:
            raise UndefinedValueError(
                f"model value undefined at support {self.supports[k]}: zero denominator weight"
            )
        return self.num_weights[k] / dk


@dataclass(frozen=True)
class FitReport:
    """Diagnostics of a single fit (AAA or vector fitting).

    ``linf_rel_error`` and ``l2_rel_error`` are taken over the full sample
    set (max, resp. Euclidean norm, of the pointwise relative errors).
    ``effective_degree`` is the degree actually imposed on the returned
    model, sign(target) * min(|target|, terms - 1) for either fitter: a
    term cap too small for the target lowers it.  ``constraint_residual``
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
            l2_rel_error=float(_scaled_norm(rel)),
            converged=converged,
            constraint_residual=residual,
            leading_sum_magnitudes=leading,
            effective_degree=effective_degree,
        )


def _scaled_norm(v):
    """Euclidean norm of ``v``, rescaled by max|v| only where the plain one overflows.

    The squares overflow above about 1e154; rescaled, the norm stays finite
    up to the double range.  Wherever the plain norm is finite, or ``v``
    holds a non-finite entry, it is ``np.linalg.norm(v)`` bit for bit.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if np.isinf(norm):
        big = np.max(np.abs(v))
        if big < np.inf:
            norm = big * np.linalg.norm(v / big)
    return norm


def _differences(points, supports, out):
    """``out`` filled with x_j - s_k, one column at a time."""
    for k in range(supports.size):
        np.subtract(points, supports[k], out=out[:, k])


def cauchy_block(points, supports, out=None):
    """Cauchy block 1 / (x_j - s_k) and the indices of its exact hits.

    Rows run over the ``points``, columns over the ``supports``.  The block
    is built one column at a time into ``out`` (a new column-major array
    when omitted), so every entry is the same IEEE subtraction and division
    as ``1.0 / np.subtract.outer(points, supports)``.  Entries where a point
    equals a support are set to 1 instead; their (row, column) indices come
    back in row-major order, empty when there is none.  Returns the block
    and the index pair.

    A hit is an exact zero difference, and 1 / 0 always raises numpy's
    division-by-zero flag.  So the block is inverted with that flag
    trapped, and only a trapped division looks for hits: it builds the
    differences again, sets the zeros to 1 and inverts once more.  No other
    flag is trapped, so overflow (a subnormal difference) and invalid
    operations (a difference that overflowed) warn once, as numpy's
    division does.
    """
    if out is None:
        out = np.empty((points.size, supports.size), dtype=complex, order="F")
    _differences(points, supports, out)
    try:
        with np.errstate(divide="raise"):
            np.divide(1.0, out, out=out)
        return out, _NO_HITS
    except FloatingPointError:
        # the first build has reported its flags
        with np.errstate(all="ignore"):
            _differences(points, supports, out)
    hits = np.nonzero(out == 0)
    out[hits] = 1.0
    np.divide(1.0, out, out=out)
    return out, hits


def cauchy_ratio(cauchy, coefficients, points, exempt=None, out=None):
    """Barycentric ratio (C @ n) / (C @ d) of a Cauchy block C.

    ``cauchy`` holds 1 / (x_i - s_k) for the points ``x_i`` in its rows and
    the supports ``s_k`` in its columns; ``coefficients`` is the (n, d)
    pair.  The ratio is written into ``out``, a new vector when omitted,
    and returned.  A vanishing denominator raises PoleEvaluationError at
    the first such point, except in the rows indexed by ``exempt``, whose
    values the caller replaces.
    """
    num_coeffs, den_coeffs = coefficients
    num = np.matmul(cauchy, num_coeffs, out=out)
    den = cauchy @ den_coeffs
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(num, den, out=num)
    if not den.all():
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

    The result is filled one column at a time: the differences by
    :func:`_differences`, as in a Cauchy block, then the numerators through
    one sample-length buffer, so the build holds no block besides the
    result; each entry is the same IEEE operation as the broadcast formula.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    vals = np.asarray(values, dtype=complex).ravel()
    sj = np.asarray(supports, dtype=complex).ravel()
    fj = np.asarray(support_values, dtype=complex).ravel()
    if pts.size != vals.size or sj.size != fj.size:
        raise ValueError("points and values, supports and support_values must have equal lengths")
    out = np.empty((pts.size, sj.size), dtype=complex)
    _differences(pts, sj, out)
    if not out.all():
        j, k = np.argwhere(out == 0)[0]
        raise ValueError(f"sample point {pts[j]} coincides with support {sj[k]}")
    num = np.empty_like(vals)
    for k in range(sj.size):
        np.subtract(vals, fj[k], out=num)
        np.divide(num, out[:, k], out=out[:, k])
    return out


def vandermonde(supports, cols):
    """Scaled-monomial Vandermonde block: entry (k, l) = (s_k / shat)**l.

    ``shat`` is :func:`support_scale` of the supports.  The degree
    constraints, their diagnostics and the power-sum scan all read this
    block, so they share the scaled power sums c @ vandermonde(s, cols).
    """
    sj = np.asarray(supports, dtype=complex).ravel()
    return np.power.outer(sj / support_scale(sj), np.arange(integer(cols, "cols", 0)))


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
    singular vector of L Q.  A tall L is reduced to its QR triangle R first,
    as ||L Q v|| = ||R Q v||, so that beyond L the solve holds only the copy
    of L that ``np.linalg.qr`` factors and blocks of R's size.
    """
    L = np.asarray(L, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    if Q.shape[1] == 0:
        raise ConstraintError("constraint basis has no columns")
    if L.shape[0] > L.shape[1]:
        L = np.linalg.qr(L, mode="r")
    return Q @ _min_right_vector(L @ Q)


def _min_right_vector(a):
    """Unit vector v minimizing ||a v||: a's last right singular vector."""
    # a wide block needs the full factorization for every right singular vector
    return np.conj(np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])[2][-1])


def _power_sum_scan(model, extra_orders=0):
    """Locate the degree defects mu, nu and return every power sum the scan forms.

    The defect of each coefficient side is the first l < terms where its
    power sum (in the scaled variable s_k / shat) is significant relative
    to the sum of its term magnitudes.  Returns
    (mu, nu, sums, magnitudes, shat): ``sums`` is the (2, terms +
    extra_orders) block of sum_k c_k (s_k/shat)^l, numerator row first, and
    ``magnitudes`` the (2, terms) block of sum_k |c_k| |s_k/shat|^l that
    the sums are judged against.
    """
    terms = model.terms
    P = vandermonde(model.supports, terms + extra_orders)
    coeffs = np.array(model.coefficients)
    sums = coeffs @ P
    magnitudes = np.abs(coeffs) @ np.abs(P[:, :terms])
    significant = np.abs(sums[:, :terms]) > _REL_TOL * magnitudes
    for side, what in enumerate(("numerator", "denominator")):
        if not significant[side].any():
            raise TrivialModelError(f"all {what} power sums are negligible; model is trivial")
    mu, nu = (int(l) for l in np.argmax(significant, axis=1))
    return mu, nu, sums, magnitudes, support_scale(model.supports)


def evaluate(model, s):
    """Evaluate either model kind at ``s``.

    Equal to ``model(s)``; it stays while ``bench/tracing.py`` binds it as
    the ``core.eval`` layer.
    """
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
