"""Stable evaluation of fitted models far outside the sampled band.

A barycentric form with nonzero relative degree suffers catastrophic
cancellation at large |s|: the leading power sums of its coefficients are
(numerically) zero, so the two barycentric sums are evaluated orders of
magnitude above their true size.  The paper's fix is a truncated
Laurent-type expansion around infinity,

    r(s) ~ (sum_l c_l s^-l) / (sum_l d_l s^-l) * s^rdeg,

with moment coefficients c_l, d_l given by power sums of the barycentric
coefficients starting at the degree defects.  A piecewise model stores only
the fit and switches from the barycentric form to a far branch at a cutoff
radius, derived from the fit, where the two forms' error models balance.

The far branch is the same expansion summed to all orders: the model's own
rational in w = scale/s.  With z_k = s_k/scale and pi(w) = prod_k (1 - z_k w),
each barycentric sum is sum_k c_k/(s - s_k) = (w/scale) * N(w)/pi(w), where
N = pi * sum_l p_l w^l is a polynomial of degree < terms and p_l the scaled
power sums.  Dropping the residual power sums below a side's defect leaves
N = w^defect * A(w), and pi cancels in the ratio, so with m = min(mu, nu)

    r(s) = (s/scale)^rdeg * A(w) / B(w) = P(w) / Q(w),
    P = w^(mu - m) * A,  Q = w^(nu - m) * B,

with no truncation (:func:`far_field`).  P and Q have the same length, so
one accumulator holds both sides, and each side's Horner pass
(:func:`_horner`) runs over its nonzero coefficients only: the zeros the
monomial pads in cost a plain multiply each, and a side's trailing zeros
cost nothing.  The truncated expansion (:func:`moments`) still places the
cutoff and is what the seam and oracle checks test; it is evaluated in the
same folded form.

Both heuristics leave out model-dependent constants.  The truncation error
of the expansion carries the moment ratio |c_{N+1}/c_0 - d_{N+1}/d_0|; the
barycentric cancellation error carries the relative size of the residual
lower power sums, which a fit zeroes only to rounding.  These constants can
exceed 1 by one or two orders of magnitude, so the cutoff formula places the
radius but does not bound the error at the seam.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .core import _as_complex_vector, _Barycentric, _power_sum_scan, evaluate
from .errors import PoleEvaluationError
from .util import blockwise, relative_errors

DEFAULT_ORDER = 10
EPS_FLOOR = 1e-16


@dataclass(frozen=True, eq=False)
class AsymptoticModel:
    """The truncated expansion at infinity, (s/scale)^rdeg times a ratio of series in scale/s.

    :func:`moments` fills it: ``num_moments_scaled[i]`` is the power sum of
    the numerator coefficients at order mu + i, in the scaled variable
    s / scale (scale is the largest support magnitude) so that it stays
    representable for supports of any magnitude, and the expansion
    truncates after as many terms as the (equally long) arrays hold; the
    unscaled moments are exposed as properties.
    """

    mu: int
    nu: int
    scale: float
    num_moments_scaled: np.ndarray
    den_moments_scaled: np.ndarray

    def __post_init__(self):
        if not 0 < np.size(self.num_moments_scaled) == np.size(self.den_moments_scaled):
            raise ValueError("moment arrays must be non-empty and of equal length")
        for name in ("num_moments_scaled", "den_moments_scaled"):
            object.__setattr__(self, name, _as_complex_vector(getattr(self, name), name))
        if self.num_moments_scaled[0] == 0 or self.den_moments_scaled[0] == 0:
            raise ValueError("leading moments must be nonzero")
        for name in ("mu", "nu"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0 < self.scale < np.inf:
            raise ValueError("scale must be finite and positive")

    @property
    def rdeg(self):
        """Relative degree nu - mu."""
        return self.nu - self.mu

    @property
    def order(self):
        """Truncation order: the expansion keeps order + 1 moments."""
        return self.num_moments_scaled.size - 1

    @property
    def num_moments(self):
        """Unscaled numerator moments; may overflow for extreme scales."""
        return _rescale_sums(self.num_moments_scaled, self.scale, self.mu)

    @property
    def den_moments(self):
        """Unscaled denominator moments; may overflow for extreme scales."""
        return _rescale_sums(self.den_moments_scaled, self.scale, self.nu)

    @functools.cached_property
    def coeffs(self):
        """The series with the monomial folded in, as :attr:`FarField.coeffs`."""
        return _fold(self.num_moments_scaled, self.den_moments_scaled, self.mu, self.nu)

    def __call__(self, s):
        return eval_asymptotic(self, s)


@dataclass(frozen=True, eq=False)
class FarField:
    """A model's exact rational P(w) / Q(w) in w = scale/s, from :func:`far_field`.

    ``coeffs`` is the (2, L) pair of P and Q in ascending powers of w, the
    monomial (s/scale)^rdeg folded in: the side with the larger defect
    starts with |rdeg| zeros.
    """

    scale: float
    coeffs: np.ndarray


@dataclass(frozen=True, eq=False)
class PiecewiseModel:
    """A fitted model plus its asymptotic continuation.

    Only the fit is stored: ``bary``, the largest sampled frequency
    magnitude ``train_T`` and the largest training relative error
    ``train_eps``; ``asym`` and ``cutoff`` are derived on construction.
    Evaluation uses the barycentric form up to ``cutoff`` (inclusive) and
    the far branch ``far``, the model's exact rational in w = scale/s as a
    :class:`FarField`, beyond it.
    """

    bary: object
    train_T: float
    train_eps: float

    def __post_init__(self):
        if not isinstance(self.bary, _Barycentric):
            raise TypeError("bary must be a barycentric model")
        for name in ("train_T", "train_eps"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        self.cutoff  # derived now: a model with no degree raises TrivialModelError here

    def __call__(self, s):
        return eval_piecewise(self, s)

    def near(self, s):
        """True where ``s`` takes the barycentric branch, |s| <= cutoff."""
        return np.abs(s) <= self.cutoff

    @functools.cached_property
    def asym(self):
        """The truncated expansion at infinity, ``moments(bary)``: it places the cutoff."""
        return moments(self.bary)

    @functools.cached_property
    def cutoff(self):
        """``cutoff_radius`` of the fit at the order of ``asym``, never below ``train_T``."""
        radius = cutoff_radius(self.train_T, self.train_eps, self.asym.rdeg, self.asym.order)
        return max(radius, self.train_T)

    @functools.cached_property
    def far(self):
        """The far branch, ``far_field(bary)``: derived on first use, never stored."""
        return far_field(self.bary)


def moments(model, order=DEFAULT_ORDER):
    """Asymptotic expansion of a model, truncated after ``order + 1`` terms.

    Works for both model kinds.  The degree defects come from the power-sum
    scan, so every order shares the leading moments of
    :func:`classify_degree` bit for bit.
    """
    if operator.index(order) < 0:
        raise ValueError("order must be nonnegative")
    mu, nu, num_sums, den_sums, shat = _power_sum_scan(model, extra_orders=order)
    return AsymptoticModel(
        mu=mu, nu=nu, scale=shat,
        num_moments_scaled=num_sums, den_moments_scaled=den_sums,
    )


def far_field(model):
    """The model's exact rational in w = scale/s, as a :class:`FarField`.

    With pi_t the coefficients of pi(w) = prod_k (1 - z_k w), z_k = s_k/scale,
    and p_l the scaled power sums, the numerator polynomial A has
    a_i = sum_{t<=i} pi_t p_{mu+i-t} for i < terms - mu, and the denominator
    B likewise from nu; the power sums below each defect are dropped, as the
    truncated expansion drops them.  Folding the monomial in makes both sides
    terms - min(mu, nu) long, so evaluating it costs at most
    terms - 1 - min(mu, nu) Horner steps per side, the monomial's |rdeg| of
    them plain multiplies.
    """
    terms = model.terms
    mu, nu, num_sums, den_sums, shat = _power_sum_scan(model, extra_orders=terms - 1)
    pi = np.poly(model.supports / shat)
    num = np.convolve(pi, num_sums)[:terms - mu]
    den = np.convolve(pi, den_sums)[:terms - nu]
    return FarField(scale=shat, coeffs=_fold(num, den, mu, nu))


def _fold(num, den, mu, nu):
    """(2, L) ascending coefficients of w^(mu-m) * num and w^(nu-m) * den, m = min(mu, nu).

    Their ratio is (s/scale)^(nu - mu) * num(w) / den(w); the shorter row is
    zero-padded at the end.
    """
    m = min(mu, nu)
    out = np.zeros((2, max(mu + num.size, nu + den.size) - m), dtype=complex)
    out[0, mu - m:mu - m + num.size] = num
    out[1, nu - m:nu - m + den.size] = den
    return out


def classify_degree(model):
    """Degree defects and relative degree of a model of either kind.

    Returns the order-0 expansion at infinity, ``moments(model, 0)``.  The
    defect ``mu`` is the smallest l with a numerator power sum that is
    significant relative to its term magnitudes, ``nu`` the analogue for
    the denominator, and ``rdeg = nu - mu``; ``num_moments[0]`` and
    ``den_moments[0]`` are the leading power sums.  The relative test makes
    the classification invariant under rescaling of the data.
    """
    return moments(model, 0)


def _rescale_sums(sums, shat, start):
    """Undo the s_k/shat scaling: sums[i] * shat**(start+i), elementwise."""
    return sums * shat ** (start + np.arange(sums.size))


def eval_asymptotic(asym, s):
    """Evaluate an :class:`AsymptoticModel` or a :class:`FarField` at scalar or array ``s``.

    Points must be finite and nonzero.  Each side of the folded pair
    ``asym.coeffs`` runs through one Horner pass in w = scale/s over its
    nonzero coefficients, into a (2, n) accumulator, and then one ratio.  A
    block that overflows or divides by zero fails at its first non-finite
    point: ``PoleEvaluationError`` where the denominator's series vanishes,
    else ``ValueError``, as |s| lies beyond the double range of the form.
    No value returned is non-finite.
    """
    if not np.asarray(s).all():
        raise ValueError("asymptotic form is undefined at s = 0")
    coeffs, scale = asym.coeffs, asym.scale

    def steps(x):
        """w, both sides and their ratio, a new array that keeps no accumulator alive."""
        w = scale / x
        num, den = _horner(coeffs, w)
        return w, num, den, num / den

    def block(x):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return steps(x)[-1]
        except FloatingPointError:
            with np.errstate(all="ignore"):
                parts = steps(x)
                i = np.argmax(~np.isfinite(parts).all(axis=0))
                raise _nonfinite_error(coeffs[1], parts[0][i:i + 1], x[i]) from None

    return blockwise(block, s)


def _horner(coeffs, w):
    """Each row of ``coeffs`` (ascending powers) at the points ``w``, in place.

    A row runs over its nonzero span [lo, hi] only: it starts from w * c_hi,
    takes the multiply-adds down to c_lo, then lo plain multiplies by w.
    These are the steps of Horner's rule over the whole row without the
    ones that add a zero, so the values are the same; only a part that
    underflows to zero may differ in its sign.
    """
    acc = np.empty((coeffs.shape[0], w.size), dtype=complex)
    for row, a in zip(coeffs, acc):
        nonzero = np.flatnonzero(row)
        lo, hi = (nonzero[0], nonzero[-1]) if nonzero.size else (0, 0)
        if hi == 0:
            a[:] = row[0]
            continue
        np.multiply(row[hi], w, out=a)
        for l in range(hi - 1, 0, -1):
            if l >= lo:
                a += row[l]
            a *= w
        if lo == 0:
            a += row[0]
    return acc


def _nonfinite_error(den, w, point):
    """The error for ``point``, where the form with folded denominator ``den`` is not finite.

    The leading zeros of ``den`` are the monomial w^k, the rest its series:
    a pole where the series vanishes, beyond the double range elsewhere.
    """
    k = np.flatnonzero(den)[0]
    if not _horner(den[None, k:], w).all():
        return PoleEvaluationError(f"denominator series vanishes at {point}", point=point)
    return ValueError(f"s = {point} is beyond the double range of the far form")


def cutoff_radius(T, eps, rdeg, order):
    """Radius where the barycentric and asymptotic error heuristics balance.

    The barycentric extrapolation error is modeled as eps * (|s|/T)^|rdeg|
    and the truncation error of the asymptotic form as (T/|s|)^(order+1);
    they are equal at T * eps^(-1/(|rdeg| + order + 1)).

    Both models drop their model-dependent constants: the moment ratio
    |c_{order+1}/c_0 - d_{order+1}/d_0| that scales the truncation error,
    and the relative size of the residual lower power sums (those below the
    degree defects) that scales the barycentric error.  The formula places
    the radius; it does not bound the seam error there.
    """
    if not 0 < eps < np.inf:
        raise ValueError("eps must be finite and positive")
    if not 0 < T < np.inf:
        raise ValueError("T must be finite and positive")
    if operator.index(order) < 0:
        raise ValueError("order must be nonnegative")
    return float(T * eps ** (-1.0 / (abs(operator.index(rdeg)) + order + 1)))


def make_piecewise(model, samples):
    """Attach the asymptotic continuation, at ``DEFAULT_ORDER``, to a fitted model.

    The training error that enters the cutoff formula is the largest
    relative error of the model over the samples, floored at 1e-16 so an
    exact fit still yields a finite cutoff.
    """
    rel = relative_errors(samples.values, evaluate(model, samples.points))
    return PiecewiseModel(bary=model, train_T=float(np.max(np.abs(samples.points))),
                          train_eps=max(float(np.max(rel)), EPS_FLOOR))


def eval_piecewise(pm, s):
    """Barycentric evaluation for |s| <= cutoff, the exact far branch beyond.

    Points are split and evaluated block by block; a non-finite point
    raises before any block runs.  A block wholly on one side of the cutoff
    goes to its branch whole, without a masked copy.
    """
    def block(x):
        near = pm.near(x)
        if near.all():
            return evaluate(pm.bary, x)
        if not near.any():
            return eval_asymptotic(pm.far, x)
        out = np.empty(x.shape, dtype=complex)
        out[near] = evaluate(pm.bary, x[near])
        out[~near] = eval_asymptotic(pm.far, x[~near])
        return out

    return blockwise(block, s)
