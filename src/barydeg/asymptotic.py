"""Stable evaluation of fitted models far outside the sampled band.

A barycentric form with nonzero relative degree suffers catastrophic
cancellation at large |s|: the leading power sums of its coefficients are
(numerically) zero, so the two barycentric sums are evaluated orders of
magnitude above their true size.  The paper's fix is a truncated
Laurent-type expansion around infinity,

    r(s) ~ (sum_l c_l s^-l) / (sum_l d_l s^-l) * s^rdeg,

with moment coefficients c_l, d_l given by power sums of the barycentric
coefficients starting at the degree defects.  The paper switches from the
barycentric form to the expansion at a cutoff radius where heuristic error
models of the two forms balance (:func:`cutoff_radius`).

The far branch is the same expansion summed to all orders: the model's own
rational in w = scale/s.  With z_k = s_k/scale and pi(w) = prod_k (1 - z_k w),
each barycentric sum is sum_k c_k/(s - s_k) = (w/scale) * N(w)/pi(w), where
N = pi * sum_l p_l w^l is a polynomial of degree < terms and p_l the scaled
power sums.  Dropping the residual power sums below a side's defect leaves
N = w^defect * A(w), and pi cancels in the ratio, so with m = min(mu, nu)

    r(s) = (s/scale)^rdeg * A(w) / B(w) = P(w) / Q(w),
    P = w^(mu - m) * A,  Q = w^(nu - m) * B,

with no truncation.  P and Q have the same length L,
so one accumulator holds both sides, and each side's Horner pass
(:func:`_horner`) runs over its nonzero coefficients only.  In
u = s/scale = 1/w, u^(L-1) * P(1/u) is P's row reversed, so for |s| from
scale to reach = scale * 2^(512/(L-1)) the far kernel (:func:`_far_kernel`)
takes one Horner pass per side in u and one division, with no division for
w.  The monomial's zeros become the top of the reversed row, which costs
nothing: the side of a fit with |rdeg| = terms - 1 is a constant.  A block
reaching outside that annulus runs the form in w, where those zeros cost a
plain multiply each.  The truncated expansion (:func:`moments`) still
places the cutoff and is what the seam and oracle checks test; it is
evaluated in the same folded form.

Both heuristics of the cutoff leave out model-dependent constants.  The
truncation error of the expansion carries the moment ratio
|c_{N+1}/c_0 - d_{N+1}/d_0|; the barycentric cancellation error carries the
relative size of the residual lower power sums, which a fit zeroes only to
rounding.  These constants can exceed 1 by one or two orders of magnitude,
so the cutoff formula places the radius but does not bound the error at the
seam, and the far branch, which truncates nothing, has no truncation error
to balance.  A piecewise model therefore stores only the fit and switches
to the far branch at ``switch``: the first radius of a fixed ladder above
the scale where two estimates computed from the model's own coefficients
cross, the running error bound of the far branch's Horner passes and the
barycentric form's cancellation from the residual power sums.  The switch
lies between the band edge ``train_T`` and the cutoff, which bounds it and
stays the seam of the truncated expansion; a fit whose residual power sums
vanish exactly switches at the cutoff.

The far side has one derivation per model (:func:`_derive_far`): one
power-sum scan to terms - 1 extra orders gives the defects, the sums and
their term magnitudes, from which pi(w), A and B, their absolute
convolutions, the residual sums below each defect and the floor are formed
once.  ``far`` and ``switch`` both read it, so the switch weighs exactly
the residual sums the scan judged negligible.
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
_NORMAL = np.finfo(float).tiny
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# the switch radius is the first of these multiples of the scale where the
# far branch's error estimate falls to the barycentric one's; the ladder goes
# on as 10, 20, 30, 50, 100, ...
_LADDER = (1.01, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0)
_DECADE = (1.0, 2.0, 3.0, 5.0)
# the directions of s at which the far estimate is taken, |P(w)| depending on them
_DIRECTIONS = np.exp(2j * np.pi * np.arange(16) / 16)


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
    """A model's exact rational P(w) / Q(w) in w = scale/s, ``PiecewiseModel.far``.

    ``coeffs`` is the (2, L) pair of P and Q in ascending powers of w, the
    monomial (s/scale)^rdeg folded in: the side with the larger defect
    starts with |rdeg| zeros.  A model's far side is derived once, by
    :func:`_derive_far`, which forms A and B (P and Q before the fold) from
    the same scan and convolutions as the switch estimates.
    """

    scale: float
    coeffs: np.ndarray


@dataclass(frozen=True, eq=False)
class PiecewiseModel:
    """A fitted model plus its asymptotic continuation.

    Only the fit is stored: ``bary``, the largest sampled frequency
    magnitude ``train_T`` and the largest training relative error
    ``train_eps``; ``asym`` and ``cutoff`` are derived on construction,
    ``far`` and ``switch`` on first use.  Evaluation uses the barycentric
    form up to ``switch`` (inclusive) and the far branch ``far``, the
    model's exact rational in w = scale/s as a :class:`FarField`, beyond
    it.  ``switch`` lies in [``train_T``, ``cutoff``].
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
        """True where ``s`` takes the barycentric branch, |s| <= switch."""
        return np.abs(s) <= self.switch

    @functools.cached_property
    def _far_side(self):
        """``(far, estimates)``, :func:`_derive_far` of the fit: ``far`` and ``switch`` read it."""
        return _derive_far(self.bary)

    @functools.cached_property
    def asym(self):
        """The truncated expansion at infinity, ``moments(bary)``: it places the cutoff."""
        return moments(self.bary)

    @functools.cached_property
    def cutoff(self):
        """``cutoff_radius`` of the fit at the order of ``asym``, never below ``train_T``.

        It bounds ``switch`` from above, and it is where the truncated
        expansion ``asym`` meets the barycentric form.
        """
        radius = cutoff_radius(self.train_T, self.train_eps, self.asym.rdeg, self.asym.order)
        return max(radius, self.train_T)

    @property
    def far(self):
        """The far branch, a :class:`FarField`: derived on first use, never stored."""
        return self._far_side[0]

    @functools.cached_property
    def switch(self):
        """The radius where evaluation changes branch, derived on first use, never stored.

        It is the first radius of the ladder scale * {1.01, 1.1, 1.25, 1.5,
        2, 3, 5, 10, 20, 30, 50, 100, ...} below ``cutoff`` at which the far
        branch's error estimate is at most the barycentric one's (the
        estimates of :func:`_derive_far`), raised to ``train_T``; ``cutoff``
        where no radius below it qualifies.  A fit whose power sums below
        the defects vanish exactly has no barycentric cancellation to
        estimate, so it switches at ``cutoff``.
        """
        for radius, e_far, e_bary in self._far_side[1](self.cutoff):
            if e_far <= e_bary:
                return max(radius, self.train_T)
        return self.cutoff


def moments(model, order=DEFAULT_ORDER):
    """Asymptotic expansion of a model, truncated after ``order + 1`` terms.

    Works for both model kinds.  The degree defects come from the power-sum
    scan, so every order shares the leading moments of
    :func:`classify_degree` bit for bit.
    """
    if operator.index(order) < 0:
        raise ValueError("order must be nonnegative")
    mu, nu, sums, _, shat = _power_sum_scan(model, extra_orders=order)
    return AsymptoticModel(
        mu=mu, nu=nu, scale=shat,
        num_moments_scaled=sums[0, mu:mu + order + 1],
        den_moments_scaled=sums[1, nu:nu + order + 1],
    )


def _derive_far(model):
    """The far branch and its switch estimates, ``(far, estimates)``, from one power-sum scan.

    With pi_t the coefficients of pi(w) = prod_k (1 - z_k w), z_k = s_k/scale,
    and p_l the scaled power sums, the numerator polynomial A has
    a_i = sum_{t<=i} pi_t p_{mu+i-t} for i < terms - mu, and the denominator
    B likewise from nu; the power sums below each defect are dropped, as the
    truncated expansion drops them.  ``far`` is the :class:`FarField` of A
    and B with the monomial folded in, both sides terms - min(mu, nu) long,
    so evaluating it costs at most terms - 1 - min(mu, nu) Horner steps per
    side, the monomial's |rdeg| of them plain multiplies.

    ``estimates(top)`` yields (radius, E_far, E_bary) at each radius of the
    switch ladder below ``top``.  Both estimate a branch's relative error
    from the same scan, O(terms) per radius.  E_far is the running error
    bound of Horner's rule (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, 5.1) for A and B, u * sum_l c'_l |w|^l / |A(w)| plus
    the same for B, with u the unit roundoff and c' = |pi| * |p| the
    absolute convolution that forms each coefficient; it is taken at the
    worst of 16 equally spaced directions of s, as |A(w)| depends on them.
    Both branches then share a floor from the conditioning of the leading
    power sums, u * sum_k |c_k| |z_k|^mu / |p_mu| per side (the scan's term
    magnitudes at the defect), which E_far includes.  E_bary is the
    cancellation estimate of the barycentric form (Higham, IMA JNA 2004):
    each power sum below a side's defect, one the scan judged negligible
    and zero in exact arithmetic, enters with relative weight
    |sum_k c_k z_k^l| / |p_mu| * (R/scale)^(mu - l); it is 0 where those
    sums vanish exactly.
    """
    terms = model.terms
    mu, nu, sums, magnitudes, scale = _power_sum_scan(model, extra_orders=terms - 1)
    pi = np.poly(model.supports / scale)
    pair, bound, residual, floor = [], [], [], 0.0
    for row, magnitude, defect in zip(sums, magnitudes, (mu, nu)):
        p, lead = row[defect:defect + terms], abs(row[defect])
        pair.append(np.convolve(pi, p)[:terms - defect])
        bound.append(np.convolve(np.abs(pi), np.abs(p))[:terms - defect])
        residual.append(np.abs(row[:defect]) / lead)
        floor += _UNIT_ROUNDOFF * float(magnitude[defect]) / lead
    far = FarField(scale=scale, coeffs=_fold(*pair, mu, nu))
    pair, bound = _fold(*pair, 0, 0), _fold(*bound, 0, 0)

    def estimates(top):
        for ratio in _ladder():
            radius = scale * ratio
            if not radius < top:
                return
            # a far radius may overflow E_bary, or meet a pole; the state
            # ends before each yield, so the caller's own stays in force
            with np.errstate(all="ignore"):
                num, den = np.abs(_horner(pair, _DIRECTIONS / ratio))
                (bnum,), (bden,) = _horner(bound, np.array([1 / ratio])).real
                e_far = floor + _UNIT_ROUNDOFF * float(np.max(bnum / num + bden / den))
                e_bary = sum(float(r @ ratio ** np.arange(r.size, 0.0, -1)) for r in residual)
            yield radius, e_far, e_bary

    return far, estimates


def _ladder():
    """The switch ladder's ratios to the scale: 1.01, 1.1, ... 5, then 10, 20, 30, 50, 100, ..."""
    yield from _LADDER
    decade = 10.0
    while True:
        yield from (decade * r for r in _DECADE)
        decade *= 10.0


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

    Points must be finite and nonzero; both are checked before any block
    runs, and each block is then written into the output by the kernel of
    :func:`_far_kernel`.  No value returned is non-finite: a block that
    overflows or divides by zero fails at its first non-finite point,
    ``PoleEvaluationError`` where the denominator's series vanishes, else
    ``ValueError``, as |s| lies beyond the double range of the form.
    """
    if not np.asarray(s).all():
        raise ValueError("asymptotic form is undefined at s = 0")
    far = _far_kernel(asym)

    def block(x, out):
        mag = np.abs(x)
        far(x, out, mag.min(), mag.max())

    return blockwise(block, s)


def _far_kernel(asym):
    """The block kernel ``block(x, out, lo, hi)`` of the folded pair ``asym.coeffs``.

    It writes P/Q at the nonzero points ``x``, whose magnitudes lie in
    [lo, hi], into ``out``.  With L the pair's length, u^(L-1) * P(1/u) is
    P's row reversed, so where the block lies wholly in the annulus
    scale <= |x| <= reach, reach = scale * 2^(512/(L-1)), each side runs one
    Horner pass in u = x * (1/scale) over its nonzero coefficients, and then
    one ratio.  There 1 <= |u| and |w| <= 1 with |u|^(L-1) <= 2^512, so no
    power the passes form comes near overflow or underflow.  Any other
    block, and a block where a u step traps, runs the form in w = scale/x,
    whose failure decides the error: a pole, or a point beyond the double
    range.  Each row's nonzero span is found once, here.
    """
    coeffs, scale = asym.coeffs, asym.scale
    reverse = coeffs[:, ::-1]
    spans, reverse_spans = _spans(coeffs), _spans(reverse)
    width = coeffs.shape[1]
    inv = 1.0 / scale
    reach = scale * 2.0 ** (512 / (width - 1)) if width > 1 else np.inf
    if not _NORMAL <= inv < np.inf:
        reach = 0.0  # a subnormal or infinite 1/scale would round u: no block takes it

    def steps(x, lo, hi, ratio=None):
        """w, both sides and their ratio, written into ``ratio`` when given."""
        # numpy's complex division forms 1/x, which overflows for |x| below
        # about 5.6e-309, so where the block's smallest |x| or the scale is
        # subnormal, w is formed from both operands times the power of two
        # that lifts the smaller into the normal range, exactly, unless this
        # power would carry the block beyond the double range
        lift = np.ldexp(1.0, max(0, -1021 - np.frexp(min(lo, scale))[1]))
        lifted = lift > 1.0 and hi <= np.finfo(float).max / lift
        w = (scale * lift) / (x * lift) if lifted else scale / x
        num, den = _horner(coeffs, w, spans)
        return w, num, den, np.divide(num, den, out=ratio)

    def block(x, out, lo, hi):
        if scale <= lo and hi <= reach:
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    num, den = _horner(reverse, x * inv, reverse_spans)
                    np.divide(num, den, out=out)
                return
            except FloatingPointError:
                pass  # the w form below fails where the model does
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                steps(x, lo, hi, out)
        except FloatingPointError:
            with np.errstate(all="ignore"):
                parts = steps(x, lo, hi)
                i = np.argmax(~np.isfinite(parts).all(axis=0))
                raise _nonfinite_error(coeffs[1], parts[0][i:i + 1], x[i]) from None

    return block


def _spans(coeffs):
    """Each row's nonzero span (lo, hi) in ``coeffs``; (0, 0) for a zero row."""
    spans = []
    for row in coeffs:
        nonzero = np.flatnonzero(row)
        spans.append((nonzero[0], nonzero[-1]) if nonzero.size else (0, 0))
    return spans


def _horner(coeffs, w, spans=None):
    """Each row of ``coeffs`` (ascending powers) at the points ``w``, in place.

    A row runs over its nonzero span [lo, hi] only (``spans``, from
    :func:`_spans` when not given): it starts from w * c_hi, takes the
    multiply-adds down to c_lo, then lo plain multiplies by w.  These are
    the steps of Horner's rule over the whole row without the ones that add
    a zero, so the values are the same; only a part that underflows to zero
    may differ in its sign.
    """
    acc = np.empty((coeffs.shape[0], w.size), dtype=complex)
    for row, a, (lo, hi) in zip(coeffs, acc, _spans(coeffs) if spans is None else spans):
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
    """Barycentric evaluation for |s| <= switch, the exact far branch beyond.

    ``pm.switch`` lies between ``train_T`` and ``pm.cutoff``: the radius
    from which the far branch's estimated error is no larger than the
    barycentric form's.  The points are checked once, as every evaluator
    checks them: a non-finite one raises before any block runs.  Each block
    then computes |x| once and routes its points by |x| <= switch, the test
    of :meth:`PiecewiseModel.near`, to the two branch kernels, which write
    into the output: a block whose largest |x| is at most the switch goes
    to the barycentric branch whole, one whose smallest is beyond it to the
    far branch whole, and only a mixed one is split by a mask.  Far points
    need no s = 0 check, as |x| > switch > 0 there.
    """
    near_kernel, far_kernel, switch = pm.bary._kernel(), _far_kernel(pm.far), pm.switch

    def block(x, out):
        mag = np.abs(x)
        lo, hi = mag.min(), mag.max()
        if hi <= switch:
            near_kernel(x, out)
        elif lo > switch:
            far_kernel(x, out, lo, hi)
        else:
            near = mag <= switch
            far = ~near
            part = np.empty(np.count_nonzero(near), dtype=complex)
            near_kernel(x[near], part)
            out[near] = part
            part = np.empty(x.size - part.size, dtype=complex)
            far_kernel(x[far], part, mag[far].min(), hi)
            out[far] = part

    return blockwise(block, s)
