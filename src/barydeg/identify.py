"""Data-driven identification of a system's relative degree.

The data is fitted repeatedly under different imposed relative degrees, and
the fits are compared by a complexity-first criterion: fewer barycentric
terms win; at equal complexity the larger |degree| wins (it is the more
constrained, hence simpler, model); only full ties fall through to the
approximation error.  The search sweeps degrees 0, 1, 2, ... until a fit
stops improving or its effective degree stops growing (AAA caps it at
terms - 1, after which every further target repeats the same fit), repeats
toward negative degrees, and keeps the better of the two directions'
winners.  The AAA fits of a sweep share their fully constrained prefix:
the backend from :func:`aaa_backend` lets the fit at +-k resume after the
steps the fit at +-(k - 1) already took.
"""

from dataclasses import dataclass

from .aaa import AaaConfig, aaa
from .asymptotic import DEFAULT_ORDER, make_piecewise
from .vf import DEFAULT_TOL, VfConfig, vf_adaptive

DEFAULT_MAX_ABS_DEGREE = 20


@dataclass(frozen=True, eq=False)
class CandidateRecord:
    """One degree-constrained fit, the unit of comparison.

    ``degree`` is the fit's effective degree (the constraint actually
    imposed on the returned model, which a short fit may cap below the
    requested target).
    """

    degree: int
    terms: int
    linf_rel_error: float
    converged: bool
    model: object

    def __post_init__(self):
        if self.terms < 1:
            raise ValueError("terms must be at least 1")
        if self.linf_rel_error < 0:
            raise ValueError("linf_rel_error must be nonnegative")


@dataclass(frozen=True, eq=False)
class IdentificationResult:
    """Winner and full sweep history of a degree identification."""

    best_degree: int
    best: CandidateRecord
    candidates: tuple
    piecewise: object
    converged: bool


def better(a, b):
    """True when candidate ``a`` beats candidate ``b``.

    A non-converged candidate never beats a converged one.  Otherwise:
    fewer terms win; at equal terms the larger |degree| wins; at equal
    terms and |degree| the strictly smaller error wins (so exact ties keep
    the incumbent).
    """
    if a.converged != b.converged:
        return a.converged
    if a.terms != b.terms:
        return a.terms < b.terms
    if abs(a.degree) != abs(b.degree):
        return abs(a.degree) > abs(b.degree)
    return a.linf_rel_error < b.linf_rel_error


def aaa_backend(tol, max_terms=None):
    """Fit backend running degree-constrained AAA at the given tolerance.

    The backend keeps the fully constrained AAA path (see :func:`aaa`) of the
    last ``SampleSet`` it was given, so the fits of one sweep share their
    common first steps; a new samples object starts a new path.
    """
    spine = {}
    last = None

    def fit(samples, degree):
        nonlocal last
        if samples is not last:
            spine.clear()
            last = samples
        return aaa(samples, AaaConfig(tol=tol, target_degree=degree, max_terms=max_terms),
                   spine=spine)
    return fit


def vf_backend(tol=DEFAULT_TOL, max_terms=None):
    """Fit backend running adaptive-complexity vector fitting."""
    def fit(samples, degree):
        return vf_adaptive(samples, VfConfig(tol=tol, target_degree=degree, max_terms=max_terms))
    return fit


def _record(backend, samples, degree):
    model, report = backend(samples, degree)
    return CandidateRecord(
        degree=report.effective_degree,
        terms=report.terms,
        linf_rel_error=report.linf_rel_error,
        converged=report.converged,
        model=model,
    )


def identify(samples, backend, max_abs_degree=DEFAULT_MAX_ABS_DEGREE,
             order=DEFAULT_ORDER):
    """Estimate the relative degree of the system behind the samples.

    ``backend`` maps ``(samples, degree)`` to ``(model, report)``; use
    :func:`aaa_backend` or :func:`vf_backend`.  The degree-0 fit is shared
    by both sweep directions, so at most ``2 * max_abs_degree + 1`` fits
    run.  The winner's piecewise (barycentric + asymptotic) model is
    attached, unless no candidate converged.
    """
    if max_abs_degree < 1:
        raise ValueError("max_abs_degree must be at least 1")
    baseline = _record(backend, samples, 0)
    candidates = [baseline]

    def sweep(direction):
        prev = baseline
        for k in range(1, max_abs_degree + 1):
            cand = _record(backend, samples, direction * k)
            candidates.append(cand)
            if better(prev, cand):
                return prev
            if cand.degree == prev.degree:
                return cand
            prev = cand
        return prev

    best_pos = sweep(+1)
    best_neg = sweep(-1)
    winner = best_pos if better(best_pos, best_neg) else best_neg
    succeeded = any(c.converged for c in candidates)
    piecewise = make_piecewise(winner.model, samples, order) if succeeded else None
    return IdentificationResult(
        best_degree=winner.degree,
        best=winner,
        candidates=tuple(candidates),
        piecewise=piecewise,
        converged=succeeded,
    )
