"""Data-driven identification of a system's relative degree.

The data is fitted under different imposed relative degrees, and the fits
are compared by a complexity-first criterion, :func:`better`: fewer
barycentric terms win; at equal complexity the larger |degree| wins (it is
the more constrained, hence simpler, model); only full ties fall through to
the approximation error.

Each :func:`identify` call keeps one candidate table.  Its ``fit(degree,
cap)`` is the only place the backend is called: it records the fit as a
:class:`CandidateRecord`, keeps the records in call order, and returns the
recorded candidate when the same ``(degree, cap)`` comes again.  A rule
chooses which fits to ask for and which one wins.

The rule is the paper's sweep, :func:`_paper_sweep`.  It fits degrees 0, 1,
2, ... until a fit stops improving or its effective degree stops growing
(both fitters cap it at terms - 1, after which every further target repeats
the same fit), repeats toward negative degrees from the same degree-0 fit,
and keeps the better of the two directions' winners.  Each fit runs under a
term cap bounded by its incumbent: once the incumbent has converged with T
terms, the fit at degree k is stopped after max(T, |k| + 1) terms (|k| + 1
is the fewest terms that can hold degree k).  The cap is exact: a fit's
first rounds do not depend on its cap, so a fit that converges within it is
the same fit, and one that does not would have lost to the incumbent anyway
(it needs more terms, or never converges), so the sweep picks the same
winner.  The degree-0 fit is never capped.

The fits of a call share one record, a dict that the table makes for the
call and passes to every fit.  With :func:`aaa_backend` a fit reads each
fully constrained step that a fit of its sign already took from the record;
with :func:`vf_backend` every fit solves from the QR triangles of the
support grids that earlier fits factored.  The winner's piecewise model,
from :func:`make_piecewise`, derives its cutoff from the fit.
"""

from dataclasses import dataclass, replace

from .aaa import AaaConfig, aaa
from .asymptotic import make_piecewise
from .util import integer
from .vf import DEFAULT_TOL, VfConfig, vf_adaptive

DEFAULT_MAX_ABS_DEGREE = 20


@dataclass(frozen=True, eq=False)
class CandidateRecord:
    """One degree-constrained fit, the unit of comparison.

    ``degree`` is the fit's effective degree (the constraint actually
    imposed on the returned model, which a short fit may cap below the
    requested target).  ``max_terms`` is the term cap the sweep passed to
    the backend, ``None`` when it passed none; a capped fit that reports
    ``converged=False`` lost to its incumbent, whatever it would have done
    uncapped.
    """

    degree: int
    terms: int
    linf_rel_error: float
    converged: bool
    model: object
    max_terms: int = None

    def __post_init__(self):
        integer(self.terms, "terms", 1)
        if self.linf_rel_error < 0:
            raise ValueError("linf_rel_error must be nonnegative")


@dataclass(frozen=True, eq=False)
class IdentificationResult:
    """Winner and full sweep history of a degree identification.

    When no candidate converged, no degree is identified: ``best_degree`` is
    ``None`` and ``best`` holds the best of the failed candidates.
    """

    best: CandidateRecord
    candidates: tuple
    piecewise: object

    @property
    def converged(self):
        """Whether a degree was identified (some candidate converged)."""
        return self.best.converged

    @property
    def best_degree(self):
        """The identified degree, ``best.degree``; ``None`` when none converged."""
        return self.best.degree if self.converged else None


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


def _paper_sweep(fit, max_abs_degree):
    """The paper's rule over a candidate table: the winner of its sweep.

    Each direction starts from the degree-0 fit and asks ``fit`` for
    degrees 1, 2, ... ``max_abs_degree`` of its sign, each under the cap
    max(T, k + 1) when the incumbent has converged with T terms.  It stops
    at the first fit that its incumbent beats (the incumbent wins), or at
    the first whose effective degree did not grow (that fit wins).  The
    better of the two directions' winners wins.
    """
    def sweep(direction):
        prev = fit(0, None)
        for k in range(1, max_abs_degree + 1):
            cap = max(prev.terms, k + 1) if prev.converged else None
            cand = fit(direction * k, cap)
            if better(prev, cand):
                return prev
            if cand.degree == prev.degree:
                return cand
            prev = cand
        return prev

    best_pos, best_neg = sweep(+1), sweep(-1)
    return best_pos if better(best_pos, best_neg) else best_neg


def _smaller(*caps):
    """The smallest of the term caps given, ``None`` standing for no cap."""
    return min((cap for cap in caps if cap is not None), default=None)


def aaa_backend(tol, max_terms=None):
    """Fit backend running degree-constrained AAA at the given tolerance.

    ``record`` is passed to :func:`aaa` as its ``spine``, so the fits given
    one dict share their fully constrained first steps; without it a fit
    shares nothing.  A fit runs under the smaller of ``max_terms`` and the
    cap it is called with.  The settings are checked here, as an
    :class:`AaaConfig`, before any fit.
    """
    base = AaaConfig(tol=tol, max_terms=max_terms)

    def fit(samples, degree, max_terms=None, record=None):
        config = replace(base, target_degree=degree, max_terms=_smaller(base.max_terms, max_terms))
        return aaa(samples, config, spine=record)
    return fit


def vf_backend(tol=DEFAULT_TOL, max_terms=None):
    """Fit backend running adaptive-complexity vector fitting.

    ``record`` is passed to :func:`vf_adaptive` as its ``grids``, so the
    fits given one dict solve from the support grids that any of them
    factored; without it a fit shares nothing.  A fit runs under the smaller
    of ``max_terms`` and the cap it is called with; with neither,
    :func:`vf_adaptive` applies its own default cap.  The settings are
    checked here, as a :class:`VfConfig`, before any fit.
    """
    base = VfConfig(tol=tol, max_terms=max_terms)

    def fit(samples, degree, max_terms=None, record=None):
        config = replace(base, target_degree=degree, max_terms=_smaller(base.max_terms, max_terms))
        return vf_adaptive(samples, config, grids=record)
    return fit


def identify(samples, backend, max_abs_degree=DEFAULT_MAX_ABS_DEGREE):
    """Estimate the relative degree of the system behind the samples.

    ``backend`` maps ``(samples, degree, max_terms=None, record=None)`` to
    ``(model, report)``, fitting with at most ``max_terms`` terms when it is
    given; use :func:`aaa_backend` or :func:`vf_backend`.  Every fit of one
    call gets the same ``record``, a dict made for the call, in which the
    backend may keep what the fits share; a backend that wraps another
    passes it on.

    The call's candidate table runs each ``(degree, cap)`` fit once, and
    the paper's sweep chooses the winner from it (see the module
    docstring).  Both directions share the degree-0 fit, so at most
    ``2 * max_abs_degree + 1`` fits run.  ``candidates`` holds the table's
    records in call order.  The winner's piecewise (barycentric +
    asymptotic) model is attached, unless no candidate converged.
    """
    integer(max_abs_degree, "max_abs_degree", 1)
    record, table = {}, {}

    def fit(degree, cap):
        if (degree, cap) not in table:
            model, report = backend(samples, degree, max_terms=cap, record=record)
            table[degree, cap] = CandidateRecord(
                degree=report.effective_degree, terms=report.terms, model=model, max_terms=cap,
                linf_rel_error=report.linf_rel_error, converged=report.converged)
        return table[degree, cap]

    winner = _paper_sweep(fit, max_abs_degree)
    piecewise = make_piecewise(winner.model, samples) if winner.converged else None
    return IdentificationResult(best=winner, candidates=tuple(table.values()), piecewise=piecewise)
