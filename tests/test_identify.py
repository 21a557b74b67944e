import dataclasses
import functools
import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import barydeg as bd
from barydeg.aaa import FitReport
from barydeg.identify import CandidateRecord, better

from conftest import chain_samples, inverse_decay_samples


def rec(degree, terms, err, converged=True):
    model = bd.BarycentricModel([0.0], [1.0], [1.0])
    return CandidateRecord(degree=degree, terms=terms, linf_rel_error=err,
                           converged=converged, model=model)


class TestBetter:
    def test_fewer_terms_wins(self):
        assert better(rec(-4, 5, 1e-7), rec(0, 6, 1e-8))

    def test_larger_abs_degree_wins_at_equal_terms(self):
        assert better(rec(-1, 5, 1e-7), rec(0, 5, 1e-9))

    def test_smaller_error_wins_at_equal_terms_and_degree(self):
        assert better(rec(1, 5, 1e-9), rec(-1, 5, 1e-7))

    def test_converged_beats_nonconverged(self):
        assert better(rec(0, 9, 1e-2), rec(-3, 4, 1e-9, converged=False))
        assert not better(rec(-3, 4, 1e-9, converged=False), rec(0, 9, 1e-2))

    def test_nonconverged_pair_uses_clauses(self):
        assert better(rec(0, 4, 1e-2, converged=False), rec(0, 5, 1e-3, converged=False))

    def test_exact_tie_keeps_incumbent(self):
        a, b = rec(2, 5, 1e-8), rec(-2, 5, 1e-8)
        assert not better(a, b) and not better(b, a)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        d1=st.integers(-8, 8), d2=st.integers(-8, 8),
        t1=st.integers(1, 12), t2=st.integers(1, 12),
        e1=st.floats(1e-12, 1e-2), e2=st.floats(1e-12, 1e-2),
        c1=st.booleans(), c2=st.booleans(),
    )
    def test_strict_partial_order(self, d1, d2, t1, t2, e1, e2, c1, c2):
        a, b = rec(d1, t1, e1, c1), rec(d2, t2, e2, c2)
        assert not better(a, a)
        assert not better(b, b)
        assert not (better(a, b) and better(b, a))


class TestRecordValidation:
    def test_bad_terms(self):
        with pytest.raises(ValueError):
            rec(0, 0, 1e-6)

    def test_bad_error(self):
        with pytest.raises(ValueError):
            rec(0, 1, -1e-6)


def fake_backend(table, saturate=None):
    """Backend stub driven by a {degree: (terms, err, converged)} table.

    With ``saturate`` the reported effective degree is capped at
    +-saturate, as AAA caps it at terms - 1.  The term cap of each call is
    kept in ``fit.caps``; the table's rows do not depend on it.
    """
    calls = []
    caps = []
    model = bd.BarycentricModel([1.0, 2.0], [1.0, 1.0],
                                np.array([1.0, 1.0]) / np.sqrt(2))

    def fit(samples, degree, max_terms=None, record=None):
        calls.append(degree)
        caps.append(max_terms)
        terms, err, converged = table[degree]
        report = FitReport(terms=terms, linf_rel_error=err, l2_rel_error=err,
                           converged=converged, constraint_residual=0.0,
                           leading_sum_magnitudes=(1.0, 1.0),
                           effective_degree=degree if saturate is None
                           else int(np.sign(degree)) * min(abs(degree), saturate))
        return model, report

    fit.calls = calls
    fit.caps = caps
    return fit


class TestSweepMechanics:
    def test_stop_rule_and_final_comparison(self):
        samples = inverse_decay_samples(1.0, 2.0, 5)
        backend = fake_backend({
            0: (5, 1e-7, True),
            1: (4, 1e-7, True),
            2: (4, 1e-7, True),   # equal terms, larger |degree|: survives
            3: (6, 1e-7, True),   # worse: positive sweep stops at 2
            -1: (7, 1e-7, True),  # worse than baseline: negative stops at 0
        })
        result = bd.identify(samples, backend, max_abs_degree=10)
        assert backend.calls == [0, 1, 2, 3, -1]
        assert result.best_degree == 2
        assert result.best.terms == 4
        assert result.converged

    def test_nonconverged_candidates_are_skipped_over(self):
        samples = inverse_decay_samples(1.0, 2.0, 5)
        backend = fake_backend({
            0: (9, 1e-3, False),
            1: (9, 1e-3, False),   # tie with baseline: sweep continues
            2: (6, 1e-8, True),    # converged: takes over
            3: (8, 1e-6, True),    # worse: stop, winner is degree 2
            -1: (9, 1e-3, False),  # loses to nonconverged baseline? no: tie
            -2: (9, 1e-4, False),  # smaller error at equal terms/|degree|... |d| differs
            -3: (9, 1e-3, False),
        })
        result = bd.identify(samples, backend, max_abs_degree=3)
        assert result.best_degree == 2
        assert result.converged

    def test_all_nonconverged_flagged(self):
        samples = inverse_decay_samples(1.0, 2.0, 5)
        backend = fake_backend({d: (9, 1e-2, False) for d in range(-3, 4)})
        result = bd.identify(samples, backend, max_abs_degree=3)
        assert not result.converged
        assert result.piecewise is None
        assert len(result.candidates) == 7

    def test_baseline_fit_shared(self):
        samples = inverse_decay_samples(1.0, 2.0, 5)
        backend = fake_backend({d: (4 + abs(d), 1e-8, True) for d in range(-4, 5)})
        bd.identify(samples, backend, max_abs_degree=4)
        assert backend.calls.count(0) == 1

    def test_sweep_economy(self):
        samples = inverse_decay_samples(1.0, 2.0, 5)
        # ties everywhere force both sweeps to run to the cap
        backend = fake_backend({d: (3, 1e-8, True) for d in range(-6, 7)})
        result = bd.identify(samples, backend, max_abs_degree=6)
        assert len(backend.calls) <= 2 * 6 + 3

    def test_saturated_degree_stops_sweep(self):
        samples = inverse_decay_samples(1.0, 2.0, 5)
        # once the effective degree stops growing, every further target
        # repeats the same fit
        backend = fake_backend({d: (3, 1e-8, True) for d in range(-10, 11)}, saturate=3)
        result = bd.identify(samples, backend, max_abs_degree=10)
        assert backend.calls == [0, 1, 2, 3, 4, -1, -2, -3, -4]
        assert abs(result.best_degree) == 3

    def test_term_cap_follows_the_converged_incumbent(self):
        samples = inverse_decay_samples(1.0, 2.0, 5)
        backend = fake_backend({
            0: (9, 1e-3, False),
            1: (9, 1e-3, False),   # incumbent not converged: no cap
            2: (3, 1e-8, True),    # incumbent not converged: no cap
            3: (4, 1e-8, True),    # cap max(3, 3 + 1) = 4; worse: stop
            -1: (5, 1e-8, True),   # incumbent (baseline) not converged: no cap
            -2: (6, 1e-8, True),   # cap max(5, 2 + 1) = 5; worse: stop
        })
        result = bd.identify(samples, backend, max_abs_degree=5)
        assert backend.calls == [0, 1, 2, 3, -1, -2]
        assert backend.caps == [None, None, None, 4, None, 5]
        assert [c.max_terms for c in result.candidates] == backend.caps
        assert result.best_degree == 2

    def test_bad_max_abs_degree(self):
        samples = inverse_decay_samples(1.0, 2.0, 5)
        with pytest.raises(ValueError):
            bd.identify(samples, fake_backend({0: (1, 0.0, True)}), max_abs_degree=0)

    def test_every_fit_gets_the_calls_record(self):
        # one dict per identify call, the same for all of its fits
        records = []
        fake = fake_backend({d: (3, 1e-8, True) for d in range(-2, 3)})

        def backend(samples, degree, max_terms=None, record=None):
            records.append(record)
            return fake(samples, degree)

        samples = inverse_decay_samples(1.0, 2.0, 5)
        bd.identify(samples, backend, max_abs_degree=2)
        first = len(records)
        bd.identify(samples, backend, max_abs_degree=2)
        assert first > 1 and len(records) == 2 * first
        assert all(r is records[0] for r in records[:first])
        assert all(r is records[first] for r in records[first:])
        assert records[0] is not records[first] and records[0] == {}

    def test_backend_without_record_rejected(self):
        def backend(samples, degree, max_terms=None):
            raise AssertionError("a backend without ``record`` ran")

        with pytest.raises(TypeError, match="record"):
            bd.identify(inverse_decay_samples(1.0, 2.0, 5), backend)

    @pytest.mark.parametrize("argument", ["max_abs_degree"])
    def test_non_integer_rejected_before_any_fit(self, argument):
        samples = inverse_decay_samples(1.0, 2.0, 5)

        def backend(samples, degree, max_terms=None, record=None):
            raise AssertionError(f"fit at degree {degree} ran")

        # a bool is not the integer 1
        for value in (2.5, True):
            with pytest.raises(TypeError):
                bd.identify(samples, backend, **{argument: value})


def reference_sweep(table, saturate, max_abs_degree):
    """The paper's sweep written out over a ``fake_backend`` table.

    Returns the fits it asks for as (degree, max_terms) pairs, its
    candidates as (degree, terms, error, converged, max_terms) rows and the
    winner's index among them.  A candidate beats another when its key is
    smaller: converged first, then fewer terms, larger |degree|, smaller
    error.
    """
    def key(i):
        degree, terms, err, converged, _ = rows[i]
        return (not converged, terms, -abs(degree), err)

    calls, rows = [(0, None)], [(0, *table[0], None)]
    winners = []
    for direction in (1, -1):
        prev = 0
        for k in range(1, max_abs_degree + 1):
            degree = direction * k
            cap = max(rows[prev][1], k + 1) if rows[prev][3] else None
            terms, err, converged = table[degree]
            effective = degree if saturate is None else direction * min(k, saturate)
            calls.append((degree, cap))
            rows.append((effective, terms, err, converged, cap))
            if key(prev) < key(len(rows) - 1):
                break
            grew = effective != rows[prev][0]
            prev = len(rows) - 1
            if not grew:
                break
        winners.append(prev)
    pos, neg = winners
    return calls, rows, pos if key(pos) < key(neg) else neg


# one fit: terms, error, converged; few values, so that ties are common
FAKE_FITS = st.tuples(st.integers(1, 6), st.sampled_from([1e-9, 1e-8, 1e-7]), st.booleans())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data(), max_abs_degree=st.integers(1, 6))
def test_default_rule_is_the_papers_sweep(data, max_abs_degree):
    table = {d: data.draw(FAKE_FITS, label=f"fit at {d}")
             for d in range(-max_abs_degree, max_abs_degree + 1)}
    saturate = data.draw(st.none() | st.integers(1, max_abs_degree), label="saturate")
    backend = fake_backend(table, saturate)
    result = bd.identify(inverse_decay_samples(1.0, 2.0, 5), backend, max_abs_degree)
    calls, rows, winner = reference_sweep(table, saturate, max_abs_degree)
    assert list(zip(backend.calls, backend.caps)) == calls
    assert [(c.degree, c.terms, c.linf_rel_error, c.converged, c.max_terms)
            for c in result.candidates] == rows
    assert result.best is result.candidates[winner]


class TestIdentifyEndToEnd:
    def test_inverse_decay_aaa(self):
        samples = inverse_decay_samples()
        result = bd.identify(samples, bd.aaa_backend(tol=1e-8))
        assert result.best_degree == -1
        assert result.best.terms == 2
        assert result.converged
        assert result.piecewise is not None
        assert result.best in result.candidates

    def test_inverse_decay_vf(self):
        samples = inverse_decay_samples(1.0, 10.0, 30)
        result = bd.identify(samples, bd.vf_backend(tol=1e-6))
        assert result.best_degree == -1

    @pytest.mark.parametrize("count", [8, 20])
    def test_aaa_on_few_samples(self, count):
        # AAA caps the degree at terms - 1 <= count - 2, so the sweep must
        # stop before a target needs more samples than there are
        samples = bd.mass_chain_samples(2, count=count)
        result = bd.identify(samples, bd.aaa_backend(tol=1e-8))
        assert result.best_degree == -4

    def test_candidates_in_sweep_order(self, fwd2_samples):
        result = bd.identify(fwd2_samples, bd.aaa_backend(tol=1e-6), max_abs_degree=5)
        assert result.candidates[0].degree == 0
        assert result.best_degree == -4

    def test_piecewise_attached_to_winner(self, fwd2_samples):
        result = bd.identify(fwd2_samples, bd.aaa_backend(tol=1e-6), max_abs_degree=5)
        pm = result.piecewise
        assert pm.bary is result.best.model
        assert pm.cutoff > pm.train_T


# (masses, forward, AAA tol): the chains of acceptance criteria 1 and 2
SCALED_CHAINS = [(2, True, 1e-6), (3, True, 1e-6), (2, False, 1e-6), (3, False, 1e-7)]


@functools.cache
def unscaled_identifications():
    """(samples, backend, degree identified on them): AAA on each noiseless
    chain, VF on each chain with noise 1e-6."""
    cases = []
    for n, forward, tol in SCALED_CHAINS:
        cases += [(chain_samples(n, forward=forward), bd.aaa_backend(tol)),
                  (chain_samples(n, forward=forward, noise=1e-6, seed=0), bd.vf_backend(1e-4))]
    return [(samples, backend, bd.identify(samples, backend).best_degree)
            for samples, backend in cases]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(a=st.integers(-8, 8), b=st.integers(-200, 200))
@example(a=8, b=200)
def test_identified_degree_does_not_depend_on_the_units(a, b):
    # the sample points scaled by 10^a and the values by 10^b: the degree is a
    # property of the system, not of the units its data is given in
    for samples, backend, degree in unscaled_identifications():
        scaled = bd.SampleSet(10.0 ** a * samples.points, 10.0 ** b * samples.values)
        assert bd.identify(scaled, backend).best_degree == degree


def smaller(*caps):
    """The smallest of the term caps given, ``None`` standing for no cap."""
    return min((cap for cap in caps if cap is not None), default=None)


def unshared_aaa_backend(tol, max_terms=None):
    """AAA backend whose fits share nothing, as a direct ``aaa`` call."""
    own = max_terms

    def fit(samples, degree, max_terms=None, record=None):
        return bd.aaa(samples, bd.AaaConfig(tol=tol, target_degree=degree,
                                            max_terms=smaller(own, max_terms)))
    return fit


def recording(backend):
    """``backend`` that also keeps every (degree, model, report) it returns."""
    fits = []

    def fit(samples, degree, max_terms=None, record=None):
        model, report = backend(samples, degree, max_terms=max_terms, record=record)
        fits.append((degree, model, report))
        return model, report

    fit.fits = fits
    return fit


def assert_same_fits(got, want):
    assert [d for d, _, _ in got] == [d for d, _, _ in want]
    for (_, model, report), (_, ref, ref_report) in zip(got, want):
        assert np.array_equal(model.supports, ref.supports)
        assert np.array_equal(model.support_values, ref.support_values)
        assert np.array_equal(model.weights, ref.weights)
        assert report == ref_report


# (samples, tol, max_terms): the four noiseless chains, at 200 samples and
# at the benchmark's 1 000; a noisy sweep whose fits end at a term cap of 8;
# a noisy sweep whose checks fail for up to 31 terms, so that fits resume on
# picks recorded at failed checks; and three samples, where every fit is short
SHARED_SWEEPS = {
    **{f"{tag}{suffix}": (lambda n=n, fw=fw, count=count:
                          chain_samples(n, forward=fw, count=count), tol, None)
       for tag, n, fw, tol in (("fwd2", 2, True, 1e-6), ("fwd3", 3, True, 1e-6),
                               ("inv2", 2, False, 1e-6), ("inv3", 3, False, 1e-7))
       for suffix, count in (("", 200), ("-1000", 1000))},
    "noisy-capped": (lambda: chain_samples(2, noise=1e-4, seed=0), 1e-12, 8),
    "noisy-fwd2-300": (lambda: chain_samples(2, noise=1e-6, seed=0, count=300), 1e-5, None),
    "three-samples": (lambda: bd.SampleSet([1j, 2j, 3j], [1.0, 2.0, 5.0]), 1e-12, None),
}


class TestSharedAaaPath:
    """``aaa_backend`` lets the fits of a sweep share their fully
    constrained first steps; every fit must stay what a direct call gives."""

    @pytest.mark.parametrize("name", SHARED_SWEEPS)
    def test_same_fits_as_unshared_backend(self, name):
        make_samples, tol, max_terms = SHARED_SWEEPS[name]
        samples = make_samples()
        shared = recording(bd.aaa_backend(tol, max_terms))
        unshared = recording(unshared_aaa_backend(tol, max_terms))
        result = bd.identify(samples, shared)
        ref = bd.identify(samples, unshared)
        assert len(shared.fits) == len(result.candidates) >= 3
        assert_same_fits(shared.fits, unshared.fits)
        assert result.best_degree == ref.best_degree

    def test_cap_below_a_recorded_degree(self):
        # the record reaches step 4, but a two-term fit at -5 resumes no
        # deeper than its cap and stays the direct fit
        samples = chain_samples(2)
        spine = {}
        bd.aaa(samples, bd.AaaConfig(tol=1e-6, target_degree=-5), spine=spine)
        assert -4 in spine
        config = bd.AaaConfig(tol=1e-6, target_degree=-5, max_terms=2)
        got = bd.aaa(samples, config, spine=spine)
        assert got[1].terms == 2
        assert_same_fits([(-5, *got)], [(-5, *bd.aaa(samples, config))])

    def test_fewer_weight_solves_and_the_same_on_a_rerun(self, monkeypatch):
        # a fully constrained step takes its weights from its one-column
        # basis without a solve, shared or not; the constraint basis is
        # found once per step that adds a support, so it counts the steps
        aaa_module = importlib.import_module("barydeg.aaa")
        basis = aaa_module.nullspace_basis
        calls = []

        def counting(V, left_scaling=None):
            calls.append(V.shape)
            return basis(V, left_scaling=left_scaling)

        monkeypatch.setattr(aaa_module, "nullspace_basis", counting)
        samples = chain_samples(3)

        def steps(backend):
            calls.clear()
            bd.identify(samples, backend)
            return len(calls)

        unshared = steps(unshared_aaa_backend(1e-6))
        shared = bd.aaa_backend(1e-6)
        first = steps(shared)
        # the path left by the first sweep must not save the second any work
        assert first < unshared
        assert steps(shared) == first

    def test_record_does_not_depend_on_call_order(self, monkeypatch):
        # paths recorded before any degree-0 fit, fits resuming on steps that
        # fits of other degrees recorded, and a repeated degree; the constraint
        # basis is found once per step that adds a support, so it counts the steps
        aaa_module = importlib.import_module("barydeg.aaa")
        basis = aaa_module.nullspace_basis
        calls = []

        def counting(V, left_scaling=None):
            calls.append(V.shape)
            return basis(V, left_scaling=left_scaling)

        monkeypatch.setattr(aaa_module, "nullspace_basis", counting)
        samples = chain_samples(2)
        shared, direct = bd.aaa_backend(1e-6), unshared_aaa_backend(1e-6)
        record = {}

        def counted_fit(backend, degree, record=None):
            calls.clear()
            model, report = backend(samples, degree, record=record)
            return (degree, model, report), len(calls)

        skipped = []
        for degree in (3, 1, -2, 0, 2, -1, -3, 4, -4, 1):
            got, steps = counted_fit(shared, degree, record=record)
            want, direct_steps = counted_fit(direct, degree)
            assert_same_fits([got], [want])
            skipped.append(direct_steps - steps)
        # a fit at d skips each step m <= |d| that a fit of its sign recorded
        # (key 0 serves both signs): only the first fit, at 3, skips none
        assert skipped == [0, 2, 1, 1, 3, 2, 3, 4, 4, 2]


def unshared_vf_backend(tol, max_terms=None):
    """VF backend whose fits share nothing, as a direct ``vf_adaptive`` call."""
    own = max_terms

    def fit(samples, degree, max_terms=None, record=None):
        return bd.vf_adaptive(samples, bd.VfConfig(tol=tol, target_degree=degree,
                                                   max_terms=smaller(own, max_terms)))
    return fit


def assert_same_vf_fits(got, want):
    assert [d for d, _, _ in got] == [d for d, _, _ in want]
    for (_, model, report), (_, ref, ref_report) in zip(got, want):
        assert np.array_equal(model.supports, ref.supports)
        assert np.array_equal(model.num_weights, ref.num_weights)
        assert np.array_equal(model.den_weights, ref.den_weights)
        assert report == ref_report


def few_samples(count):
    rng = np.random.default_rng(count)
    return bd.SampleSet(bd.sample_grid(1e-2, 1.0, count),
                        rng.standard_normal(count) + 1j * rng.standard_normal(count))


# (samples, tol): the three chains of the noisy VF benchmark over a few noise
# draws, and sets of 3, 4 and 6 samples, where the fits outgrow the data
SHARED_VF_SWEEPS = {
    **{f"{tag}-seed{seed}": (lambda n=n, fw=fw, seed=seed:
                             chain_samples(n, forward=fw, noise=1e-6, seed=seed), 1e-4)
       for tag, n, fw in (("fwd2", 2, True), ("inv2", 2, False), ("fwd3", 3, True))
       for seed in (0, 1, 2)},
    **{f"{count}-samples": (lambda count=count: few_samples(count), 1e-12)
       for count in (3, 4, 6)},
}


def counting_factorizations(monkeypatch):
    """Count the sample-sized QR factorizations that ``barydeg.vf`` runs."""
    vf_module = importlib.import_module("barydeg.vf")
    factor = vf_module._factor
    calls = []

    def counting(samples, supports):
        calls.append(supports.size)
        return factor(samples, supports)

    monkeypatch.setattr(vf_module, "_factor", counting)
    return calls


class TestSharedVfGrids:
    """``vf_backend`` lets the fits of a sweep reuse the QR triangles of the
    grids that earlier fits of the sweep factored; every fit must stay what
    a direct call gives."""

    @pytest.mark.parametrize("name", SHARED_VF_SWEEPS)
    def test_same_fits_as_unshared_backend(self, name):
        make_samples, tol = SHARED_VF_SWEEPS[name]
        samples = make_samples()
        shared = recording(bd.vf_backend(tol))
        unshared = recording(unshared_vf_backend(tol))
        result = bd.identify(samples, shared)
        ref = bd.identify(samples, unshared)
        assert len(shared.fits) == len(result.candidates) >= 3
        assert_same_vf_fits(shared.fits, unshared.fits)
        assert result.best_degree == ref.best_degree

    def test_factorizations_of_a_sweep_and_of_its_rerun(self, monkeypatch):
        calls = counting_factorizations(monkeypatch)
        # the degree-0 fit converges with 10 terms, which caps the fits at +1
        # and -1: they stop on its last grid and factor nothing past its
        # record (the next test covers that path)
        samples = chain_samples(3, noise=1e-6, seed=0)

        def sweep(backend):
            calls.clear()
            fits = recording(backend)
            bd.identify(samples, fits)
            return len(calls), [(d, report.terms) for d, _, report in fits.fits]

        unshared, _ = sweep(unshared_vf_backend(1e-4))
        shared = bd.vf_backend(1e-4)
        first, terms = sweep(shared)
        # the degree-0 fit factors its grids m < t0 and records them; a fit
        # at d runs the grids |d| <= m < t_d and factors those past the record
        (zero, t0), others = terms[0], terms[1:]
        assert zero == 0
        assert first == t0 + sum(max(0, t - max(abs(d), t0)) for d, t in others)
        assert first < unshared
        # what the first sweep left must not save the second any work
        assert sweep(shared) == (first, terms)

    def test_uncapped_fits_factor_the_grids_past_the_record(self, monkeypatch):
        calls = counting_factorizations(monkeypatch)
        # called without a cap after a degree-0 fit, the fits at +1 and -1
        # outgrow its grids; each factors only the grids past the record,
        # which then holds them for the next fit
        samples = chain_samples(3, noise=1e-6, seed=0)
        shared = recording(bd.vf_backend(1e-4))
        record = {}
        recorded = shared(samples, 0, record=record)[1].terms
        for degree in (1, -1):
            calls.clear()
            terms = shared(samples, degree, record=record)[1].terms
            assert terms > recorded
            # grid m has m + 1 supports; grids m < recorded come from the record
            assert calls == list(range(recorded + 1, terms + 1))
            recorded = max(recorded, terms)
        fresh = recording(unshared_vf_backend(1e-4))
        for degree in (0, 1, -1):
            fresh(samples, degree)
        assert_same_vf_fits(shared.fits, fresh.fits)

    def test_record_does_not_depend_on_call_order(self, monkeypatch):
        # fits that do not start at degree 0, and grids recorded by fits of
        # either sign: no grid is factored twice, and every fit stays direct
        calls = counting_factorizations(monkeypatch)
        samples = chain_samples(3, noise=1e-6, seed=0)
        shared = recording(bd.vf_backend(1e-4))
        record = {}
        for degree in (4, 0, 2, -1):
            shared(samples, degree, record=record)
        assert len(calls) == len(set(calls)) == len(record)
        assert sorted(calls) == [m + 1 for m in sorted(record)]
        direct = unshared_vf_backend(1e-4)
        assert_same_vf_fits(shared.fits, [(d, *direct(samples, d)) for d in (4, 0, 2, -1)])


def uncapped(backend):
    """``backend`` with the sweep's term cap dropped, so that every fit runs
    to convergence or to the backend's own cap."""
    def fit(samples, degree, max_terms=None, record=None):
        return backend(samples, degree, record=record)
    return fit


def same_fit(got, want):
    """True when two recorded (degree, model, report) fits are bit-identical."""
    (degree, model, report), (ref_degree, ref, ref_report) = got, want
    return (degree == ref_degree and type(model) is type(ref) and report == ref_report
            and all(np.array_equal(getattr(model, f.name), getattr(ref, f.name))
                    for f in dataclasses.fields(model)))


# every shared-path sweep, through the backend it is run with
CAPPED_SWEEPS = {
    **{f"aaa-{name}": (make, lambda tol=tol, cap=cap: bd.aaa_backend(tol, cap))
       for name, (make, tol, cap) in SHARED_SWEEPS.items()},
    **{f"vf-{name}": (make, lambda tol=tol: bd.vf_backend(tol))
       for name, (make, tol) in SHARED_VF_SWEEPS.items()},
}


class TestTermCap:
    """``identify`` stops each fit once it has more terms than its converged
    incumbent; that must change no winner, and no fit but the last of each
    direction, which may only end at its cap without converging."""

    @pytest.mark.parametrize("name", CAPPED_SWEEPS)
    def test_same_winner_as_uncapped_sweep(self, name):
        make_samples, make_backend = CAPPED_SWEEPS[name]
        samples = make_samples()
        capped = recording(make_backend())
        free = recording(uncapped(make_backend()))
        result = bd.identify(samples, capped)
        ref = bd.identify(samples, free)
        assert result.best_degree == ref.best_degree
        assert result.converged == ref.converged
        assert same_fit(capped.fits[result.candidates.index(result.best)],
                        free.fits[ref.candidates.index(ref.best)])
        assert getattr(result.piecewise, "cutoff", None) == getattr(ref.piecewise, "cutoff", None)
        requested = [d for d, _, _ in capped.fits]
        assert requested == [d for d, _, _ in free.fits]
        last = {max(requested), min(requested)}
        for got, want, cand in zip(capped.fits, free.fits, result.candidates):
            if not same_fit(got, want):
                degree, _, report = got
                assert degree in last
                assert not report.converged and report.terms <= cand.max_terms

    def test_cap_stops_the_losing_fits(self):
        # the degree-0 fit converges with 10 terms; uncapped, the fits at +1
        # and -1 converge only with 14 and 17
        samples = chain_samples(3, noise=1e-6, seed=0)
        result = bd.identify(samples, bd.vf_backend(1e-4))
        assert [(c.degree, c.terms, c.converged, c.max_terms) for c in result.candidates] == [
            (0, 10, True, None), (1, 10, False, 10), (-1, 10, False, 10)]
        assert result.best_degree == 0

    def test_failed_sweep_names_no_degree(self):
        # three terms are too few for any degree to converge at tol 1e-4
        samples = chain_samples(3, noise=1e-6, seed=0)
        result = bd.identify(samples, bd.vf_backend(1e-4, max_terms=3))
        assert not result.converged and result.piecewise is None
        assert result.best_degree is None
        assert not any(c.converged for c in result.candidates)
        assert result.best.degree == -2 and result.best in result.candidates

    def test_vf_cap_below_the_degree(self):
        # three terms hold degree 2 at most: the fits at +-3 run at +-2, and
        # the saturation rule ends each direction there
        samples = chain_samples(3, noise=1e-6, seed=0)
        fits = recording(bd.vf_backend(1e-4, max_terms=3))
        result = bd.identify(samples, fits)
        assert [d for d, _, _ in fits.fits] == [0, 1, 2, 3, -1, -2, -3]
        assert [c.degree for c in result.candidates] == [0, 1, 2, 2, -1, -2, -2]
        assert all(c.terms <= 3 for c in result.candidates)
        direct = unshared_vf_backend(1e-4, max_terms=3)
        for requested, fitted in ((3, 2), (-3, -2)):
            got = next(fit for fit in fits.fits if fit[0] == requested)
            assert_same_vf_fits([got], [(requested, *direct(samples, fitted))])


class TestVfBackendCap:
    """``vf_backend`` passes its term cap through, as ``aaa_backend`` does;
    only ``vf_adaptive`` turns no cap into its default of 60 terms."""

    # noisy data at a tolerance no fit meets, so every fit ends at its cap
    NOISY = dict(n=2, noise=1e-4, seed=0)

    @pytest.mark.parametrize("own, called, terms", [
        (None, None, 60), (None, 8, 8), (5, 8, 5), (8, 5, 5), (None, 70, 70)])
    def test_smaller_cap_wins_and_none_is_the_fitters(self, own, called, terms):
        samples = chain_samples(**self.NOISY)
        _, report = bd.vf_backend(1e-12, max_terms=own)(samples, 0, max_terms=called)
        assert (report.terms, report.converged) == (terms, False)

    @pytest.mark.parametrize("name", SHARED_VF_SWEEPS)
    def test_sweeps_match_the_explicit_default(self, name):
        make_samples, tol = SHARED_VF_SWEEPS[name]
        samples = make_samples()
        default = bd.identify(samples, bd.vf_backend(tol))
        explicit = bd.identify(samples, bd.vf_backend(
            tol, max_terms=importlib.import_module("barydeg.vf").DEFAULT_MAX_TERMS))

        def rows(result):
            return [(c.degree, c.terms, c.linf_rel_error, c.converged, c.max_terms)
                    for c in result.candidates]

        assert rows(default) == rows(explicit)
        assert default.best_degree == explicit.best_degree
