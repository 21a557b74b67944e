import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    +-saturate, as AAA caps it at terms - 1.
    """
    calls = []
    model = bd.BarycentricModel([1.0, 2.0], [1.0, 1.0],
                                np.array([1.0, 1.0]) / np.sqrt(2))

    def fit(samples, degree):
        calls.append(degree)
        terms, err, converged = table[degree]
        report = FitReport(terms=terms, linf_rel_error=err, l2_rel_error=err,
                           converged=converged, constraint_residual=0.0,
                           leading_sum_magnitudes=(1.0, 1.0),
                           effective_degree=degree if saturate is None
                           else int(np.sign(degree)) * min(abs(degree), saturate))
        return model, report

    fit.calls = calls
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

    def test_bad_max_abs_degree(self):
        samples = inverse_decay_samples(1.0, 2.0, 5)
        with pytest.raises(ValueError):
            bd.identify(samples, fake_backend({0: (1, 0.0, True)}), max_abs_degree=0)


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


def unshared_aaa_backend(tol, max_terms=None):
    """AAA backend whose fits share nothing, as a direct ``aaa`` call."""
    def fit(samples, degree):
        return bd.aaa(samples, bd.AaaConfig(tol=tol, target_degree=degree, max_terms=max_terms))
    return fit


def recording(backend):
    """``backend`` that also keeps every (degree, model, report) it returns."""
    fits = []

    def fit(samples, degree):
        model, report = backend(samples, degree)
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


# (samples, tol, max_terms): the four noiseless chains, a noisy sweep whose
# fits end at a term cap of 8, and three samples, where every fit is short
SHARED_SWEEPS = {
    "fwd2": (lambda: chain_samples(2), 1e-6, None),
    "fwd3": (lambda: chain_samples(3), 1e-6, None),
    "inv2": (lambda: chain_samples(2, forward=False), 1e-6, None),
    "inv3": (lambda: chain_samples(3, forward=False), 1e-7, None),
    "noisy-capped": (lambda: chain_samples(2, noise=1e-4, seed=0), 1e-12, 8),
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

    def test_fewer_weight_solves_and_the_same_on_a_rerun(self, monkeypatch):
        aaa_module = importlib.import_module("barydeg.aaa")
        solve = aaa_module.solve_constrained_weights
        calls = []

        def counting(L, Q):
            calls.append(L.shape)
            return solve(L, Q)

        monkeypatch.setattr(aaa_module, "solve_constrained_weights", counting)
        samples = chain_samples(3)

        def solves(backend):
            calls.clear()
            bd.identify(samples, backend)
            return len(calls)

        unshared = solves(unshared_aaa_backend(1e-6))
        shared = bd.aaa_backend(1e-6)
        first = solves(shared)
        # the path left by the first sweep must not save the second any work
        assert first < unshared
        assert solves(shared) == first

    def test_backend_follows_the_samples_it_is_given(self):
        # one backend fed two sample sets in turn, within and across sweeps
        a, b = chain_samples(2), chain_samples(2, forward=False)
        shared = recording(bd.aaa_backend(1e-6))
        fresh = recording(unshared_aaa_backend(1e-6))
        for degree in (0, 1, 2, -1, -2, -3):
            for samples in (a, b):
                shared(samples, degree)
                fresh(samples, degree)
        for samples in (a, b, a):
            shared_sweep = recording(shared)
            fresh_sweep = recording(bd.aaa_backend(1e-6))
            bd.identify(samples, shared_sweep)
            bd.identify(samples, fresh_sweep)
            assert_same_fits(shared_sweep.fits, fresh_sweep.fits)
        assert_same_fits(shared.fits[:12], fresh.fits)
