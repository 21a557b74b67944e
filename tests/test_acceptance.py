"""Acceptance suite: one test per release criterion.

Each test prints a single ``[acceptance] criterion N: PASS/FAIL`` line
(visible with ``pytest tests/test_acceptance.py -v -s`` and in failure
output) and asserts every sub-check at its stated tolerance.
"""

import time

import numpy as np
import pytest

import barydeg as bd
from barydeg.asymptotic import eval_asymptotic
from barydeg.core import nullspace_basis
from barydeg.identify import CandidateRecord, better

from conftest import chain_samples, distinct_unit_disc_points, exact_type_model, inverse_decay_samples

NOISE_SEED = 1  # frozen realization for the stochastic criteria


def _report(criterion, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[acceptance] criterion {criterion}: {status}")
    for f in failures:
        print(f"    - {f}")
    assert not failures


def _identify_chain(n, forward, tol, noise=0.0, backend="aaa"):
    samples = chain_samples(n, forward=forward, noise=noise, seed=NOISE_SEED)
    make = bd.aaa_backend if backend == "aaa" else bd.vf_backend
    t0 = time.perf_counter()
    result = bd.identify(samples, make(tol=tol))
    return result, time.perf_counter() - t0


def test_criterion_1_table_reproduction_noiseless_aaa():
    failures = []
    cases = [(2, True, -4), (3, True, -6), (2, False, 4), (3, False, 0)]
    for n, forward, expected in cases:
        result, elapsed = _identify_chain(n, forward, tol=1e-6)
        tag = f"{'forward' if forward else 'inverted'} {n}-mass"
        if result.best_degree != expected:
            failures.append(f"{tag}: identified {result.best_degree}, expected {expected}")
        if elapsed >= 10.0:
            failures.append(f"{tag}: took {elapsed:.1f}s (limit 10s)")
    _report(1, failures)


def test_criterion_2_tolerance_fix_recovers_inverted_3mass():
    failures = []
    result, elapsed = _identify_chain(3, False, tol=1e-7)
    if result.best_degree != 6:
        failures.append(f"identified {result.best_degree}, expected 6")
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s (limit 30s)")
    _report(2, failures)


def test_criterion_3_vf_on_noisy_data():
    failures = []
    for n, forward, expected in [(2, True, -4), (2, False, 4)]:
        result, _ = _identify_chain(n, forward, tol=1e-4, noise=1e-6, backend="vf")
        tag = f"{'forward' if forward else 'inverted'} {n}-mass"
        if result.best_degree != expected:
            failures.append(f"{tag}: identified {result.best_degree}, expected {expected}")
    result, _ = _identify_chain(3, True, tol=1e-4, noise=1e-6, backend="vf")
    if abs(result.best_degree) > 6:
        failures.append(f"forward 3-mass: |degree| = {abs(result.best_degree)} > 6")
    if not (result.best.converged and result.best.linf_rel_error <= 1e-4):
        failures.append(
            f"forward 3-mass: fit error {result.best.linf_rel_error:.2e} above 1e-4"
        )
    _report(3, failures)


def test_criterion_4_constrained_fit_invariants():
    # On noise-free 2-mass data every converged fit lands exactly on the
    # underlying rational function, whose own degree overrides any weaker
    # imposed constraint; the multiplicative 1e-6 noise makes the
    # constraints bite generically, so the classified degree must equal the
    # degree the fit actually imposed: sign(d) * min(|d|, terms - 1).
    failures = []
    for forward in (True, False):
        samples = chain_samples(2, forward=forward, noise=1e-6, seed=NOISE_SEED)
        tag = "forward" if forward else "inverted"
        for delta in range(-6, 7):
            model, rep = bd.aaa(samples, bd.AaaConfig(tol=1e-4, target_degree=delta))
            prefix = f"{tag} 2-mass, degree {delta:+d}"
            if not rep.converged:
                failures.append(f"{prefix}: did not converge")
                continue
            expected = int(np.sign(delta)) * min(abs(delta), rep.terms - 1)
            if rep.effective_degree != expected:
                failures.append(f"{prefix}: effective degree {rep.effective_degree}")
            if rep.constraint_residual > 1e-10:
                failures.append(
                    f"{prefix}: constraint residual {rep.constraint_residual:.2e}")
            if min(rep.leading_sum_magnitudes) <= 1e-15:
                failures.append(
                    f"{prefix}: leading sums {rep.leading_sum_magnitudes}")
            rdeg = bd.classify_degree(model).rdeg
            if rdeg != rep.effective_degree:
                failures.append(
                    f"{prefix}: classified {rdeg}, imposed {rep.effective_degree}")
    _report(4, failures)


def test_criterion_5_exact_representability_of_inverse_decay():
    failures = []
    samples = inverse_decay_samples()
    model, rep = bd.aaa(samples, bd.AaaConfig(tol=1e-10, target_degree=-1))
    if not (rep.converged and rep.terms == 2):
        failures.append(f"fit: terms {rep.terms}, converged {rep.converged}")
    if rep.linf_rel_error > 1e-10:
        failures.append(f"full-band error {rep.linf_rel_error:.2e} above 1e-10")
    result = bd.identify(samples, bd.aaa_backend(tol=1e-8))
    if result.best_degree != -1:
        failures.append(f"identified {result.best_degree}, expected -1")
    _report(5, failures)


def test_criterion_6_series_and_asymptotic_oracles():
    failures = []
    rng = np.random.default_rng(606)
    for case in range(100):
        m = int(rng.integers(0, 6))
        sk = distinct_unit_disc_points(rng, m + 1)
        alpha = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
        rho = max(float(np.max(np.abs(sk))), 1e-2)
        s = 3 * rho * np.exp(1j * rng.uniform(0, 2 * np.pi))
        direct = np.sum(alpha / (s - sk))
        series = sum(np.sum(alpha * sk**l) / s ** (l + 1) for l in range(61))
        if abs(series - direct) > 1e-12 * abs(direct):
            failures.append(f"series case {case}: {abs(series - direct):.2e}")
    for case in range(25):
        m = int(rng.integers(1, 6))
        mu = int(rng.integers(0, min(m, 2) + 1))
        nu = int(rng.integers(0, min(m, 2) + 1))
        model = exact_type_model(rng, m, mu, nu)
        asym = bd.moments(model)
        rho = float(np.max(np.abs(model.supports)))
        for factor in (10.0, 12.0):
            s = factor * rho * np.exp(1j * rng.uniform(0, 2 * np.pi))
            exact = model(s)
            err = abs(eval_asymptotic(asym, s) - exact)
            if err > 10 * (rho / abs(s)) ** 11 * abs(exact):
                failures.append(f"asymptotic case {case} at {factor} rho: {err:.2e}")
    _report(6, failures)


def _natural_degree_fits():
    for n, forward in [(2, True), (2, False), (3, True), (3, False)]:
        samples = chain_samples(n, forward=forward)
        degree = -2 * n if forward else 2 * n
        model, rep = bd.aaa(samples, bd.AaaConfig(tol=1e-6, target_degree=degree))
        assert rep.converged
        tag = f"{'forward' if forward else 'inverted'} {n}-mass"
        yield tag, bd.make_piecewise(model, samples)


def _branch_error_estimates(pm):
    """Predicted relative errors (E_a, E_b) of the two branches at the cutoff.

    Both come from the fitted model's own power sums, in the scaled variable
    z_k = s_k / shat.  E_a is the first term the asymptotic branch leaves
    out: |c_{N+1}/c_0 - d_{N+1}/d_0| (shat/R)^(N+1), with c, d the moments
    extended to order N + 1.  E_b is the cancellation error of the
    barycentric branch: each power sum below the degree defect is zero in
    exact arithmetic but only to rounding in the fit, and enters with
    relative weight |sum_k u_k z_k^l| / |sum_k u_k z_k^mu| (R/shat)^(mu-l);
    the numerator (u, mu) and denominator (w, nu) terms add.  See Higham,
    "The numerical stability of barycentric Lagrange interpolation", IMA
    JNA 2004.
    """
    order, R, shat = pm.asym.order, pm.cutoff, pm.asym.scale
    ext = bd.moments(pm.bary, order + 1)
    c, d = ext.num_moments_scaled, ext.den_moments_scaled
    e_a = abs(c[-1] / c[0] - d[-1] / d[0]) * (shat / R) ** (order + 1)
    z = pm.bary.supports / shat
    e_b = 0.0
    for coeffs, defect, lead in zip(pm.bary.coefficients, (ext.mu, ext.nu), (c[0], d[0])):
        for l in range(defect):
            e_b += abs(np.sum(coeffs * z**l)) / abs(lead) * (R / shat) ** (defect - l)
    return e_a, e_b


def test_criterion_7_cutoff_formula_and_seam_agreement():
    failures = []
    value = bd.cutoff_radius(1.0, 1e-6, -4, 10)
    if abs(value - 10**0.4) > 1e-12 * 10**0.4:
        failures.append(f"cutoff_radius value {value!r}")
    for tag, pm in _natural_degree_fits():
        s = 1j * pm.cutoff
        bary = pm.bary(s)
        asym = eval_asymptotic(pm.asym, s)
        seam = abs(bary - asym) / abs(asym)
        bound = 10 * max(pm.train_eps, *_branch_error_estimates(pm))
        if seam > bound:
            failures.append(f"{tag}: seam {seam:.2e} above bound {bound:.2e}")
    _report(7, failures)


def test_criterion_8_extrapolation_benefit_forward_3mass():
    failures = []
    samples = chain_samples(3, forward=True)
    model, rep = bd.aaa(samples, bd.AaaConfig(tol=1e-6, target_degree=-6))
    pm = bd.make_piecewise(model, samples)
    sys3 = bd.MassChainSystem(3)
    s = 1j * 1e3
    truth = bd.forward_tf(sys3, s)
    err_piecewise = abs(bd.eval_piecewise(pm, s) - truth) / abs(truth)
    err_bary = abs(model(s) - truth) / abs(truth)
    if err_piecewise > err_bary / 10:
        failures.append(
            f"piecewise {err_piecewise:.2e} not 10x below barycentric {err_bary:.2e}")
    if err_piecewise > 1e-2:
        failures.append(f"piecewise error {err_piecewise:.2e} above 1e-2")
    if err_bary < 1e-1:
        failures.append(f"barycentric error {err_bary:.2e} unexpectedly small")
    _report(8, failures)


def test_criterion_9_randomized_property_suites():
    failures = []
    rng = np.random.default_rng(909)

    # interpolation identity
    for case in range(200):
        m = int(rng.integers(0, 9))
        supports = distinct_unit_disc_points(rng, m + 1)
        values = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
        w = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
        model = bd.BarycentricModel.from_weights(supports, values, w)
        if not np.array_equal(model(supports), model.support_values):
            failures.append(f"interpolation case {case}")

    # strict partial order of the comparison criterion
    anchor = bd.BarycentricModel([0.0], [1.0], [1.0])
    for case in range(200):
        a, b = (
            CandidateRecord(
                degree=int(rng.integers(-8, 9)), terms=int(rng.integers(1, 10)),
                linf_rel_error=float(10.0 ** rng.uniform(-12, -2)),
                converged=bool(rng.integers(0, 2)), model=anchor)
            for _ in range(2)
        )
        if better(a, a) or better(b, b) or (better(a, b) and better(b, a)):
            failures.append(f"partial order case {case}")

    # noise determinism and bound
    for case in range(200):
        k = int(rng.integers(1, 40))
        vals = rng.normal(size=k) + 1j * rng.normal(size=k)
        level = float(10.0 ** rng.uniform(-9, -2))
        seed = int(rng.integers(0, 2**31))
        a = bd.add_noise(vals, level, seed)
        if not np.array_equal(a, bd.add_noise(vals, level, seed)):
            failures.append(f"noise determinism case {case}")
        if not np.all(np.abs(a / vals - 1.0) <= level * (1 + 1e-12)):
            failures.append(f"noise bound case {case}")

    # forward/inverse reciprocity
    for case in range(200):
        sys_ = bd.MassChainSystem(2 if case % 2 else 3)
        s = rng.uniform(0.1, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        prod = bd.forward_tf(sys_, s) * bd.inverse_tf(sys_, s)
        if abs(prod - 1.0) > 1e-13:
            failures.append(f"reciprocity case {case}: {abs(prod - 1.0):.2e}")

    # Vandermonde null-space residuals
    for case in range(200):
        rows = int(rng.integers(2, 10))
        cols = int(rng.integers(1, rows))
        V = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        f = rng.normal(size=rows) + 1j * rng.normal(size=rows)
        Q = nullspace_basis(V, left_scaling=f)
        A = f[:, None] * V
        if np.max(np.abs(A.T @ Q)) > 1e-12 * np.linalg.norm(A):
            failures.append(f"nullspace residual case {case}")
        if np.max(np.abs(Q.conj().T @ Q - np.eye(rows - cols))) > 1e-13:
            failures.append(f"nullspace orthonormality case {case}")

    _report(9, failures)
