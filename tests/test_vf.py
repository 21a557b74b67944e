import importlib
import warnings

import numpy as np
import pytest

import barydeg as bd
from barydeg.core import (
    degree_diagnostics,
    nullspace_basis,
    solve_constrained_weights,
    vandermonde,
)
from barydeg.errors import ConstraintError, GridError, PoleEvaluationError
from barydeg.vf import _grid, geometric_supports, vf_solve

from conftest import chain_samples, inverse_decay_samples, traced_peak


class TestGeometricSupports:
    def test_single_magnitude(self):
        ss = bd.SampleSet([1j], [1.0])
        assert np.array_equal(geometric_supports(ss, 0), [0.9j])

    def test_one_decade_two_points(self):
        pts = bd.sample_grid(1.0, 10.0, 20)
        ss = bd.SampleSet(pts, 1.0 / pts)
        sup = geometric_supports(ss, 1)
        assert np.allclose(sup, [0.9j, 0.9j * 12.0], rtol=1e-15)

    def test_one_decade_three_points(self):
        pts = bd.sample_grid(1.0, 10.0, 20)
        ss = bd.SampleSet(pts, 1.0 / pts)
        sup = geometric_supports(ss, 2)
        assert np.allclose(sup, [0.9j, 0.9j * np.sqrt(12.0), 10.8j], rtol=1e-15)

    def test_disjoint_from_samples(self):
        ss = chain_samples(2)
        for m in range(8):
            sup = geometric_supports(ss, m)
            assert np.unique(sup).size == m + 1
            assert not np.isin(sup, ss.points).any()

    def test_origin_sample_rejected(self):
        ss = bd.SampleSet([0.0, 1j], [1.0, 2.0])
        with pytest.raises(GridError):
            geometric_supports(ss, 1)


class TestVfSolve:
    def test_constant_data(self):
        ss = bd.SampleSet([1j, 2j], [1.0, 1.0])
        grid = _grid(ss, np.asarray([0.9j, 2.4j], dtype=complex))
        model = bd.GeneralBarycentricModel.from_weights([0.9j, 2.4j], *vf_solve(grid, 0))
        vals = model(ss.points)
        assert np.max(np.abs(vals - 1.0)) <= 1e-12

    def test_inverse_decay_exact_under_constraint(self):
        pts = bd.sample_grid(1.0, 10.0, 20)
        ss = bd.SampleSet(pts, 1.0 / pts)
        supports = geometric_supports(ss, 1)
        model = bd.GeneralBarycentricModel.from_weights(
            supports, *vf_solve(_grid(ss, supports), -1))
        rel = np.abs(model(pts) - ss.values) / np.abs(ss.values)
        assert np.max(rel) <= 1e-10

    @pytest.mark.parametrize("degree", [-4, 0, 3])
    def test_numerator_attains_lstsq_residual(self, degree):
        # np.linalg.lstsq on the constrained numerator block is the reference
        ss = chain_samples(2, noise=1e-6, seed=1)
        supports = geometric_supports(ss, 8)
        model = bd.GeneralBarycentricModel.from_weights(
            supports, *vf_solve(_grid(ss, supports), degree))
        cauchy = 1.0 / (ss.points[:, None] - supports[None, :])
        basis_n = np.eye(supports.size)
        if degree < 0:
            basis_n = nullspace_basis(vandermonde(supports, -degree))
        rhs = (ss.values[:, None] * cauchy) @ model.den_weights
        ref = np.linalg.lstsq(cauchy @ basis_n, rhs, rcond=None)[0]
        resid = np.linalg.norm(cauchy @ model.num_weights - rhs)
        ref_resid = np.linalg.norm(cauchy @ basis_n @ ref - rhs)
        assert resid == pytest.approx(ref_resid, rel=1e-8)

    def test_infeasible_constraint_count(self):
        pts = bd.sample_grid(1.0, 10.0, 20)
        ss = bd.SampleSet(pts, 1.0 / pts)
        supports = geometric_supports(ss, 2)
        with pytest.raises(ConstraintError):
            vf_solve(_grid(ss, supports), 3)
        with pytest.raises(ConstraintError):
            vf_solve(_grid(ss, supports), -3)

    def test_support_collision_rejected(self):
        ss = bd.SampleSet([1j, 2j], [1.0, 1.0])
        with pytest.raises(ValueError, match="disjoint"):
            vf_solve(_grid(ss, np.asarray([1j, 3j], dtype=complex)), 0)

    def test_agrees_with_interpolatory_fit_on_exact_data(self, fwd2_samples):
        # both backends recover the same underlying function when the data
        # is exactly representable
        supports = geometric_supports(fwd2_samples, 4)
        vf_model = bd.GeneralBarycentricModel.from_weights(
            supports, *vf_solve(_grid(fwd2_samples, supports), -4))
        aaa_model, _ = bd.aaa(fwd2_samples, bd.AaaConfig(tol=1e-8, target_degree=-4))
        s = bd.sample_grid(2e-2, 0.9, 31)
        va = vf_model(s)
        vb = aaa_model(s)
        assert np.max(np.abs(va - vb) / np.abs(vb)) <= 1e-8

    @pytest.mark.parametrize("m", [4, 8, 12])
    @pytest.mark.parametrize("data", ["chain", "few"])
    def test_every_degree_attains_the_constrained_optimum(self, data, m):
        # one grid serves every degree, as a record does
        if data == "chain":
            ss = chain_samples(2, noise=1e-6, seed=1)
        else:
            # 9 samples: fewer than the 2(m + 1) unknowns of each grid here
            rng = np.random.default_rng(9)
            ss = bd.SampleSet(bd.sample_grid(1e-2, 1.0, 9),
                              rng.standard_normal(9) + 1j * rng.standard_normal(9))
        supports = geometric_supports(ss, m)
        grid = _grid(ss, supports)
        for degree in range(-m, m + 1):
            num, den = vf_solve(grid, degree)
            alone = vf_solve(_grid(ss, supports), degree)
            assert np.array_equal(num, alone[0]) and np.array_equal(den, alone[1])
            residual, optimum, scale = dense_problem(ss, supports, degree)
            assert abs(residual(num, den) - optimum) <= 1e-10 * (optimum if optimum else scale)
            model = bd.GeneralBarycentricModel.from_weights(supports, num, den)
            assert degree_diagnostics(model, degree)[0] <= 1e-10
        for degree in (-m - 1, m + 1):
            with pytest.raises(ConstraintError):
                vf_solve(grid, degree)


class TestVfAdaptive:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            bd.VfConfig(tol=0.0)
        with pytest.raises(ValueError):
            bd.VfConfig(max_terms=0)

    def test_constant_converges_immediately(self):
        pts = bd.sample_grid(1.0, 10.0, 12)
        ss = bd.SampleSet(pts, np.full(12, 2.5))
        model, rep = bd.vf_adaptive(ss, bd.VfConfig(tol=1e-4))
        assert rep.converged and rep.terms == 1
        assert rep.linf_rel_error <= 1e-12

    def test_exact_zero_samples_report_a_finite_l2_error(self):
        # a zero value's floored scale makes its relative error about 1e285,
        # whose square overflows the plain Euclidean norm
        pts = bd.sample_grid(1e-2, 1.0, 50)
        vals = np.zeros(50, dtype=complex)
        vals[-1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, rep = bd.vf_adaptive(bd.SampleSet(pts, vals), bd.VfConfig())
        assert rep.linf_rel_error > 1e200
        assert rep.linf_rel_error <= rep.l2_rel_error < np.inf

    def test_forward_chain_prescribed_degree(self, fwd2_samples):
        model, rep = bd.vf_adaptive(fwd2_samples, bd.VfConfig(tol=1e-4, target_degree=-4))
        assert rep.converged
        assert bd.classify_degree(model).rdeg == -4
        assert rep.constraint_residual <= 1e-10
        assert rep.effective_degree == -4

    def test_wrong_sign_needs_more_terms(self):
        ss = inverse_decay_samples(1.0, 10.0, 20)
        _, neg = bd.vf_adaptive(ss, bd.VfConfig(tol=1e-4, target_degree=-1))
        _, pos = bd.vf_adaptive(ss, bd.VfConfig(tol=1e-4, target_degree=1))
        assert neg.converged and pos.converged
        assert pos.terms > neg.terms

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("excess", [0, 1, 2])
    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    def test_max_terms_too_small_for_degree(self, cap, excess, sign):
        # a cap of T terms holds |degree| <= T - 1: a larger target fits at
        # sign * (T - 1), as AAA caps its effective degree
        ss = inverse_decay_samples()
        capped = sign * (cap - 1)
        model, rep = bd.vf_adaptive(
            ss, bd.VfConfig(tol=1e-4, target_degree=sign * (cap + excess), max_terms=cap))
        ref, ref_rep = bd.vf_adaptive(
            ss, bd.VfConfig(tol=1e-4, target_degree=capped, max_terms=cap))
        assert rep.effective_degree == capped
        assert rep == ref_rep
        assert np.array_equal(model.supports, ref.supports)
        assert np.array_equal(model.num_weights, ref.num_weights)
        assert np.array_equal(model.den_weights, ref.den_weights)

    @pytest.mark.parametrize("count", [2, 3, 4, 6])
    @pytest.mark.parametrize("degree", [0, -1, 2])
    @pytest.mark.parametrize("data", ["chain", "random"])
    def test_few_samples_converge(self, data, degree, count):
        # with fewer samples than numerator unknowns the numerator solve is
        # underdetermined, and the fit must still interpolate the data
        if data == "chain":
            ss = bd.mass_chain_samples(2, count=count)
        else:
            rng = np.random.default_rng(count)
            ss = bd.SampleSet(bd.sample_grid(1e-2, 1.0, count),
                              rng.standard_normal(count) + 1j * rng.standard_normal(count))
        _, rep = bd.vf_adaptive(ss, bd.VfConfig(tol=1e-12, target_degree=degree))
        assert rep.converged

    def test_grid_hitting_a_sample_rejected(self):
        # the middle support of grid 2 is also a sample, bit for bit; a fit
        # at degree 2 starts on that grid
        grid = geometric_supports(bd.SampleSet([1j, 10j], [1.0, 1.0]), 2)
        ss = bd.SampleSet([1j, grid[1], 10j], [1.0, 2.0, 0.5])
        assert np.array_equal(geometric_supports(ss, 2), grid)
        with pytest.raises(ValueError, match="disjoint"):
            bd.vf_adaptive(ss, bd.VfConfig(tol=1e-12, target_degree=2))

    def test_non_convergence_reported(self):
        ss = chain_samples(2, noise=1e-3, seed=2)
        model, rep = bd.vf_adaptive(ss, bd.VfConfig(tol=1e-12, max_terms=6))
        assert not rep.converged
        assert rep.terms == 6


def dense_problem(samples, supports, degree):
    """A round's problem on the samples, through dense numpy solves.

    Qn and Qd are the null-space bases of the constrained side and the
    identity on the other, and R is the triangle of the sample-sized
    [C Qn | f C Qd].  Returns ``(residual, optimum, scale)``:
    ``residual(n, d)`` is ||C n - f C d|| / ||d|| at the pair's projection
    on the bases, taken as ||R [u; -v]|| / ||v|| in the coordinates
    u = Qn^H n, v = Qd^H d (how far the pair leaves the constraints is
    checked on its own); ``optimum`` is its least value, from an SVD of
    R's trailing triangle and ``np.linalg.lstsq`` on its leading one (0
    when R is wide, that is with fewer samples than unknowns); ``scale`` is
    ||f C Qd||.  On the samples C n and f C d cancel to some 1e-9 of their
    size, so a residual summed there would be exact to about 1e-10 of
    itself; in coordinates the rounding of the pair moves it by far less.
    """
    cauchy = 1.0 / (samples.points[:, None] - supports[None, :])
    Q = nullspace_basis(vandermonde(supports, abs(degree)))
    eye = np.eye(supports.size)
    basis_n, basis_d = (Q, eye) if degree < 0 else (eye, Q)
    fc = samples.values[:, None] * (cauchy @ basis_d)
    r = np.linalg.qr(np.hstack([cauchy @ basis_n, fc]), mode="r")
    k = basis_n.shape[1]

    def residual(num, den):
        v = basis_d.conj().T @ den
        return np.linalg.norm(r @ np.concatenate([basis_n.conj().T @ num, -v])) / np.linalg.norm(v)

    optimum = 0.0
    if r.shape[0] >= r.shape[1]:
        v = solve_constrained_weights(r[k:, k:], np.eye(r.shape[1] - k))
        u = np.linalg.lstsq(r[:k, :k], r[:k, k:] @ v, rcond=None)[0]
        optimum = residual(basis_n @ u, basis_d @ v)
    return residual, optimum, np.linalg.norm(fc, 2)


def shared_fit(samples, degree, tol=1e-4):
    """``vf_adaptive`` at ``degree`` on the grids a degree-0 fit recorded."""
    grids = {}
    bd.vf_adaptive(samples, bd.VfConfig(tol=tol), grids=grids)
    return bd.vf_adaptive(samples, bd.VfConfig(tol=tol, target_degree=degree), grids=grids)


class TestVfRounds:
    """A round solves from the triangle of its grid's [C | f C] and takes its
    values from the Cauchy block; the model is built once, after the loop."""

    @pytest.mark.parametrize("degree", [0, 1, 3])
    @pytest.mark.parametrize("shared", [False, True])
    def test_nonnegative_degree_matches_direct_factorization(self, degree, shared):
        ss = chain_samples(2, forward=False, noise=1e-6, seed=1)
        cfg = bd.VfConfig(tol=1e-4, target_degree=degree)
        model, _ = shared_fit(ss, degree) if shared else bd.vf_adaptive(ss, cfg)
        # the last round rebuilt by a QR of the sample-sized [C | f C]
        supports = model.supports
        cauchy = 1.0 / (ss.points[:, None] - supports[None, :])
        r = np.linalg.qr(np.hstack([cauchy, ss.values[:, None] * cauchy]), mode="r")
        k = supports.size
        den = solve_constrained_weights(
            r[k:, k:], nullspace_basis(vandermonde(supports, degree)))
        num = np.linalg.lstsq(r[:k, :k], r[:k, k:] @ den, rcond=None)[0]
        ref = bd.GeneralBarycentricModel.from_weights(supports, num, den)
        # the two solves take different paths to the same singular vector,
        # so they agree up to a unit factor, not bit for bit
        phase = np.vdot(ref.den_weights, model.den_weights)
        phase /= abs(phase)
        assert np.max(np.abs(model.den_weights - phase * ref.den_weights)) <= 1e-12
        assert np.max(np.abs(model.num_weights - phase * ref.num_weights)) <= (
            1e-11 * np.max(np.abs(ref.num_weights)))

    @pytest.mark.parametrize("degree", [-4, -1, 0, 1, 3])
    def test_last_round_attains_the_dense_residual(self, degree):
        ss = chain_samples(2, forward=degree < 0, noise=1e-6, seed=1)
        model, rep = bd.vf_adaptive(ss, bd.VfConfig(tol=1e-4, target_degree=degree))
        shared, shared_rep = shared_fit(ss, degree)
        assert shared_rep == rep
        for name in ("supports", "num_weights", "den_weights"):
            assert np.array_equal(getattr(shared, name), getattr(model, name))
        # the last round against the problem it solves, factored on the samples
        residual, optimum, _ = dense_problem(ss, model.supports, degree)
        assert abs(residual(model.num_weights, model.den_weights) - optimum) <= 1e-12 * optimum
        assert rep.constraint_residual <= 1e-12

    @pytest.mark.parametrize("m", [4, 6, 12, 20])
    @pytest.mark.parametrize("degree", [-1, -2, -4])
    def test_numerator_constraint_residual(self, degree, m):
        # the solve from R and its grid's factors attains the problem that a
        # QR of the sample-sized [C Q | f C] solves: the residual left after
        # the best numerator, ||R22 d||, is the same for either denominator
        ss = chain_samples(2, noise=1e-6, seed=1)
        supports = geometric_supports(ss, m)
        cauchy = 1.0 / (ss.points[:, None] - supports[None, :])
        Q = nullspace_basis(vandermonde(supports, -degree))
        k = Q.shape[1]
        r = np.linalg.qr(np.hstack([cauchy @ Q, ss.values[:, None] * cauchy]), mode="r")
        ref = solve_constrained_weights(r[k:, k:], np.eye(m + 1))
        _, den = vf_solve(_grid(ss, supports), degree)
        assert np.linalg.norm(den) == pytest.approx(1.0, rel=1e-14)
        assert np.linalg.norm(r[k:, k:] @ den) == pytest.approx(
            np.linalg.norm(r[k:, k:] @ ref), rel=1e-12, abs=0)

    @pytest.mark.parametrize("degree", [0, -4, 2])
    @pytest.mark.parametrize("shared", [False, True])
    def test_report_error_is_the_last_rounds(self, monkeypatch, degree, shared):
        vf_module = importlib.import_module("barydeg.vf")
        relative_errors = vf_module.relative_errors
        errors = []

        def keeping(values, approx, scale=None):
            errors.append(relative_errors(values, approx, scale))
            return errors[-1]

        monkeypatch.setattr(vf_module, "relative_errors", keeping)
        ss = chain_samples(2, forward=degree <= 0, noise=1e-6, seed=3)
        grids = {}
        if shared:
            bd.vf_adaptive(ss, bd.VfConfig(tol=1e-4), grids=grids)
        errors.clear()
        _, rep = bd.vf_adaptive(ss, bd.VfConfig(tol=1e-4, target_degree=degree), grids=grids)
        # every round and then the report take their errors once each
        assert len(errors) == rep.terms - abs(degree) + 1
        last_round, report = errors[-2], errors[-1]
        assert float(np.max(last_round)) == rep.linf_rel_error
        assert np.array_equal(last_round, report)

    def test_fit_without_a_record_keeps_no_triangle(self):
        # a 60-term fit, 200 samples: holding every grid's 2(m+1)-square
        # triangle at once would take more than its whole peak does
        ss = chain_samples(2, noise=1e-3, seed=2)
        model, _ = bd.vf_adaptive(ss, bd.VfConfig(tol=1e-12))
        assert model.terms == 60
        triangles = sum(16 * (2 * k) ** 2 for k in range(1, 61))
        assert traced_peak(bd.vf_adaptive, ss, bd.VfConfig(tol=1e-12)) < triangles

    def test_vanishing_denominator_at_a_sample_raises(self, monkeypatch):
        # at the sample 0 the Cauchy row of the supports -1 and 1 is (1, -1),
        # so equal denominator weights sum to zero there
        vf_module = importlib.import_module("barydeg.vf")
        monkeypatch.setattr(vf_module, "geometric_supports",
                            lambda samples, m: np.array([-1.0, 1.0], dtype=complex))
        monkeypatch.setattr(vf_module, "vf_solve",
                            lambda grid, degree: (np.ones(2), np.ones(2)))
        ss = bd.SampleSet([0.5j, 0.0, 2j], [1.0, 2.0, 3.0])
        with pytest.raises(PoleEvaluationError) as info:
            bd.vf_adaptive(ss, bd.VfConfig(tol=1e-4, target_degree=-1))
        assert info.value.point == 0.0


class TestNoiseAsymmetry:
    # least-squares fitting tolerates multiplicative noise that an
    # interpolatory fit reproduces verbatim

    def test_vf_converges_on_noisy_data(self):
        ss = chain_samples(2, noise=1e-6, seed=1)
        model, rep = bd.vf_adaptive(ss, bd.VfConfig(tol=1e-4, target_degree=-4))
        assert rep.converged
        assert rep.linf_rel_error <= 1e-4
        # the fit stays close to the noiseless truth as well
        clean = chain_samples(2)
        rel = np.abs(model(clean.points) - clean.values) / np.abs(clean.values)
        assert np.max(rel) <= 2e-4

    def test_aaa_interpolates_the_noise(self):
        ss = chain_samples(2, noise=1e-6, seed=1)
        model, rep = bd.aaa(ss, bd.AaaConfig(tol=1e-4, target_degree=-4))
        assert rep.converged
        noisy = dict(zip(ss.points.tolist(), ss.values.tolist()))
        for s, f in zip(model.supports, model.support_values):
            assert f == noisy[complex(s)]  # the noisy values, bit for bit

    def test_vf_does_not_interpolate(self):
        ss = chain_samples(2, noise=1e-6, seed=1)
        model, _ = bd.vf_adaptive(ss, bd.VfConfig(tol=1e-4, target_degree=-4))
        resid = np.abs(model(ss.points) - ss.values)
        assert np.all(resid > 0)


class TestClassificationCoherence:
    @pytest.mark.parametrize("degree", [-4, -1, 2, 4])
    def test_converged_fit_classifies_to_target(self, degree):
        ss = chain_samples(2, forward=degree < 0, noise=1e-6, seed=1)
        model, rep = bd.vf_adaptive(ss, bd.VfConfig(tol=1e-4, target_degree=degree))
        assert rep.converged
        if min(rep.leading_sum_magnitudes) > 1e-15:
            assert bd.classify_degree(model).rdeg == degree
