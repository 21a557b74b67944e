from functools import lru_cache

import numpy as np
import pytest

import barydeg as bd
from barydeg.core import loewner_matrix, nullspace_basis, solve_constrained_weights, vandermonde
from barydeg.errors import ConfigurationError
from barydeg.util import relative_errors

from conftest import chain_samples, distinct_unit_disc_points, inverse_decay_samples, traced_peak


def test_config_validation():
    with pytest.raises(ValueError):
        bd.AaaConfig(tol=0.0)
    with pytest.raises(ValueError):
        bd.AaaConfig(tol=1e-6, max_terms=0)


def test_constant_data_returns_initial_model():
    ss = bd.SampleSet([1j, 2j, 3j], [4.0, 4.0, 4.0])
    model, rep = bd.aaa(ss, bd.AaaConfig(tol=1e-6))
    assert rep.converged and rep.terms == 1
    assert rep.linf_rel_error == 0.0
    assert model.supports[0] in ss.points
    assert model(9j) == pytest.approx(4.0, rel=1e-14)


def test_inverse_decay_with_negative_degree():
    ss = inverse_decay_samples()
    model, rep = bd.aaa(ss, bd.AaaConfig(tol=1e-10, target_degree=-1))
    assert rep.converged and rep.terms == 2
    assert rep.linf_rel_error <= 1e-10
    assert bd.classify_degree(model).rdeg == -1
    # the fitted model reproduces 1/s across the band
    s = bd.sample_grid(0.2, 5.0, 17)
    assert np.max(np.abs(model(s) * s - 1.0)) < 1e-12


def test_forward_chain_with_prescribed_degree(fwd2_samples):
    model, rep = bd.aaa(fwd2_samples, bd.AaaConfig(tol=1e-6, target_degree=-4))
    assert rep.converged
    assert rep.effective_degree == -4
    assert bd.classify_degree(model).rdeg == -4
    assert rep.constraint_residual <= 1e-10
    assert min(rep.leading_sum_magnitudes) > 1e-15


def test_degree_zero_matches_plain_aaa_on_rational_data():
    # data from a random type-(2,2) rational function is recovered with at
    # most 4 support points
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        gen = bd.BarycentricModel.from_weights(
            distinct_unit_disc_points(rng, 3),
            rng.normal(size=3) + 1j * rng.normal(size=3),
            rng.normal(size=3) + 1j * rng.normal(size=3),
        )
        pts = bd.sample_grid(0.1, 2.0, 60)
        ss = bd.SampleSet(pts, gen(pts))
        model, rep = bd.aaa(ss, bd.AaaConfig(tol=1e-12))
        assert rep.converged and rep.terms <= 4
        assert rep.linf_rel_error <= 1e-12


def test_supports_are_distinct_samples(fwd2_samples):
    model, _ = bd.aaa(fwd2_samples, bd.AaaConfig(tol=1e-6, target_degree=-4))
    pool = set(fwd2_samples.points.tolist())
    chosen = model.supports.tolist()
    assert len(set(chosen)) == len(chosen)
    assert all(s in pool for s in chosen)


@pytest.mark.parametrize("degree", [-2, 0, 2])
def test_constraint_satisfaction(degree, inv2_samples):
    model, rep = bd.aaa(inv2_samples, bd.AaaConfig(tol=1e-4, target_degree=degree))
    assert rep.constraint_residual <= 1e-10


def test_tolerance_contract(fwd2_samples):
    for tol in (1e-4, 1e-8):
        _, rep = bd.aaa(fwd2_samples, bd.AaaConfig(tol=tol, target_degree=0))
        if rep.converged:
            assert rep.linf_rel_error <= tol


def test_report_error_norms_consistent(fwd2_samples):
    _, rep = bd.aaa(fwd2_samples, bd.AaaConfig(tol=1e-6, target_degree=-4))
    assert 0 <= rep.linf_rel_error <= rep.l2_rel_error


def test_non_convergence_is_reported_not_raised():
    ss = chain_samples(2, noise=1e-4, seed=0)
    model, rep = bd.aaa(ss, bd.AaaConfig(tol=1e-12, max_terms=8))
    assert not rep.converged
    assert rep.terms == 8
    assert rep.linf_rel_error > 1e-12


def test_effective_degree_capped_by_terms():
    # convergence at few terms caps the imposed degree
    ss = inverse_decay_samples()
    model, rep = bd.aaa(ss, bd.AaaConfig(tol=1e-10, target_degree=-5))
    assert rep.terms == 2
    assert rep.effective_degree == -1
    assert bd.classify_degree(model).rdeg == -1


def test_too_few_samples_rejected():
    with pytest.raises(ConfigurationError):
        bd.aaa(bd.SampleSet([1j], [1.0]), bd.AaaConfig(tol=1e-6))
    ss = bd.SampleSet([1j, 2j, 3j], [1.0, 2.0, 3.0])
    with pytest.raises(ConfigurationError):
        bd.aaa(ss, bd.AaaConfig(tol=1e-6, target_degree=-3))


def test_zero_values_do_not_crash():
    pts = bd.sample_grid(1.0, 2.0, 10)
    vals = np.zeros(10)
    vals[3] = 1.0  # one nonzero so the data is not all trivial
    ss = bd.SampleSet(pts, vals)
    model, rep = bd.aaa(ss, bd.AaaConfig(tol=1e-8, max_terms=5))
    assert np.isfinite(rep.linf_rel_error) or rep.linf_rel_error == np.inf


# Fits whose last step is rebuilt from scratch below: degree-constrained
# fits of the 2-mass chains, a noisy fit stopped by the term cap, and three
# samples, where the last step leaves a single row.
REBUILT_FITS = {
    **{f"{'fwd' if fwd else 'inv'}2-deg{d}": (lambda fwd=fwd: chain_samples(2, forward=fwd),
                                             bd.AaaConfig(tol=1e-6, target_degree=d))
       for fwd in (True, False) for d in (-4, 0, 2)},
    "noisy-capped": (lambda: chain_samples(2, noise=1e-4, seed=0),
                     bd.AaaConfig(tol=1e-12, target_degree=-2, max_terms=8)),
    "three-samples": (lambda: bd.SampleSet([1j, 2j, 3j], [1.0, 2.0, 5.0]),
                      bd.AaaConfig(tol=1e-12, target_degree=-1)),
}


@lru_cache(maxsize=None)
def rebuilt_fit(name):
    make_samples, config = REBUILT_FITS[name]
    samples = make_samples()
    return samples, config, *bd.aaa(samples, config)


@pytest.mark.parametrize("name", REBUILT_FITS)
def test_last_step_rebuilt_from_scratch_gives_the_weights(name):
    # the fit grows its Loewner block one column per step; the block built
    # in one go over the non-support samples must give the same weights
    samples, config, model, rep = rebuilt_fit(name)
    assert rep.terms >= 2
    rest = ~np.isin(samples.points, model.supports)
    L = loewner_matrix(samples.points[rest], samples.values[rest],
                          model.supports, model.support_values)
    V = vandermonde(model.supports, abs(rep.effective_degree))
    Q = nullspace_basis(
        V, left_scaling=model.support_values if config.target_degree < 0 else None)
    w = solve_constrained_weights(L, Q)
    assert np.array_equal(w / np.linalg.norm(w), model.weights)


@pytest.mark.parametrize("name", REBUILT_FITS)
def test_reported_error_matches_the_returned_model(name):
    # a stale pool row or a wrong Cauchy column would show here
    samples, _, model, rep = rebuilt_fit(name)
    err = np.max(relative_errors(samples.values, model(samples.points)))
    assert rep.linf_rel_error == pytest.approx(err, rel=1e-12)


@pytest.mark.parametrize("count, max_terms, degree", [(2000, 30, -4), (2000, 30, 0), (4000, 24, 2)])
def test_peak_memory_is_a_few_pool_blocks(count, max_terms, degree):
    # the fit keeps only its Loewner block L over the pool; at peak the
    # weight solve adds at most one block of L's size, the copy of L that
    # its QR factors
    samples = chain_samples(2, noise=1e-6, seed=0, count=count)
    config = bd.AaaConfig(tol=1e-8, target_degree=degree, max_terms=max_terms)
    fits = []
    peak = traced_peak(lambda: fits.append(bd.aaa(samples, config)))
    terms = fits[0][1].terms
    pool_block_bytes = (count - terms) * terms * np.dtype(complex).itemsize
    assert peak < 2.5 * pool_block_bytes
