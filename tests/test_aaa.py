import importlib
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
    for config in (bd.AaaConfig, bd.VfConfig):
        with pytest.raises(ValueError, match="finite"):
            config(tol=np.inf)


@pytest.mark.parametrize("config", [bd.AaaConfig, bd.VfConfig])
@pytest.mark.parametrize("field", ["target_degree", "max_terms"])
def test_config_takes_integers_only(config, field):
    with pytest.raises(TypeError):
        config(tol=1e-6, **{field: 2.5})
    # integer types are taken as Python ints
    value = getattr(config(tol=1e-6, **{field: np.int64(2)}), field)
    assert value == 2 and type(value) is int


@pytest.mark.parametrize("config", [bd.AaaConfig, bd.VfConfig])
@pytest.mark.parametrize("field, value", [
    ("tol", True), pytest.param("tol", np.True_, id="tol-numpy-True"),
    ("target_degree", True), ("max_terms", True)])
def test_config_takes_no_bools(config, field, value):
    # a bool is not the number 1 (or 1.0), as in model files
    with pytest.raises(TypeError, match=field):
        config(**{"tol": 1e-6, field: value})


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
    # the fit grows its Loewner block one column per step, or takes the one
    # column of a fully constrained step's basis; the block built in one go
    # over the non-support samples must give the same weights
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


# Fits whose first steps are fully constrained: the 2-mass chains at
# degrees +-1 .. +-4 and three samples at +-1, +-2, where the cap of two
# terms ends every fit inside its constrained prefix.
CONSTRAINED_PREFIX_FITS = [
    *((f"{'fwd' if fwd else 'inv'}2", lambda fwd=fwd: chain_samples(2, forward=fwd), 1e-6, d)
      for fwd in (True, False) for d in (-4, -3, -2, -1, 1, 2, 3, 4)),
    *(("three-samples", lambda: bd.SampleSet([1j, 2j, 3j], [1.0, 2.0, 5.0]), 1e-12, d)
      for d in (-2, -1, 1, 2)),
]


@pytest.mark.parametrize("name, make_samples, tol, degree", CONSTRAINED_PREFIX_FITS,
                         ids=[f"{name}-deg{d}" for name, _, _, d in CONSTRAINED_PREFIX_FITS])
def test_one_direction_steps_are_the_weight_solve(name, make_samples, tol, degree):
    # at a step m <= |d| the constraint basis Q has one column; the weights
    # the record holds for it are what the weight solve over that step's
    # Loewner block returns, byte for byte
    samples = make_samples()
    spine = {}
    bd.aaa(samples, bd.AaaConfig(tol=tol, target_degree=degree), spine=spine)
    picks, steps = spine[-1 if degree < 0 else 1]
    assert len(steps) >= 2
    for m, weights in enumerate(steps):
        picked = picks[:m + 1]
        sj, fj = samples.points[picked], samples.values[picked]
        rest = np.delete(np.arange(len(samples)), picked)
        L = loewner_matrix(samples.points[rest], samples.values[rest], sj, fj)
        Q = nullspace_basis(vandermonde(sj, m), left_scaling=fj if degree < 0 else None)
        assert Q.shape[1] == 1
        assert solve_constrained_weights(L, Q).tobytes() == weights.tobytes()


def test_fit_inside_its_constrained_prefix_builds_no_loewner_block(monkeypatch):
    # the true-degree fit of the forward 2-mass chain converges with 5 terms
    # at d = -4: all of its steps have one direction, so it needs neither
    # the Loewner block nor a weight solve
    aaa_module = importlib.import_module("barydeg.aaa")

    def unexpected(*args, **kwargs):
        raise AssertionError("called inside the constrained prefix")

    monkeypatch.setattr(aaa_module, "loewner_matrix", unexpected)
    monkeypatch.setattr(aaa_module, "solve_constrained_weights", unexpected)
    _, rep = bd.aaa(chain_samples(2), bd.AaaConfig(tol=1e-6, target_degree=-4))
    assert rep.converged and rep.terms == 5 and rep.effective_degree == -4


def test_record_holds_no_array_longer_than_the_cap():
    # the record keeps supports, weights and picks, never a pool-size array
    samples = chain_samples(2, noise=1e-6, seed=0, count=300)
    spine = {}
    for degree in (0, 1, 2, 3, -1, -2, -3, -4, -5, -6):
        bd.aaa(samples, bd.AaaConfig(tol=1e-5, target_degree=degree, max_terms=6), spine=spine)
    assert set(spine) == {-1, 1}
    # steps 0 .. 3 of the positive sign, 0 .. 4 of the negative one
    assert len(spine[1][1]) >= 4 and len(spine[-1][1]) >= 5
    for picks, steps in spine.values():
        assert len(picks) >= len(steps)
        assert all(isinstance(j, int) for j in picks)
        assert all(weights.base is None and weights.size <= 6 for weights in steps)
