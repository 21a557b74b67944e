import re
import warnings
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import barydeg as bd
from barydeg.asymptotic import (
    AsymptoticModel,
    FarField,
    _horner,
    _switch_estimates,
    classify_degree,
    cutoff_radius,
    eval_asymptotic,
    eval_piecewise,
    far_field,
    make_piecewise,
    moments,
)
from barydeg.core import _power_sum_scan
from barydeg.errors import PoleEvaluationError, TrivialModelError
from barydeg.util import BLOCK
from barydeg.vf import _grid, geometric_supports, vf_solve

from conftest import (
    BLOCK_LENGTHS,
    BLOCK_SCRATCH_BYTES,
    CHAIN_WMAX,
    NONFINITE_POINTS,
    chain_samples,
    exact_type_model,
    inverse_decay_samples,
    sliced,
    traced_peak,
)


def exact_inverse_model():
    """The two-support representation of f(s) = 1/s."""
    return bd.BarycentricModel.from_weights([1.0, 2.0], [1.0, 0.5], [1.0, -2.0])


def chain_piecewise(n, forward=True):
    """The ``n``-mass chain fitted at its true degree, with its continuation."""
    samples = chain_samples(n, forward)
    model, _ = bd.aaa(samples, bd.AaaConfig(tol=1e-6, target_degree=(-2 if forward else 2) * n))
    return make_piecewise(model, samples)


fwd3_piecewise = partial(chain_piecewise, 3)


def sweep(n):
    """``n`` log-spaced points on i[1e-2, 1e6], across the cutoff of a fit."""
    return bd.sample_grid(1e-2, 1e6, n)


def pole_piecewise():
    """r(s) = (3s - 1) / (2s): its barycentric form has a pole at s = 0 only."""
    model = bd.BarycentricModel([1.0, -1.0], [1.0, 2.0], [2**-0.5, 2**-0.5])
    pm = bd.PiecewiseModel(bary=model, train_T=2.0, train_eps=1e-3)
    assert pm.cutoff > 2.0  # the blocks' points at s = 2 take the barycentric branch
    return pm


class TestMoments:
    def test_constant_model(self):
        m = bd.BarycentricModel([0.0], [5.0], [1.0])
        asym = moments(m, order=4)
        assert (asym.mu, asym.nu, asym.rdeg) == (0, 0, 0)
        assert np.array_equal(asym.num_moments, [5, 0, 0, 0, 0])
        assert np.array_equal(asym.den_moments, [1, 0, 0, 0, 0])
        for s in (10.0, 1e3 * 1j, -7.0 + 2j):
            assert eval_asymptotic(asym, s) == pytest.approx(5.0, rel=1e-14)

    def test_inverse_decay_model(self):
        asym = moments(exact_inverse_model())
        assert (asym.mu, asym.nu, asym.rdeg) == (1, 0, -1)
        val = eval_asymptotic(asym, 100.0)
        assert val == pytest.approx(0.01, rel=1e-12)

    def test_saturating_model(self):
        # r(s) = s / (2s - 1) tends to 1/2
        m = bd.BarycentricModel.from_weights([0.0, 1.0], [0.0, 1.0], [1.0, 1.0])
        asym = moments(m)
        assert asym.rdeg == 0
        assert eval_asymptotic(asym, 1e6) == pytest.approx(0.5, rel=1e-6)

    def test_default_order(self):
        asym = moments(exact_inverse_model())
        assert asym.order == 10
        assert asym.num_moments_scaled.size == 11

    def test_moment_identity_with_classification(self):
        for model in (exact_inverse_model(),
                      exact_type_model(np.random.default_rng(3), 6, 2, 1)):
            sig = bd.classify_degree(model)
            asym = moments(model)
            assert asym.num_moments[0] == sig.num_moments[0]
            assert asym.den_moments[0] == sig.den_moments[0]

    def test_general_model_moments(self):
        ss = inverse_decay_samples(1.0, 10.0, 20)
        supports = geometric_supports(ss, 1)
        model = bd.GeneralBarycentricModel.from_weights(
            supports, *vf_solve(_grid(ss, supports), -1))
        asym = moments(model)
        assert asym.rdeg == -1
        assert eval_asymptotic(asym, 1e4) == pytest.approx(1e-4, rel=1e-10)

    def test_trivial_model_propagates(self):
        m = bd.BarycentricModel([0.0, 1.0], [0.0, 0.0],
                                np.array([1.0, 1.0]) / np.sqrt(2))
        with pytest.raises(TrivialModelError):
            moments(m)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            moments(exact_inverse_model(), order=-1)

    def test_non_integer_order_rejected(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            moments(exact_inverse_model(), 2.5)


class TestEvalAsymptotic:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            eval_asymptotic(moments(exact_inverse_model()), 0.0)

    def test_truncated_denominator_zero(self):
        asym = AsymptoticModel(mu=0, nu=0, scale=1.0,
                               num_moments_scaled=np.array([1.0, 0.0]),
                               den_moments_scaled=np.array([1.0, -1.0]))
        # denominator series 1 - 1/s vanishes at s = 1
        with pytest.raises(PoleEvaluationError):
            eval_asymptotic(asym, 1.0)

    def test_array_evaluation(self):
        asym = moments(exact_inverse_model())
        s = np.array([50.0, 100.0, 200.0])
        assert np.allclose(eval_asymptotic(asym, s), 1.0 / s, rtol=1e-10)

    @pytest.mark.parametrize("point", NONFINITE_POINTS)
    def test_nonfinite_point_rejected(self, point):
        asym = moments(exact_inverse_model())
        with pytest.raises(ValueError, match="finite"):
            eval_asymptotic(asym, point)
        with pytest.raises(ValueError, match="finite"):
            eval_asymptotic(asym, np.array([50.0, point]))

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_matches_sliced_evaluation(self, n):
        asym = fwd3_piecewise().asym
        s = sweep(n)
        assert np.array_equal(eval_asymptotic(asym, s), sliced(partial(eval_asymptotic, asym), s))

    def test_pole_in_third_block_raises_there(self):
        asym = AsymptoticModel(mu=0, nu=0, scale=1.0,
                               num_moments_scaled=np.array([1.0, 0.0]),
                               den_moments_scaled=np.array([1.0, -1.0]))
        s = np.full(3 * BLOCK, 2.0 + 0j)
        s[2 * BLOCK + 7] = 1.0  # denominator series 1 - 1/s vanishes there
        with pytest.raises(PoleEvaluationError) as exc:
            eval_asymptotic(asym, s)
        assert exc.value.point == 1.0

    def test_out_of_range_told_from_a_vanishing_series(self):
        # r = (s/scale)^2 / (1 - 1/s): its folded denominator w^2 * (1 - w) is 0
        # at s = 1 through the series, and at s = 1e200 through w^2 underflowing
        asym = AsymptoticModel(mu=0, nu=2, scale=1.0,
                               num_moments_scaled=np.array([1.0, 0.0]),
                               den_moments_scaled=np.array([1.0, -1.0]))
        assert asym.coeffs is asym.coeffs
        assert np.array_equal(asym.coeffs, [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        with pytest.raises(PoleEvaluationError):
            eval_asymptotic(asym, np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match=r"s = \(1e\+200\+0j\) is beyond the double range"):
            eval_asymptotic(asym, np.array([2.0, 1e200]))
        assert eval_asymptotic(asym, 1e150) == pytest.approx(1e300, rel=1e-15)
        # a block fails at its first failing point: w^2 overflows at 1e-160
        with pytest.raises(ValueError, match=re.escape("s = (1e-160+0j) is beyond")):
            eval_asymptotic(asym, np.array([2.0, 1e-160, 1.0]))
        with pytest.raises(PoleEvaluationError) as exc:
            eval_asymptotic(asym, np.array([2.0, 1.0, 1e-160]))
        assert exc.value.point == 1.0

    @pytest.mark.parametrize("branch, point", [
        ("far", 1e-60j), ("far", 1e-200j), ("asym", 1e-30j), ("asym", 1e-60j), ("asym", 1e-200j),
    ])
    def test_overflowing_horner_pass_raises(self, branch, point):
        # w = scale/s is so large that a Horner step overflows; the far form
        # itself still holds at 1e-30j, where its pass stays in range
        pm = chain_piecewise(3, forward=False)
        assert np.isfinite(eval_asymptotic(pm.far, 1e-30j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"s = {point} is beyond the double")):
                eval_asymptotic(getattr(pm, branch), np.array([1e3j, point, 1e-60j]))

    @pytest.mark.parametrize("num, den, point", [
        ([2.0], [1.0], 1e-320), ([1.0, 0.0, 0.0], [1.0, 0.0, 1.0], 1e-160),
    ])
    def test_overflow_the_ratio_hides_raises(self, num, den, point):
        # w = 1/s overflows in a constant form, which never reads w; 1 + w^2
        # overflows where 1 / (1 + w^2) gives 0: every step is checked
        asym = AsymptoticModel(mu=0, nu=0, scale=1.0, num_moments_scaled=np.array(num),
                               den_moments_scaled=np.array(den))
        with pytest.raises(ValueError, match=re.escape(f"s = {complex(point)} is beyond")):
            eval_asymptotic(asym, np.array([2.0, point]))

    def test_subnormal_scale_evaluates_at_its_points(self):
        # numpy's complex division by a subnormal point overflows; w is
        # formed from both operands lifted into the normal range instead
        asym = AsymptoticModel(mu=0, nu=0, scale=1e-310, num_moments_scaled=[1, 0.5],
                               den_moments_scaled=[1, 0.25])
        ratio = np.array([1, 1.03, 1.05])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = eval_asymptotic(asym, 1e-310 * ratio)
        # the subnormal points carry about 44 bits
        np.testing.assert_allclose(values, (1 + 0.5 / ratio) / (1 + 0.25 / ratio), rtol=1e-12)
        # a block the lift would carry beyond the double range divides as it is
        assert eval_asymptotic(asym, np.array([1e306, 1e306 + 1e306j])).tolist() == [1, 1]

    def test_zero_checked_before_first_block(self):
        asym = AsymptoticModel(mu=0, nu=0, scale=1.0,
                               num_moments_scaled=np.array([1.0, 0.0]),
                               den_moments_scaled=np.array([1.0, -1.0]))
        s = np.full(3 * BLOCK, 2.0 + 0j)
        s[0] = 1.0  # a pole of the series in the first block
        s[2 * BLOCK + 7] = 0.0
        with pytest.raises(ValueError, match="s = 0"):
            eval_asymptotic(asym, s)

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0), (2, BLOCK + 1)])
    def test_shape_kept(self, shape):
        asym = fwd3_piecewise().asym
        s = np.full(shape, 1e4j)
        out = eval_asymptotic(asym, s)
        if shape == ():
            assert isinstance(out, complex)
        else:
            assert out.shape == shape
            assert np.array_equal(out, eval_asymptotic(asym, s.ravel()).reshape(shape))

    def test_peak_memory_is_output_plus_blocks(self):
        asym = fwd3_piecewise().asym
        s = sweep(32 * BLOCK)
        out_bytes = s.size * np.dtype(complex).itemsize
        assert traced_peak(eval_asymptotic, asym, s) < out_bytes + BLOCK_SCRATCH_BYTES

    @pytest.mark.parametrize("rdeg", range(-6, 7))
    def test_matches_the_closed_formula(self, rdeg):
        rng = np.random.default_rng(rdeg + 6)
        scale = 2.5
        num, den = (np.concatenate([[1.0], rng.normal(size=10) + 1j * rng.normal(size=10)])
                    for _ in range(2))
        asym = AsymptoticModel(mu=max(-rdeg, 0), nu=max(rdeg, 0), scale=scale,
                               num_moments_scaled=num, den_moments_scaled=den)
        s = scale * np.geomspace(10.0, 1e4, 500) * np.exp(1j * rng.uniform(0, 2 * np.pi, 500))
        z = (scale / s)[:, None] ** np.arange(num.size)
        closed = (z @ num) / (z @ den) * (s / scale) ** rdeg
        assert np.max(np.abs(eval_asymptotic(asym, s) - closed) / np.abs(closed)) <= 1e-14

    def test_one_block_result_holds_no_accumulator(self):
        out = eval_asymptotic(fwd3_piecewise().asym, sweep(BLOCK))
        owner = out
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == out.nbytes


def folded_horner(coeffs, w):
    """Horner's rule over every coefficient of each row, the zeros included."""
    acc = np.empty((coeffs.shape[0], w.size), dtype=complex)
    acc[:] = coeffs[:, -1:]
    for l in range(coeffs.shape[1] - 2, -1, -1):
        acc *= w
        acc += coeffs[:, l:l + 1]
    return acc


class TestHorner:
    @pytest.mark.parametrize("mask", [
        [0, 0, 1, 1, 1, 1],  # leading zeros
        [1, 1, 1, 1, 0, 0],  # trailing zeros
        [1, 0, 0, 1, 0, 1],  # interior zeros
        [0, 0, 0, 1, 0, 0],  # a pure monomial, lo = hi > 0
        [0, 0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 0],  # a constant
        [0, 0, 0, 0, 0, 0],  # no nonzero coefficient
        [1],  # a single coefficient
    ])
    def test_equals_the_folded_loop(self, mask):
        rng = np.random.default_rng(sum(mask) + 7 * len(mask))
        # one row with the mask's zeros, one without
        mask = np.array([mask, np.ones(len(mask))], dtype=bool)
        coeffs = np.where(mask, rng.normal(size=mask.shape) + 1j * rng.normal(size=mask.shape), 0)
        w = np.exp(rng.uniform(-3, 3, 500) + 1j * rng.uniform(0, 2 * np.pi, 500))
        assert _horner(coeffs, w).tobytes() == folded_horner(coeffs, w).tobytes()
        # where w^5 underflows only a zero's sign may differ
        w *= 1e-70
        assert np.array_equal(_horner(coeffs, w), folded_horner(coeffs, w))

    @pytest.mark.parametrize("n, forward", [(2, True), (3, True), (2, False), (3, False)])
    def test_far_branch_of_the_chains(self, n, forward):
        # the constrained side of these fits is one term c w^|rdeg|
        pm = chain_piecewise(n, forward)
        coeffs = pm.far.coeffs
        assert np.count_nonzero(coeffs[0 if forward else 1]) == 1
        w = pm.far.scale / far_sweep(pm)
        assert _horner(coeffs, w).tobytes() == folded_horner(coeffs, w).tobytes()
        w = pm.far.scale / np.array([4.2e60j, 1e100j])
        assert np.array_equal(_horner(coeffs, w), folded_horner(coeffs, w))


class TestCutoffRadius:
    def test_unit_error_at_band_edge(self):
        assert cutoff_radius(1.0, 1.0, -3, 10) == 1.0

    def test_direct_formula(self):
        assert cutoff_radius(1.0, 1e-6, -4, 10) == pytest.approx(10**0.4, rel=1e-12)

    def test_scaled_band(self):
        assert cutoff_radius(100.0, 1e-6, 0, 10) == pytest.approx(
            100.0 * 10 ** (6 / 11), rel=1e-12)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            cutoff_radius(1.0, 0.0, -4, 10)
        with pytest.raises(ValueError):
            cutoff_radius(1.0, -1e-3, -4, 10)

    def test_non_integer_or_nonfinite_input_rejected(self):
        for rdeg, order in ((-4, 2.5), (-4.0, 10)):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                cutoff_radius(1.0, 1e-6, rdeg, order)
        for T, eps in ((1.0, np.inf), (np.inf, 1e-6), (1.0, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                cutoff_radius(T, eps, -4, 10)


class TestMakePiecewise:
    def test_exact_fit_floors_eps(self):
        rng = np.random.default_rng(21)
        model = exact_type_model(rng, 4, 4, 0)  # relative degree -4
        pts = bd.sample_grid(0.2, 1.0, 40)
        ss = bd.SampleSet(pts, model(pts))
        pm = make_piecewise(model, ss)
        assert pm.train_eps == 1e-16
        assert pm.cutoff == pytest.approx(10 ** (16 / 15), rel=1e-12)
        assert pm.cutoff == pytest.approx(11.66, rel=1e-3)

    def test_measured_eps_enters_cutoff(self):
        rng = np.random.default_rng(22)
        model = exact_type_model(rng, 6, 6, 0)  # relative degree -6
        pts = bd.sample_grid(0.2, 1.0, 40)
        vals = model(pts) * (1 + 1e-6)
        ss = bd.SampleSet(pts, vals)
        pm = make_piecewise(model, ss)
        eps = np.max(np.abs(vals - model(pts)) / np.abs(vals))
        assert pm.train_eps == pytest.approx(eps, rel=1e-12)
        assert pm.cutoff == pytest.approx(cutoff_radius(1.0, eps, -6, 10), rel=1e-12)
        assert pm.cutoff == pytest.approx(2.254, rel=1e-3)

    def test_zero_degree_model_still_consistent(self):
        rng = np.random.default_rng(23)
        model = exact_type_model(rng, 3, 0, 0)
        pts = bd.sample_grid(0.2, 1.0, 40)
        vals = model(pts) * (1 + 1e-6)
        pm = make_piecewise(model, bd.SampleSet(pts, vals))
        s = 1j * pm.cutoff
        bary, asym = model(s), eval_asymptotic(pm.asym, s)
        assert abs(bary - asym) / abs(bary) <= 10 * pm.train_eps

    def test_cutoff_never_inside_band(self):
        ss = chain_samples(2)
        model, _ = bd.aaa(ss, bd.AaaConfig(tol=1e-6, target_degree=-4))
        pm = make_piecewise(model, ss)
        assert pm.cutoff >= pm.train_T


class TestEvalPiecewise:
    def test_boundary_point_uses_barycentric_branch(self):
        model = exact_inverse_model()
        pm = bd.PiecewiseModel(bary=model, train_T=10.0, train_eps=1e-12)
        s = pm.cutoff + 0j  # |s| == cutoff exactly
        assert eval_piecewise(pm, s) == model(s)
        just_out = pm.cutoff * (1 + 1e-12)
        assert eval_piecewise(pm, just_out) == eval_asymptotic(pm.far, just_out)

    def test_inverse_decay_far_field(self):
        model = exact_inverse_model()
        pts = bd.sample_grid(0.5, 5.0, 30)
        pm = make_piecewise(model, bd.SampleSet(pts, model(pts)))
        val = eval_piecewise(pm, 1e6j)
        assert abs(val - (-1e-6j)) <= 1e-10 * 1e-6

    def test_mixed_array_branches(self):
        model = exact_inverse_model()
        pts = bd.sample_grid(0.5, 5.0, 30)
        pm = make_piecewise(model, bd.SampleSet(pts, model(pts)))
        s = np.array([1.0, pm.cutoff * 2]) * 1j
        out = eval_piecewise(pm, s)
        assert out[0] == model(1j)
        assert out[1] == eval_asymptotic(pm.far, pm.cutoff * 2j)

    def test_piecewise_and_asymptotic_models_are_callable(self):
        model = exact_inverse_model()
        pts = bd.sample_grid(0.5, 5.0, 30)
        pm = make_piecewise(model, bd.SampleSet(pts, model(pts)))
        assert pm(1e5j) == eval_piecewise(pm, 1e5j)
        assert pm.asym(1e5j) == eval_asymptotic(pm.asym, 1e5j)

    def test_near_is_the_branch_eval_piecewise_takes(self):
        model = exact_inverse_model()
        pm = bd.PiecewiseModel(bary=model, train_T=10.0, train_eps=1e-12)
        s = np.array([1.0, pm.cutoff, pm.cutoff * (1 + 1e-12), 1e3 * pm.cutoff]) * 1j
        near = pm.near(s)
        assert near.tolist() == [True, True, False, False]
        assert np.array_equal(eval_piecewise(pm, s)[near], model(s[near]))
        assert np.array_equal(eval_piecewise(pm, s)[~near], eval_asymptotic(pm.far, s[~near]))


class TestEvalPiecewiseBlocks:
    """Long inputs are split and evaluated block by block."""

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_matches_sliced_evaluation(self, n):
        pm = fwd3_piecewise()
        s = sweep(n)
        assert np.array_equal(eval_piecewise(pm, s), sliced(partial(eval_piecewise, pm), s))

    def test_support_hit_in_later_block(self):
        pm = fwd3_piecewise()
        s = sweep(2 * BLOCK + 3)
        s[BLOCK + 5] = pm.bary.supports[3]
        assert eval_piecewise(pm, s)[BLOCK + 5] == pm.bary.support_values[3]

    def test_pole_in_third_block_raises_there(self):
        s = np.full(3 * BLOCK, 2.0 + 0j)
        s[2 * BLOCK + 7] = 0.0
        with pytest.raises(PoleEvaluationError) as exc:
            eval_piecewise(pole_piecewise(), s)
        assert exc.value.point == 0

    @pytest.mark.parametrize("point", NONFINITE_POINTS)
    def test_nonfinite_point_rejected(self, point):
        pm = pole_piecewise()
        with pytest.raises(ValueError, match="finite"):
            eval_piecewise(pm, point)
        s = np.full(3 * BLOCK, 2.0 + 0j)
        s[2 * BLOCK + 7] = point
        with pytest.raises(ValueError, match="finite"):
            eval_piecewise(pm, s)

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0), (2, BLOCK + 1)])
    def test_shape_kept(self, shape):
        pm = fwd3_piecewise()
        s = np.full(shape, 1.0j)
        if s.size:
            s.flat[-1] = 1e6j  # one point beyond the cutoff
        out = eval_piecewise(pm, s)
        if shape == ():
            assert isinstance(out, complex)
        else:
            assert out.shape == shape
            assert np.array_equal(out, eval_piecewise(pm, s.ravel()).reshape(shape))

    def test_peak_memory_is_output_plus_blocks(self):
        pm = fwd3_piecewise()
        s = sweep(32 * BLOCK)
        assert np.any(np.abs(s) <= pm.cutoff) and np.any(np.abs(s) > pm.cutoff)
        out_bytes = s.size * np.dtype(complex).itemsize
        assert traced_peak(eval_piecewise, pm, s) < out_bytes + BLOCK_SCRATCH_BYTES

    def test_peak_memory_is_output_plus_two_cauchy_blocks(self):
        pm = fwd3_piecewise()
        s = sweep(10**5)
        out_bytes = s.size * np.dtype(complex).itemsize
        cauchy_bytes = BLOCK * pm.bary.terms * np.dtype(complex).itemsize
        assert traced_peak(eval_piecewise, pm, s) < out_bytes + 2 * cauchy_bytes

    def test_one_sided_sweeps_take_one_branch_whole(self):
        pm = fwd3_piecewise()
        # the chain fit switches at 1.01 * scale, well inside its cutoff
        inside = bd.sample_grid(1e-2, pm.switch, 2 * BLOCK + 3)
        outside = bd.sample_grid(pm.switch * (1 + 1e-12), 1e6, 2 * BLOCK + 3)
        assert pm.near(inside).all() and not pm.near(outside).any()
        assert np.array_equal(eval_piecewise(pm, inside), pm.bary(inside))
        assert np.array_equal(eval_piecewise(pm, outside), eval_asymptotic(pm.far, outside))


class TestPiecewiseModelInvariants:
    def test_cutoff_inside_band_rejected(self):
        # the cutoff is derived, so none can be given, and the derived one
        # lies outside the band whatever train_eps: a fit worse than 1 would
        # put the radius inside it
        model = exact_inverse_model()
        with pytest.raises(TypeError, match="cutoff"):
            bd.PiecewiseModel(bary=model, cutoff=1.0, train_T=10.0, train_eps=1e-6)
        for eps in (1e-16, 1e-6, 1.0, 10.0, 1e3):
            assert bd.PiecewiseModel(bary=model, train_T=10.0, train_eps=eps).cutoff >= 10.0

    @pytest.mark.parametrize("num, den", [([1.0], [1.0, 0.5]), ([], [])])
    def test_unequal_or_empty_moment_arrays_rejected(self, num, den):
        with pytest.raises(ValueError, match="equal length"):
            AsymptoticModel(mu=0, nu=2, scale=1.0, num_moments_scaled=np.array(num),
                            den_moments_scaled=np.array(den))

    def test_bad_moment_arrays_rejected(self):
        with pytest.raises(ValueError, match="leading"):
            AsymptoticModel(mu=0, nu=0, scale=1.0,
                            num_moments_scaled=np.array([0.0]),
                            den_moments_scaled=np.array([1.0]))

    def test_nan_moment_rejected(self):
        asym = moments(exact_inverse_model(), 2)
        den = asym.den_moments_scaled.copy()
        den[1] = np.nan
        with pytest.raises(ValueError, match="den_moments_scaled must be finite"):
            AsymptoticModel(mu=asym.mu, nu=asym.nu, scale=asym.scale,
                            num_moments_scaled=asym.num_moments_scaled, den_moments_scaled=den)

    def test_infinite_scale_rejected(self):
        asym = moments(exact_inverse_model())
        with pytest.raises(ValueError, match="scale must be finite"):
            AsymptoticModel(mu=asym.mu, nu=asym.nu, scale=np.inf,
                            num_moments_scaled=asym.num_moments_scaled,
                            den_moments_scaled=asym.den_moments_scaled)

    def test_negative_defect_rejected(self):
        # nu moves with mu, so rdeg = nu - mu stays the model's
        asym = moments(exact_inverse_model())
        with pytest.raises(ValueError, match="mu must be nonnegative"):
            AsymptoticModel(mu=-1, nu=asym.rdeg - 1, scale=asym.scale,
                            num_moments_scaled=asym.num_moments_scaled,
                            den_moments_scaled=asym.den_moments_scaled)

    @pytest.mark.parametrize("name", ["mu", "nu"])
    def test_non_integer_defect_rejected(self, name):
        # a half-integer defect would fail only when evaluated, in a slice
        asym = moments(exact_inverse_model())
        fields = {k: getattr(asym, k) for k in
                  ("mu", "nu", "scale", "num_moments_scaled", "den_moments_scaled")}
        with pytest.raises(TypeError):
            AsymptoticModel(**{**fields, name: getattr(asym, name) + 0.5})

    @pytest.mark.parametrize("name", ["train_T", "train_eps"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_nonfinite_piecewise_scalar_rejected(self, name, value):
        pm = make_piecewise(exact_inverse_model(), inverse_decay_samples())
        fields = {k: getattr(pm, k) for k in ("bary", "train_T", "train_eps")}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            bd.PiecewiseModel(**{**fields, name: value})


class TestExactModelFidelity:
    @pytest.mark.parametrize("seed", range(8))
    def test_far_field_matches_function(self, seed):
        rng = np.random.default_rng(500 + seed)
        m = int(rng.integers(1, 6))
        mu = int(rng.integers(0, min(m, 2) + 1))
        nu = int(rng.integers(0, min(m, 2) + 1))
        model = exact_type_model(rng, m, mu, nu)
        asym = moments(model)
        rho = float(np.max(np.abs(model.supports)))
        # checked where the truncation bound dominates the cancellation
        # noise of the barycentric reference evaluation itself
        for factor in (10.0, 12.0):
            s = factor * rho * np.exp(1j * rng.uniform(0, 2 * np.pi))
            exact = model(s)
            approx = eval_asymptotic(asym, s)
            assert abs(approx - exact) <= 10 * (rho / abs(s)) ** 11 * abs(exact)


# Chain responses that are not even in s, as (response, relative degree of
# the n-mass chain's response): damped, and odd or intermediate degrees.
UNEVEN_RESPONSES = {
    "damped": (lambda chain, s: bd.forward_tf(chain, s + 0.05), lambda n: -2 * n),
    "velocity": (lambda chain, s: s * bd.forward_tf(chain, s), lambda n: 1 - 2 * n),
    "acceleration": (lambda chain, s: s**2 * bd.forward_tf(chain, s), lambda n: 2 - 2 * n),
    "velocity_to_force": (lambda chain, s: bd.inverse_tf(chain, s) / s, lambda n: 2 * n - 1),
}


def far_sweep(pm, count=4000):
    """Log-spaced points on the far branch: just past the cutoff to 1e6, times i."""
    s = bd.sample_grid(pm.cutoff * (1 + 1e-12), 1e6, count)
    assert not pm.near(s).any()
    return s


def max_rel_err(approx, exact):
    return float(np.max(np.abs(approx - exact) / np.abs(exact)))


def deflated_form(model, s):
    """(s/scale)^rdeg times the barycentric form of u z^mu and w z^nu, z = s_k/scale.

    It equals the model with the power sums below each defect dropped, and
    nothing cancels in it at |s| > scale, so it is a double-precision
    reference for the far branch that shares none of its arithmetic.
    """
    asym = classify_degree(model)
    u, w = model.coefficients
    z = model.supports / asym.scale
    cauchy = 1.0 / (s[:, None] - model.supports)
    return ((cauchy @ (u * z**asym.mu)) / (cauchy @ (w * z**asym.nu))
            * (s / asym.scale) ** asym.rdeg)


def unfolded_pair(model):
    """mu, nu, scale and the far polynomials A, B in w = scale/s, unshifted.

    A has terms - mu coefficients (ascending), B has terms - nu; the model is
    (s/scale)^rdeg * A(w) / B(w) with the power sums below each defect dropped.
    """
    terms = model.terms
    mu, nu, num_sums, den_sums, scale = _power_sum_scan(model, extra_orders=terms - 1)
    pi = np.poly(model.supports / scale)
    return (mu, nu, scale, np.convolve(pi, num_sums)[:terms - mu],
            np.convolve(pi, den_sums)[:terms - nu])


def unfolded_form(model, s):
    """(s/scale)^rdeg * A(w) / B(w) by two independent polynomial evaluations."""
    mu, nu, scale, num, den = unfolded_pair(model)
    w = scale / s
    polyval = np.polynomial.polynomial.polyval
    return (s / scale) ** (nu - mu) * polyval(w, num) / polyval(w, den)


class TestFarField:
    """Beyond the cutoff, eval_piecewise evaluates the model's exact rational in scale/s."""

    def test_shares_the_expansions_defects_and_scale(self):
        for forward in (True, False):
            pm = chain_piecewise(3, forward)
            far = pm.far
            assert isinstance(far, FarField) and far is pm.far
            mu, nu, scale, num, den = unfolded_pair(pm.bary)
            assert (mu, nu, scale) == (pm.asym.mu, pm.asym.nu, pm.asym.scale)
            assert far.scale == scale
            # the zero-padded pair A, B, each shifted by its defect above min(mu, nu)
            m = min(mu, nu)
            folded = np.array([np.concatenate([np.zeros(mu - m), num]),
                               np.concatenate([np.zeros(nu - m), den])])
            assert far.coeffs.shape == (2, pm.bary.terms - m)
            assert np.array_equal(far.coeffs, folded)
            assert np.array_equal(far_field(pm.bary).coeffs, folded)

    @pytest.mark.parametrize("n, forward", [(2, True), (3, True), (2, False), (3, False)])
    def test_chain_fits_agree_with_the_unfolded_form(self, n, forward):
        pm = chain_piecewise(n, forward)
        s = far_sweep(pm)
        # measured <= 2.1e-15
        assert max_rel_err(eval_piecewise(pm, s), unfolded_form(pm.bary, s)) <= 1e-13

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("degree", [0, -4, 4])
    def test_many_term_fits_agree_with_the_unfolded_form(self, forward, degree):
        samples = chain_samples(2, forward, noise=1e-6, count=400)
        model, _ = bd.aaa(samples, bd.AaaConfig(tol=1e-9, target_degree=degree, max_terms=60))
        assert model.terms == 60
        pm = make_piecewise(model, samples)
        s = far_sweep(pm)
        # measured <= 9.0e-16
        assert max_rel_err(eval_piecewise(pm, s), unfolded_form(pm.bary, s)) <= 1e-13

    @pytest.mark.parametrize("point", [1e51j, 1e52j, 1e53j, 1e60j, 1e200j])
    def test_beyond_the_double_range_raises(self, point):
        # the response, ~|s|^6, overflows from 1e51 on: first P/Q, then from
        # 1e54 the folded denominator w^6 * B(w), which underflows to 0 while
        # B(w) does not
        pm = chain_piecewise(3, forward=False)
        with pytest.raises(ValueError, match="beyond the double range"):
            eval_piecewise(pm, point)
        with pytest.raises(ValueError, match="beyond the double range"):
            eval_piecewise(pm, np.array([1e3j, point]))
        with pytest.raises(ValueError, match=re.escape(f"s = {point} is beyond")):
            eval_piecewise(pm, np.array([1e50j, point, 1e50j]))

    def test_last_point_in_the_double_range_stays_finite(self):
        pm = chain_piecewise(3, forward=False)
        value = eval_piecewise(pm, np.array([1e3j, 1e50j]))
        assert np.isfinite(value).all() and abs(value[1]) > 1e299

    def test_decaying_far_field_underflows_to_zero(self):
        assert fwd3_piecewise()(1e200j) == 0

    @pytest.mark.parametrize("n, forward", [(2, True), (3, True), (2, False), (3, False)])
    def test_chain_fits_hold_the_chain_reference(self, n, forward):
        pm = chain_piecewise(n, forward)
        s = far_sweep(pm)
        exact = (bd.forward_tf if forward else bd.inverse_tf)(bd.MassChainSystem(n), s)
        # measured <= 8.4e-13; the order-10 series reaches 3.1e-7 here
        assert max_rel_err(eval_piecewise(pm, s), exact) <= 1e-11

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", sorted(UNEVEN_RESPONSES))
    def test_uneven_responses_hold_the_chain_reference(self, name, n):
        response, degree = UNEVEN_RESPONSES[name]
        chain = bd.MassChainSystem(n)
        pts = bd.sample_grid(1e-2, CHAIN_WMAX[n], 200)
        samples = bd.SampleSet(pts, response(chain, pts))
        model, report = bd.aaa(samples, bd.AaaConfig(tol=1e-6 if n == 2 else 1e-7,
                                                     target_degree=degree(n)))
        pm = make_piecewise(model, samples)
        assert report.converged and pm.asym.rdeg == degree(n)
        s = far_sweep(pm)
        # measured <= 2.0e-12; the series gives 2.4e-10 ... 8.5e-8
        assert max_rel_err(eval_piecewise(pm, s), response(chain, s)) <= 1e-11

    @pytest.mark.parametrize("n, forward", [(2, True), (2, False), (3, True)])
    def test_noisy_vf_winners_hold_the_deflated_form(self, n, forward):
        for seed in range(5):
            samples = chain_samples(n, forward, noise=1e-6, seed=seed)
            pm = bd.identify(samples, bd.vf_backend(tol=1e-4)).piecewise
            s = far_sweep(pm)
            # measured <= 3.2e-9 (the deflated form's own error against a
            # 50-digit evaluation reaches 7.4e-10); the series reaches 8.2
            assert max_rel_err(eval_piecewise(pm, s), deflated_form(pm.bary, s)) <= 1e-8

    def test_many_term_fit_holds_the_deflated_form(self):
        samples = chain_samples(2, noise=1e-6)
        model, _ = bd.aaa(samples, bd.AaaConfig(tol=1e-8, target_degree=-4, max_terms=40))
        assert model.terms == 40
        pm = make_piecewise(model, samples)
        s = far_sweep(pm)
        # measured 1.8e-14; the series reaches 2.3e-3
        assert max_rel_err(eval_piecewise(pm, s), deflated_form(pm.bary, s)) <= 1e-12


def reach(far):
    """The outer radius of the far kernel's annulus, scale * 2^(512/(L-1))."""
    return far.scale * 2.0 ** (512 / (far.coeffs.shape[1] - 1))


def u_form(far, s):
    """P/Q by Horner's rule in u = s * (1/scale) over the reversed rows."""
    num, den = folded_horner(far.coeffs[:, ::-1], s * (1 / far.scale))
    return num / den


def w_form(far, s):
    """P/Q by Horner's rule in w = scale/s over the folded rows."""
    num, den = folded_horner(far.coeffs, far.scale / s)
    return num / den


CHAINS = [(2, True), (3, True), (2, False), (3, False)]


class TestFarAnnulus:
    """A far block wholly in scale <= |s| <= reach runs in u = s/scale, any other in w."""

    @pytest.mark.parametrize("n, forward", CHAINS)
    def test_a_block_inside_is_the_reversed_rows_in_u(self, n, forward):
        pm = chain_piecewise(n, forward)
        s = far_sweep(pm)
        assert pm.far.scale <= np.min(np.abs(s)) and np.max(np.abs(s)) <= reach(pm.far)
        expected = u_form(pm.far, s).tobytes()
        assert eval_asymptotic(pm.far, s).tobytes() == expected
        assert eval_piecewise(pm, s).tobytes() == expected

    @pytest.mark.parametrize("n, forward", CHAINS)
    @pytest.mark.parametrize("edge", ["below scale", "beyond reach"])
    def test_one_point_outside_puts_its_block_in_w(self, n, forward, edge):
        pm = chain_piecewise(n, forward)
        far = pm.far
        s = far_sweep(pm)
        if edge == "below scale":
            s[1234] = 1j * np.nextafter(far.scale, 0.0)
        else:
            s[1234] = 1j * np.nextafter(reach(far), np.inf)
        assert eval_asymptotic(far, s).tobytes() == w_form(far, s).tobytes()
        # a point below the scale lies below the cutoff too, and leaves the far branch
        if edge == "beyond reach":
            assert eval_piecewise(pm, s).tobytes() == w_form(far, s).tobytes()

    @pytest.mark.parametrize("n, forward", CHAINS)
    def test_chain_fits_agree_in_u_and_w(self, n, forward):
        pm = chain_piecewise(n, forward)
        s = far_sweep(pm)
        # measured <= 2.5e-15
        assert max_rel_err(eval_piecewise(pm, s), w_form(pm.far, s)) <= 1e-14

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("degree", [0, -4, 4])
    def test_many_term_fits_are_as_accurate_in_u_as_in_w(self, forward, degree):
        samples = chain_samples(2, forward, noise=1e-6, count=400)
        model, _ = bd.aaa(samples, bd.AaaConfig(tol=1e-9, target_degree=degree, max_terms=60))
        assert model.terms == 60
        pm = make_piecewise(model, samples)
        # the far branch from the cutoff to just inside reach, 410 * scale here
        s = bd.sample_grid(pm.cutoff * (1 + 1e-12), reach(pm.far) * (1 - 1e-12), 4000)
        assert not pm.near(s).any() and pm.far.scale <= pm.cutoff
        values = eval_piecewise(pm, s)
        assert values.tobytes() == u_form(pm.far, s).tobytes()
        reference = deflated_form(pm.bary, s)
        # measured 0.78-1.00: the two forms differ by up to 4e-8 on these
        # ill-conditioned fits, but neither is the less accurate
        assert max_rel_err(values, reference) <= 1.1 * max_rel_err(w_form(pm.far, s), reference)

    def test_a_scale_without_a_normal_reciprocal_keeps_w(self):
        # 1/scale is subnormal here and would round u
        scale = 1.7e308
        asym = AsymptoticModel(mu=0, nu=0, scale=scale,
                               num_moments_scaled=np.array([1.0, 0.5]),
                               den_moments_scaled=np.array([1.0, 0.25]))
        s = scale * np.array([1.0, 1.03, 1.05], dtype=complex)
        assert np.max(np.abs(s)) <= reach(asym)
        assert eval_asymptotic(asym, s).tobytes() == w_form(asym, s).tobytes()

    def test_pole_inside_the_annulus_raises_there(self):
        # denominator series 1 - 1/s, so 1 - w, or u - 1 reversed: a pole at s = 1 = scale
        asym = AsymptoticModel(mu=0, nu=0, scale=1.0,
                               num_moments_scaled=np.array([1.0, 0.0]),
                               den_moments_scaled=np.array([1.0, -1.0]))
        s = np.geomspace(1.5, 1e100, 3 * BLOCK).astype(complex)
        assert np.max(np.abs(s)) <= reach(asym)
        assert eval_asymptotic(asym, s).tobytes() == u_form(asym, s).tobytes()
        s[2 * BLOCK + 7] = 1.0
        with pytest.raises(PoleEvaluationError) as exc:
            eval_asymptotic(asym, s)
        assert exc.value.point == 1.0


@cache
def many_term_piecewise(degree):
    """Forward 2-mass data with noise 1e-6 fitted by AAA at tol 1e-8: 101 terms at 0, 103 at -4."""
    samples = chain_samples(2, noise=1e-6)
    model, _ = bd.aaa(samples, bd.AaaConfig(tol=1e-8, target_degree=degree))
    return make_piecewise(model, samples)


class TestSwitch:
    """The branch changes where the far estimate falls to the barycentric one, never beyond the cutoff."""

    @pytest.mark.parametrize("n, forward", CHAINS)
    def test_chain_fits_switch_at_the_first_rungs(self, n, forward):
        pm = chain_piecewise(n, forward)
        # measured: 1.01 * scale on all four, where the cutoff is 5.3-6.6 * scale
        assert pm.train_T <= pm.switch <= 1.1 * pm.far.scale < pm.cutoff

    @pytest.mark.parametrize("degree, terms", [(0, 101), (-4, 103)])
    def test_many_term_fits_keep_the_cutoff(self, degree, terms):
        pm = many_term_piecewise(degree)
        assert pm.bary.terms == terms
        estimates = list(_switch_estimates(pm.bary, pm.cutoff))
        # every rung below the cutoff, 7.1 * scale at 0 and 4.7 * scale at -4
        rungs = [r for r in (1.01, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0) if r * pm.far.scale < pm.cutoff]
        assert [r / pm.far.scale for r, _, _ in estimates] == pytest.approx(rungs, rel=1e-15)
        assert len(rungs) == (7 if degree == 0 else 6)
        if degree == 0:
            # no defect, so no residual sums for the barycentric form to cancel
            assert all(e_bary == 0 for _, _, e_bary in estimates)
        else:
            # measured: E_far above E_bary up to 3 * scale (1.9e-9 against 1.1e-9)
            assert all(e_far > e_bary for _, e_far, e_bary in estimates)
        assert pm.switch == pm.cutoff

    def test_far_estimate_bounds_the_far_error(self):
        pm = many_term_piecewise(-4)
        directions = np.exp(2j * np.pi * np.arange(16) / 16)
        for radius, e_far, _ in _switch_estimates(pm.bary, pm.cutoff):
            s = radius * directions
            error = max_rel_err(eval_asymptotic(pm.far, s), deflated_form(pm.bary, s))
            # measured margin 7-80x
            assert error <= e_far, radius / pm.far.scale

    def test_exact_residual_sums_keep_the_cutoff(self):
        pm = bd.PiecewiseModel(bary=exact_inverse_model(), train_T=10.0, train_eps=1e-12)
        assert pm.switch == pm.cutoff

    def test_switch_is_derived_on_first_use(self):
        pm = chain_piecewise(2)
        assert "switch" not in vars(pm)
        pm.near(1j)
        assert vars(pm)["switch"] == pm.switch

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31), m=st.integers(1, 6), data=st.data())
    def test_exact_type_models_switch_inside_their_bounds(self, seed, m, data):
        mu, nu = data.draw(st.integers(0, m)), data.draw(st.integers(0, m))
        rng = np.random.default_rng(seed)
        model = exact_type_model(rng, m, mu, nu)
        scale = float(np.max(np.abs(model.supports)))
        train_T = scale * float(rng.uniform(0.5, 2.0))
        pm = bd.PiecewiseModel(bary=model, train_T=train_T,
                               train_eps=float(10.0 ** rng.uniform(-14, -2)))
        assert pm.train_T <= pm.switch <= pm.cutoff
        # points on both sides of the switch, each evaluated on its own
        radii = np.concatenate([[pm.switch, np.nextafter(pm.switch, np.inf)],
                                pm.switch * np.geomspace(0.5, 4.0, 6)])
        # the two points at the switch on the real axis, where |s| is the radius exactly
        phases = np.concatenate([[0.0, 0.0], rng.uniform(0, 2 * np.pi, radii.size - 2)])
        s = radii * np.exp(1j * phases)
        for point, near in zip(s, pm.near(s)):
            expected = model(point) if near else eval_asymptotic(pm.far, point)
            assert eval_piecewise(pm, point) == expected
        assert pm.near(s).tolist()[:2] == [True, False]
