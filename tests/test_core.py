
import importlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import barydeg as bd
from barydeg.core import (
    cauchy_block,
    loewner_matrix,
    nullspace_basis,
    solve_constrained_weights,
    support_scale,
    vandermonde,
)
from barydeg.errors import (
    ConstraintError,
    PoleEvaluationError,
    TrivialModelError,
    UndefinedValueError,
)
from barydeg.util import BLOCK

from conftest import (
    BLOCK_LENGTHS,
    chain_samples,
    distinct_unit_disc_points,
    exact_type_model,
    sliced,
    traced_peak,
)

SQ2 = np.sqrt(2.0)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestSampleSet:
    def test_basic(self):
        ss = bd.SampleSet([1j, 2j], [1.0, 2.0])
        assert len(ss) == 2

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            bd.SampleSet([1j, 1j], [1.0, 2.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            bd.SampleSet([1j, 2j], [1.0, np.nan])
        with pytest.raises(ValueError, match="finite"):
            bd.SampleSet([1j, np.inf], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            bd.SampleSet([1j, 2j], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bd.SampleSet([], [])


class TestBarycentricModel:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError, match="unit"):
            bd.BarycentricModel([0.0, 1.0], [1.0, 1.0], [1.0, 1.0])

    def test_from_weights_normalizes(self):
        m = bd.BarycentricModel.from_weights([0.0, 1.0], [1.0, 1.0], [3.0, 4.0])
        assert np.linalg.norm(m.weights) == pytest.approx(1.0, abs=1e-15)
        assert m.terms == 2

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            bd.BarycentricModel.from_weights([0.0], [1.0], [0.0])

    def test_duplicate_supports_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            bd.BarycentricModel([1.0, 1.0], [1.0, 2.0], [1 / SQ2, 1 / SQ2])


class TestGeneralBarycentricModel:
    def test_all_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="denominator"):
            bd.GeneralBarycentricModel([0.0, 1.0], [1 / SQ2, 1 / SQ2], [0.0, 0.0])

    def test_stacked_norm_enforced(self):
        with pytest.raises(ValueError, match="unit"):
            bd.GeneralBarycentricModel([0.0], [1.0], [1.0])

    def test_from_weights(self):
        m = bd.GeneralBarycentricModel.from_weights([0.0], [2.0], [1.0])
        stacked = np.concatenate([m.num_weights, m.den_weights])
        assert np.linalg.norm(stacked) == pytest.approx(1.0, abs=1e-15)


def bitwise_equal(a, b):
    """True when two arrays hold the same bytes in the same dtype and shape."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _sample_set(points):
    return bd.SampleSet(points, np.ones(len(points)))


def _barycentric_model(points):
    n = len(points)
    return bd.BarycentricModel(points, np.ones(n), np.full(n, n ** -0.5))


def _general_model(points):
    n = len(points)
    return bd.GeneralBarycentricModel(points, np.full(n, (2 * n) ** -0.5),
                                      np.full(n, (2 * n) ** -0.5))


class TestDistinctness:
    """Every point set a model or sample set holds must be pairwise distinct."""

    BUILDERS = [_sample_set, _barycentric_model, _general_model]
    # sorted order is 1j < 2j < 3j < 4j < 5j; the input is shuffled
    BASE = [3j, 1j, 5j, 2j, 4j]

    @pytest.mark.parametrize("build", BUILDERS)
    @pytest.mark.parametrize("dup", [1j, 3j, 5j], ids=["first", "middle", "last"])
    def test_duplicate_at_any_sorted_position_rejected(self, build, dup):
        with pytest.raises(ValueError, match="distinct"):
            build(self.BASE + [dup])

    @pytest.mark.parametrize("build", BUILDERS)
    @pytest.mark.parametrize("pair", [
        (complex(0.0, 1.0), complex(-0.0, 1.0)),
        (complex(1.0, 0.0), complex(1.0, -0.0)),
        (complex(0.0, 0.0), complex(-0.0, -0.0)),
    ], ids=["real", "imag", "both"])
    def test_signed_zeros_count_as_equal(self, build, pair):
        points = np.array([2j, pair[0], 3j, pair[1]])
        assert np.unique(points).size < points.size
        with pytest.raises(ValueError, match="distinct"):
            build(points)

    @pytest.mark.parametrize("build", BUILDERS)
    def test_neighbouring_floats_accepted(self, build):
        x = np.nextafter(1.0, 2.0)
        points = [complex(1.0, 1.0), complex(x, 1.0), complex(1.0, x), -0.0, 1j]
        build(points)
        build(points[::-1])


class TestFieldChecks:
    """Every field of a sample set or model is a non-empty finite vector, all of one length."""

    KINDS = {
        "sample_set": (bd.SampleSet, {"points": [1j, 2j], "values": [1.0, 2.0]}),
        "interpolatory": (bd.BarycentricModel, {
            "supports": [1j, 2j], "support_values": [1.0, 2.0], "weights": [1 / SQ2, 1 / SQ2]}),
        "general": (bd.GeneralBarycentricModel, {
            "supports": [1j, 2j], "num_weights": [0.5, 0.5], "den_weights": [0.5, 0.5]}),
    }
    LENGTH_MESSAGES = {
        "sample_set": "points and values must have equal length",
        "interpolatory": "supports, support_values and weights must have equal length",
        "general": "supports, num_weights and den_weights must have equal length",
    }
    FIELDS = [pytest.param(kind, name, id=f"{kind}-{name}")
              for kind, (_, fields) in KINDS.items() for name in fields]

    def build(self, kind, name, value):
        cls, fields = self.KINDS[kind]
        return cls(**{**fields, name: value})

    @pytest.mark.parametrize("kind, name", FIELDS)
    def test_length_mismatch_names_every_field(self, kind, name):
        short = self.KINDS[kind][1][name][:1]
        with pytest.raises(ValueError, match=f"^{self.LENGTH_MESSAGES[kind]}$"):
            self.build(kind, name, short)

    @pytest.mark.parametrize("kind, name", FIELDS)
    def test_empty_rejected(self, kind, name):
        with pytest.raises(ValueError, match=f"^{name} must not be empty$"):
            self.build(kind, name, [])

    @pytest.mark.parametrize("kind, name", FIELDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_nonfinite_rejected(self, kind, name, bad):
        value = [bad, *self.KINDS[kind][1][name][1:]]
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            self.build(kind, name, value)


class TestEval:
    def test_constant_single_term(self):
        m = bd.BarycentricModel([0.0], [5.0], [1.0])
        assert m(7.0) == pytest.approx(5.0, rel=1e-14)

    def test_hand_simplified_ratio(self):
        # r(s) = s / (2s - 1) for supports {0, 1}, values {0, 1}
        m = bd.BarycentricModel([0.0, 1.0], [0.0, 1.0], [1 / SQ2, 1 / SQ2])
        assert m(3.0) == pytest.approx(0.6, rel=1e-14)

    def test_support_hit_is_exact(self):
        m = bd.BarycentricModel([0.0, 1.0], [0.0, 1.0], [1 / SQ2, 1 / SQ2])
        assert m(1.0) == 1.0 + 0j

    def test_pole_raises(self):
        # denominator sum vanishes exactly at s = 0
        m = bd.BarycentricModel([1.0, -1.0], [1.0, 2.0], [1 / SQ2, 1 / SQ2])
        with pytest.raises(PoleEvaluationError) as exc:
            m(0.0)
        assert exc.value.point == 0

    def test_vectorized_matches_scalar(self):
        m = bd.BarycentricModel([0.0, 1.0], [0.0, 1.0], [1 / SQ2, 1 / SQ2])
        pts = np.array([3.0, 1.0, 2j])
        out = m(pts)
        assert out[1] == 1.0 + 0j
        assert out[0] == m(3.0)

    def test_nonfinite_point_rejected(self):
        m = bd.BarycentricModel([0.0], [5.0], [1.0])
        with pytest.raises(ValueError, match="finite"):
            m(np.inf)

    def test_peak_memory_is_one_cauchy_matrix(self):
        rng = np.random.default_rng(5)
        m = bd.BarycentricModel.from_weights(
            random_complex(rng, 7), random_complex(rng, 7), random_complex(rng, 7))
        s = random_complex(rng, 100_000)
        cauchy_bytes = s.size * m.terms * np.dtype(complex).itemsize
        assert traced_peak(m, s) < 2 * cauchy_bytes


class TestEvalBlocks:
    """Inputs longer than one block evaluate exactly as their slices do."""

    @staticmethod
    def model():
        rng = np.random.default_rng(11)
        return bd.BarycentricModel.from_weights(
            random_complex(rng, 7), random_complex(rng, 7), random_complex(rng, 7))

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_matches_sliced_evaluation(self, n):
        m = self.model()
        s = random_complex(np.random.default_rng(n), n)
        assert np.array_equal(m(s), sliced(m, s))

    def test_support_hit_in_later_block(self):
        m = self.model()
        s = random_complex(np.random.default_rng(1), 2 * BLOCK + 3)
        s[BLOCK + 5] = m.supports[3]
        assert m(s)[BLOCK + 5] == m.support_values[3]

    def test_pole_in_third_block_raises_there(self):
        # denominator sum vanishes exactly at s = 0 only
        m = bd.BarycentricModel([1.0, -1.0], [1.0, 2.0], [1 / SQ2, 1 / SQ2])
        s = random_complex(np.random.default_rng(2), 3 * BLOCK)
        s[2 * BLOCK + 7] = 0.0
        with pytest.raises(PoleEvaluationError) as exc:
            m(s)
        assert exc.value.point == 0

    def test_nonfinite_point_checked_before_first_block(self):
        m = bd.BarycentricModel([1.0, -1.0], [1.0, 2.0], [1 / SQ2, 1 / SQ2])
        s = random_complex(np.random.default_rng(3), 3 * BLOCK)
        s[0] = 0.0  # a pole in the first block
        s[2 * BLOCK + 7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            m(s)

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0), (2, BLOCK + 1)])
    def test_shape_kept(self, shape):
        m = self.model()
        s = random_complex(np.random.default_rng(4), shape)
        out = m(s)
        if shape == ():
            assert isinstance(out, complex)
        else:
            assert out.shape == shape
            assert np.array_equal(out, m(s.ravel()).reshape(shape))


class TestEvalGeneral:
    def test_constant_ratio(self):
        m = bd.GeneralBarycentricModel.from_weights([0.0], [2.0], [1.0])
        assert m(3.0) == pytest.approx(2.0)

    def test_reexpressed_interpolant(self):
        # same function as r(s) = s/(2s-1) in the general form
        n = np.array([0.0, 1.0]) / np.sqrt(3.0)
        d = np.array([1.0, 1.0]) / np.sqrt(3.0)
        m = bd.GeneralBarycentricModel([0.0, 1.0], n, d)
        assert m(3.0) == pytest.approx(0.6, rel=1e-14)

    def test_support_hit_returns_ratio(self):
        m = bd.GeneralBarycentricModel.from_weights([0.0, 2.0], [1.0, 3.0], [2.0, 1.0])
        assert m(0.0) == pytest.approx(0.5)
        assert m(2.0) == pytest.approx(3.0)

    def test_zero_denominator_weight_at_support(self):
        # a support whose denominator weight vanishes has no defined value
        m = bd.GeneralBarycentricModel.from_weights([0.0, 1.0], [1.0, 1.0], [0.0, 1.0])
        with pytest.raises(UndefinedValueError):
            m(0.0)
        assert m(1.0) == pytest.approx(1.0)


class TestCoefficientPair:
    def test_both_kinds_expose_numerator_and_denominator(self):
        # r(s) = s/(2s-1) in both forms: (w_k f_k, w_k) becomes (n_k, d_k)
        interp = bd.BarycentricModel([0.0, 1.0], [0.0, 1.0], [1 / SQ2, 1 / SQ2])
        num, den = interp.coefficients
        assert np.array_equal(num, interp.weights * interp.support_values)
        assert np.array_equal(den, interp.weights)
        general = bd.GeneralBarycentricModel.from_weights(interp.supports, num, den)
        assert all(a is b for a, b in zip(general.coefficients,
                                          (general.num_weights, general.den_weights)))
        assert general(3.0) == pytest.approx(interp(3.0), rel=1e-14)
        a, b = bd.classify_degree(interp), bd.classify_degree(general)
        assert (a.mu, a.nu, a.rdeg) == (b.mu, b.nu, b.rdeg)

    @pytest.mark.parametrize("seed", range(8))
    def test_pair_is_from_weights_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 12))
        supports = distinct_unit_disc_points(rng, m)
        # unnormalized: each vector scaled by its own power of ten
        first, second = ((rng.normal(size=m) + 1j * rng.normal(size=m))
                         * 10.0 ** rng.uniform(-6, 6) for _ in range(2))
        for cls in (bd.BarycentricModel, bd.GeneralBarycentricModel):
            pair = cls._pair(first, second)
            coefficients = cls.from_weights(supports, first, second).coefficients
            assert all(bitwise_equal(p, c) for p, c in zip(pair, coefficients, strict=True))

    @pytest.mark.parametrize("cls, first, message", [
        (bd.BarycentricModel, np.ones(3, dtype=complex), "weight vector must be nonzero"),
        (bd.GeneralBarycentricModel, np.zeros(3, dtype=complex),
         "coefficient vector must be nonzero"),
    ])
    def test_zero_weights_rejected(self, cls, first, message):
        zero = np.zeros(3, dtype=complex)
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls._pair(first, zero)
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls.from_weights([1j, 2j, 3j], first, zero)

    @pytest.mark.parametrize("cls", [bd.BarycentricModel, bd.GeneralBarycentricModel])
    def test_from_weights_length_mismatch_is_the_models_error(self, cls):
        with pytest.raises(ValueError, match="^supports, .* must have equal length$"):
            cls.from_weights([1j, 2j], [1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("fitter", ["aaa", "vf"])
    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("degree", [0, 4, -4])
    def test_last_step_evaluates_the_models_pair(self, monkeypatch, fitter, forward, degree):
        module = importlib.import_module(f"barydeg.{fitter}")
        ratio = module.cauchy_ratio
        pairs = []

        def keeping(cauchy, coefficients, points, exempt=None):
            pairs.append(coefficients)
            return ratio(cauchy, coefficients, points, exempt)

        monkeypatch.setattr(module, "cauchy_ratio", keeping)
        samples = chain_samples(2, forward=forward)
        if fitter == "aaa":
            model, _ = bd.aaa(samples, bd.AaaConfig(tol=1e-6, target_degree=degree))
        else:
            model, _ = bd.vf_adaptive(samples, bd.VfConfig(target_degree=degree))
        assert pairs
        assert all(bitwise_equal(p, c) for p, c in zip(pairs[-1], model.coefficients, strict=True))


class TestCauchyBlock:
    @pytest.mark.parametrize("shape", [(30, 7), (1, 7), (30, 1), (1, 1), (BLOCK + 5, 3)])
    def test_column_major_and_equal_to_the_broadcast_reciprocal(self, shape):
        rng = np.random.default_rng(13)
        pts, sj = random_complex(rng, shape[0]), random_complex(rng, shape[1])
        expected = 1.0 / np.subtract.outer(pts, sj)
        block, (hit_i, hit_k) = cauchy_block(pts, sj)
        assert block.shape == expected.shape
        assert block.tobytes() == expected.tobytes()
        assert block.flags.f_contiguous
        assert hit_i.size == hit_k.size == 0

    def test_hits_are_set_to_one_in_row_major_order(self):
        # (1, 1) and (2, 0) coincide; row-major order meets (1, 1) first
        pts, sj = np.array([0.5, 2.0, 3.0], dtype=complex), np.array([3.0, 2.0], dtype=complex)
        block, (hit_i, hit_k) = cauchy_block(pts, sj)
        assert hit_i.tolist() == [1, 2] and hit_k.tolist() == [1, 0]
        assert block[1, 1] == block[2, 0] == 1.0
        misses = np.ones(block.shape, dtype=bool)
        misses[hit_i, hit_k] = False
        assert block[misses].tobytes() == (1.0 / np.subtract.outer(pts, sj)[misses]).tobytes()

    @staticmethod
    def scanning_block(points, supports, out):
        """The block as built by scanning every difference for a zero first."""
        for k in range(supports.size):
            np.subtract(points, supports[k], out=out[:, k])
        if out.all():
            hits = (np.empty(0, dtype=np.intp),) * 2
        else:
            hits = np.nonzero(out == 0)
            out[hits] = 1.0
        np.divide(1.0, out, out=out)
        return out, hits

    @pytest.mark.parametrize("hits", [
        [(0, 1)],  # in the first row
        [(7, 3), (29, 3)],  # in the last column
        [(0, 0), (12, 2), (29, 3)],
    ])
    @pytest.mark.parametrize("strided", [False, True])
    def test_hits_equal_the_scanning_reference(self, hits, strided):
        rng = np.random.default_rng(len(hits))
        pts, sj = random_complex(rng, 30), random_complex(rng, 4)
        for i, k in hits:
            pts[i] = sj[k]
        if strided:
            # the Cauchy half of a row-major [C | f C] buffer, as VF fills it
            bufs = [np.full((30, 8), 7.0 + 7.0j) for _ in range(2)]
            outs = [buf[:, :4] for buf in bufs]
        else:
            outs = [np.empty((30, 4), dtype=complex, order="F") for _ in range(2)]
        block, (hit_i, hit_k) = cauchy_block(pts, sj, out=outs[0])
        ref, (ref_i, ref_k) = self.scanning_block(pts, sj, outs[1])
        assert block is outs[0]
        assert list(zip(hit_i.tolist(), hit_k.tolist())) == hits
        assert hit_i.tolist() == ref_i.tolist() and hit_k.tolist() == ref_k.tolist()
        assert block.tobytes() == ref.tobytes()
        if strided:
            assert bufs[0].tobytes() == bufs[1].tobytes()

    def test_subnormal_difference_warns_of_overflow(self):
        # 1 / (d + d i) overflows without dividing by zero: no hit, and the
        # warning of numpy's division, not a trapped error
        d = 1e-310
        pts, sj = np.array([1.0, d + 1j * d]), np.array([0j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow"):
                cauchy_block(pts, sj)
        with np.errstate(over="ignore"):
            block, (hit_i, hit_k) = cauchy_block(pts, sj)
        assert hit_i.size == hit_k.size == 0
        assert block[1, 0] == complex(np.inf, -np.inf)

    @pytest.mark.parametrize("points", [
        [1.0, 1e-310 + 1e-310j],  # 1 / d overflows
        [1.0, 1e-310],  # 1 / d overflows, and 0 * inf is invalid
        [1e308 + 1e308j, 1.0],  # the difference overflows, and inf / inf is invalid
        [0.0, 1e308 + 1e308j],  # as well as a hit
    ])
    def test_warns_as_the_scanning_reference(self, points):
        pts, sj = np.array(points, dtype=complex), np.array([0j, -1e308 - 1e308j])
        caught = []
        for build in (lambda: cauchy_block(pts, sj), lambda: self.scanning_block(
                pts, sj, np.empty((pts.size, sj.size), dtype=complex, order="F"))):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                block, hits = build()
            caught.append(([str(w.message) for w in seen], block.tobytes(),
                           [h.tolist() for h in hits]))
        assert caught[0][0]
        assert caught[0] == caught[1]


class TestLoewner:
    def test_hand_example(self):
        ss = bd.SampleSet([2.0], [3.0])
        L = loewner_matrix(ss.points, ss.values, [0.0], [1.0])
        assert L.shape == (1, 1)
        assert L[0, 0] == pytest.approx(1.0)

    def test_zero_divided_difference(self):
        ss = bd.SampleSet([2.0], [1.0])
        assert loewner_matrix(ss.points, ss.values, [0.0], [1.0])[0, 0] == 0.0

    def test_complex_entry(self):
        ss = bd.SampleSet([1j], [2j])
        assert loewner_matrix(ss.points, ss.values, [0.0], [0.0])[0, 0] == pytest.approx(2.0)

    def test_coincident_point_rejected(self):
        ss = bd.SampleSet([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="coincides"):
            loewner_matrix(ss.points, ss.values, [2.0], [1.0])

    def test_first_coincidence_in_row_major_order_is_named(self):
        # (1, 1) and (2, 0) coincide; row-major order meets (1, 1) first
        with pytest.raises(ValueError, match=r"point \(2\+0j\) coincides with support \(2\+0j\)"):
            loewner_matrix([0.5, 2.0, 3.0], [1.0, 1.0, 1.0], [3.0, 2.0], [1.0, 1.0])

    @pytest.mark.parametrize("shape", [(30, 7), (1, 7), (30, 1), (1, 1)])
    def test_equals_the_broadcast_formula_bit_for_bit(self, shape):
        rng = np.random.default_rng(11)
        pts, vals = random_complex(rng, shape[0]), random_complex(rng, shape[0])
        sj, fj = random_complex(rng, shape[1]), random_complex(rng, shape[1])
        expected = (vals[:, None] - fj) / (pts[:, None] - sj)
        L = loewner_matrix(pts, vals, sj, fj)
        assert L.shape == expected.shape
        assert L.tobytes() == expected.tobytes()

    def test_peak_memory_is_the_result(self):
        # built column by column: no broadcast temporaries beside the result
        rng = np.random.default_rng(12)
        pts, vals = random_complex(rng, 4000), random_complex(rng, 4000)
        sj, fj = random_complex(rng, 40), random_complex(rng, 40)
        result_bytes = 4000 * 40 * np.dtype(complex).itemsize
        assert traced_peak(loewner_matrix, pts, vals, sj, fj) < 1.5 * result_bytes


class TestVandermonde:
    def test_degree_zero_basis(self):
        V = vandermonde([0.0, 1.0], 1)
        assert np.array_equal(V, np.ones((2, 1), dtype=complex))

    def test_scaled_columns(self):
        V = vandermonde([0.0, 2.0], 2)
        assert np.allclose(V, [[1.0, 0.0], [1.0, 1.0]])

    def test_complex_support(self):
        # the scale is max |s_k| = 2
        V = vandermonde([1j, 2j], 2)
        assert np.allclose(V, [[1.0, 0.5j], [1.0, 1j]])

    def test_more_columns_than_supports(self):
        # the power-sum scan reads terms + order columns; scale 4 is derived
        V = vandermonde([2.0, -4.0], 5)
        assert V.shape == (2, 5)
        assert np.array_equal(V, [[1.0, 0.5, 0.25, 0.125, 0.0625],
                                  [1.0, -1.0, 1.0, -1.0, 1.0]])

    def test_negative_columns(self):
        with pytest.raises(ValueError, match="nonnegative"):
            vandermonde([0.0, 1.0], -1)


class TestNullspaceBasis:
    def test_symmetric_null_vector(self):
        Q = nullspace_basis(np.ones((2, 1)))
        assert Q.shape == (2, 1)
        assert abs(Q[:, 0].sum()) < 1e-14
        assert np.allclose(np.abs(Q[:, 0]), 1 / SQ2)

    def test_identity_scaling_same_span(self):
        Q = nullspace_basis(np.ones((2, 1)), left_scaling=[1.0, 1.0])
        assert abs(Q[:, 0].sum()) < 1e-14

    def test_weighted_null_vector(self):
        Q = nullspace_basis(np.array([[1.0], [2.0]]), left_scaling=[1.0, 1.0])
        q = Q[:, 0]
        assert abs(q[0] + 2 * q[1]) < 1e-14
        assert np.allclose(np.abs(q), [2 / np.sqrt(5), 1 / np.sqrt(5)])

    def test_plain_transpose_semantics(self):
        # For complex data the degree conditions use the plain transpose;
        # a stock QR factorization of V itself would satisfy the conjugate
        # condition instead, so this case separates the two.
        V = np.array([[1.0], [1j]])
        Q = nullspace_basis(V)
        q = Q[:, 0]
        assert abs(V[:, 0] @ q) < 1e-14              # plain transpose: required
        assert abs(np.conj(V[:, 0]) @ q) > 0.5       # conjugate condition: not satisfied

    def test_no_free_direction(self):
        with pytest.raises(ConstraintError):
            nullspace_basis(np.ones((2, 2)))

    def test_zero_columns_gives_identity(self):
        Q = nullspace_basis(np.empty((3, 0)))
        assert np.allclose(Q, np.eye(3))

    @pytest.mark.parametrize("n", [1, 2, 7, 121])
    def test_degree_zero_constraint_is_exact_identity(self, n):
        # AAA and VF send degree 0 through the same constraint path as any
        # other degree, so its basis must be the identity bit for bit
        rng = np.random.default_rng(n)
        s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for scaling in (None, f):
            Q = nullspace_basis(vandermonde(s, 0), left_scaling=scaling)
            assert Q.dtype == complex
            assert np.array_equal(Q, np.eye(n))

    def test_no_constraint_skips_the_qr(self, monkeypatch):
        # a fifth of the constraint bases AAA and VF ask for have no constraint
        def no_qr(*args, **kwargs):
            raise AssertionError("QR called for an unconstrained basis")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        s = np.array([1j, 2j, 3j, 4j])
        for scaling in (None, np.array([1.0, 2.0, 3.0, 4.0])):
            Q = nullspace_basis(vandermonde(s, 0), left_scaling=scaling)
            assert Q.dtype == complex
            assert np.array_equal(Q, np.eye(4))


class TestSolveConstrainedWeights:
    def test_degenerate_objective(self):
        w = solve_constrained_weights(np.zeros((1, 2)), np.eye(2))
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(np.zeros((1, 2)) @ w) == 0.0

    def test_rank_one_matrix(self):
        w = solve_constrained_weights(np.array([[1.0, 0.0]]), np.eye(2))
        assert abs(w[0]) < 1e-14
        assert abs(w[1]) == pytest.approx(1.0, abs=1e-14)

    def test_single_feasible_direction(self):
        rng = np.random.default_rng(3)
        L = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        Q = np.eye(2)[:, :1]
        w = solve_constrained_weights(L, Q)
        assert abs(abs(w[0]) - 1.0) < 1e-14 and abs(w[1]) < 1e-14
        assert np.linalg.norm(L @ w) == pytest.approx(np.linalg.norm(L[:, 0]), rel=1e-14)

    def test_empty_basis_rejected(self):
        with pytest.raises(ConstraintError):
            solve_constrained_weights(np.eye(2), np.empty((2, 0)))

    @pytest.mark.parametrize("shape, constraints",
                             [((300, 6), 2), ((7, 6), 2), ((4, 6), 2), ((3, 6), 2), ((300, 6), 0),
                              ((300, 6), 4)],
                             ids=[f"shape{i}" for i in range(6)])
    def test_minimizer_over_the_constrained_range(self, shape, constraints):
        # Two constraints leave Q 4 of L's 6 columns, four leave it 2 and
        # none leave Q = I (AAA's degree-0 basis): a tall L (300 and 7 rows)
        # is reduced to its 6 x 6 QR triangle R first, whatever Q's width,
        # and the square and wide L go to L Q directly.  Each must give the
        # minimal singular vector of L Q, mapped back into range(Q).
        rng = np.random.default_rng(shape[0])
        L = random_complex(rng, shape)
        Q = nullspace_basis(vandermonde(random_complex(rng, shape[1]), constraints))
        w = solve_constrained_weights(L, Q)
        sigma = np.linalg.svd(L @ Q, compute_uv=False)
        smallest = sigma[-1] if shape[0] >= Q.shape[1] else 0.0
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(Q.conj().T @ w) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(L @ w) == pytest.approx(smallest, rel=1e-10, abs=1e-13)

    def test_tall_problem_allocates_no_rows_squared_factor(self):
        # beyond its inputs, the solve holds the copy of L that the QR
        # factors and blocks of its 8 x 8 triangle's size, for Q = I (AAA's
        # degree-0 basis), one constraint or six
        rng = np.random.default_rng(6)
        L = random_complex(rng, (4000, 8))
        for constraints in (0, 1, 6):
            Q = nullspace_basis(vandermonde(random_complex(rng, 8), constraints))
            assert traced_peak(solve_constrained_weights, L, Q) <= 1.25 * L.nbytes


class TestClassifyDegree:
    def test_constant_function_full_defect(self):
        m = bd.BarycentricModel([0.0, 1.0], [1.0, 1.0], np.array([1.0, -1.0]) / SQ2)
        sig = bd.classify_degree(m)
        assert (sig.mu, sig.nu, sig.rdeg) == (1, 1, 0)

    def test_generic_type(self):
        m = bd.BarycentricModel([0.0, 1.0], [0.0, 1.0], np.array([1.0, 1.0]) / SQ2)
        sig = bd.classify_degree(m)
        assert (sig.mu, sig.nu, sig.rdeg) == (0, 0, 0)

    def test_inverse_decay(self):
        m = bd.BarycentricModel.from_weights([1.0, 2.0], [1.0, 0.5], [1.0, -2.0])
        sig = bd.classify_degree(m)
        assert (sig.mu, sig.nu, sig.rdeg) == (1, 0, -1)
        assert sig.num_moments[0] != 0 and sig.den_moments[0] != 0

    def test_trivial_numerator_raises(self):
        m = bd.BarycentricModel([0.0, 1.0], [0.0, 0.0], np.array([1.0, 1.0]) / SQ2)
        with pytest.raises(TrivialModelError):
            bd.classify_degree(m)

    def test_scale_invariance_of_classification(self):
        # classification must not depend on the magnitude of the data
        rng = np.random.default_rng(11)
        model = exact_type_model(rng, 5, 2, 1)
        scaled = bd.BarycentricModel(
            model.supports, model.support_values * 1e12, model.weights
        )
        a, b = bd.classify_degree(model), bd.classify_degree(scaled)
        assert (a.mu, a.nu) == (b.mu, b.nu) == (2, 1)

    def test_general_form_classification(self):
        n = np.array([0.0, 1.0]) / np.sqrt(3.0)
        d = np.array([1.0, 1.0]) / np.sqrt(3.0)
        m = bd.GeneralBarycentricModel([0.0, 1.0], n, d)
        sig = bd.classify_degree(m)
        assert (sig.mu, sig.nu, sig.rdeg) == (0, 0, 0)


class TestDegreeRoundTrip:
    @pytest.mark.parametrize("seed", range(40))
    def test_classification_recovers_construction(self, seed):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(1, 9))
        mu = int(rng.integers(0, m + 1))
        nu = int(rng.integers(0, m + 1))
        model = exact_type_model(rng, m, mu, nu)
        sig = bd.classify_degree(model)
        assert (sig.mu, sig.nu, sig.rdeg) == (mu, nu, nu - mu)


class TestSeriesOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_truncated_series_matches_direct_sum(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(0, 6))
        sk = distinct_unit_disc_points(rng, m + 1)
        alpha = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
        rho = max(np.max(np.abs(sk)), 1e-2)
        s = 3 * rho * np.exp(1j * rng.uniform(0, 2 * np.pi))
        direct = np.sum(alpha / (s - sk))
        series = sum(np.sum(alpha * sk**l) / s ** (l + 1) for l in range(61))
        assert abs(series - direct) <= 1e-12 * abs(direct)


class TestProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31), m=st.integers(0, 8))
    def test_interpolation_identity(self, seed, m):
        rng = np.random.default_rng(seed)
        supports = distinct_unit_disc_points(rng, m + 1)
        values = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
        w = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
        model = bd.BarycentricModel.from_weights(supports, values, w)
        out = model(supports)
        assert np.array_equal(out, model.support_values)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31))
    def test_general_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(0, 5))
        supports = distinct_unit_disc_points(rng, m + 1)
        n = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
        d = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
        c = (rng.normal() + 1j * rng.normal()) or 1.0
        a = bd.GeneralBarycentricModel.from_weights(supports, n, d)
        b = bd.GeneralBarycentricModel.from_weights(supports, c * n, c * d)
        s = 2.0 + 2.0j  # outside the unit disc, never a support
        va, vb = a(s), b(s)
        assert abs(va - vb) <= 1e-13 * abs(va)

    def test_nullspace_contract_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rows = int(rng.integers(2, 10))
            cols = int(rng.integers(0, rows))
            V = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            f = rng.normal(size=rows) + 1j * rng.normal(size=rows)
            Q = nullspace_basis(V, left_scaling=f)
            A = f[:, None] * V
            fro = max(np.linalg.norm(A), 1.0)
            assert Q.shape == (rows, rows - cols)
            if cols:
                assert np.max(np.abs(A.T @ Q)) <= 1e-12 * fro
            assert np.max(np.abs(Q.conj().T @ Q - np.eye(rows - cols))) <= 1e-13


def test_models_are_callable():
    m = bd.BarycentricModel([0.0, 1.0], [0.0, 1.0], np.array([1.0, 1.0]) / SQ2)
    assert m(3.0) == pytest.approx(0.6, rel=1e-14)
    g = bd.GeneralBarycentricModel.from_weights([0.0], [2.0], [1.0])
    assert g(3.0) == pytest.approx(2.0)


def test_models_are_immutable():
    m = bd.BarycentricModel([0.0, 1.0], [0.0, 1.0], np.array([1.0, 1.0]) / SQ2)
    with pytest.raises(Exception):
        m.weights = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        m.weights[0] = 0.0  # backing arrays are read-only


def test_degree_diagnostics_unconstrained():
    m = bd.BarycentricModel([0.0, 1.0], [0.0, 1.0], np.array([1.0, 1.0]) / SQ2)
    resid, leading = bd.core.degree_diagnostics(m, 0)
    assert resid == 0.0
    assert leading[0] == pytest.approx(1 / SQ2)
    assert leading[1] == pytest.approx(2 / SQ2)


def test_support_scale_all_zero():
    assert support_scale(np.array([0.0 + 0j])) == 1.0
