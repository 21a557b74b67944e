from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import barydeg as bd
from barydeg.core import support_scale
from barydeg.errors import (
    ConstraintError,
    PoleEvaluationError,
    TrivialModelError,
    UndefinedValueError,
)
from barydeg.util import BLOCK

from conftest import (
    BLOCK_LENGTHS,
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


class TestEval:
    def test_constant_single_term(self):
        m = bd.BarycentricModel([0.0], [5.0], [1.0])
        assert bd.eval_barycentric(m, 7.0) == pytest.approx(5.0, rel=1e-14)

    def test_hand_simplified_ratio(self):
        # r(s) = s / (2s - 1) for supports {0, 1}, values {0, 1}
        m = bd.BarycentricModel([0.0, 1.0], [0.0, 1.0], [1 / SQ2, 1 / SQ2])
        assert bd.eval_barycentric(m, 3.0) == pytest.approx(0.6, rel=1e-14)

    def test_support_hit_is_exact(self):
        m = bd.BarycentricModel([0.0, 1.0], [0.0, 1.0], [1 / SQ2, 1 / SQ2])
        assert bd.eval_barycentric(m, 1.0) == 1.0 + 0j

    def test_pole_raises(self):
        # denominator sum vanishes exactly at s = 0
        m = bd.BarycentricModel([1.0, -1.0], [1.0, 2.0], [1 / SQ2, 1 / SQ2])
        with pytest.raises(PoleEvaluationError) as exc:
            bd.eval_barycentric(m, 0.0)
        assert exc.value.point == 0

    def test_vectorized_matches_scalar(self):
        m = bd.BarycentricModel([0.0, 1.0], [0.0, 1.0], [1 / SQ2, 1 / SQ2])
        pts = np.array([3.0, 1.0, 2j])
        out = bd.eval_barycentric(m, pts)
        assert out[1] == 1.0 + 0j
        assert out[0] == bd.eval_barycentric(m, 3.0)

    def test_nonfinite_point_rejected(self):
        m = bd.BarycentricModel([0.0], [5.0], [1.0])
        with pytest.raises(ValueError, match="finite"):
            bd.eval_barycentric(m, np.inf)

    def test_peak_memory_is_one_cauchy_matrix(self):
        rng = np.random.default_rng(5)
        m = bd.BarycentricModel.from_weights(
            random_complex(rng, 7), random_complex(rng, 7), random_complex(rng, 7))
        s = random_complex(rng, 100_000)
        cauchy_bytes = s.size * m.terms * np.dtype(complex).itemsize
        assert traced_peak(bd.eval_barycentric, m, s) < 2 * cauchy_bytes


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
        assert np.array_equal(bd.eval_barycentric(m, s), sliced(partial(bd.eval_barycentric, m), s))

    def test_support_hit_in_later_block(self):
        m = self.model()
        s = random_complex(np.random.default_rng(1), 2 * BLOCK + 3)
        s[BLOCK + 5] = m.supports[3]
        assert bd.eval_barycentric(m, s)[BLOCK + 5] == m.support_values[3]

    def test_pole_in_third_block_raises_there(self):
        # denominator sum vanishes exactly at s = 0 only
        m = bd.BarycentricModel([1.0, -1.0], [1.0, 2.0], [1 / SQ2, 1 / SQ2])
        s = random_complex(np.random.default_rng(2), 3 * BLOCK)
        s[2 * BLOCK + 7] = 0.0
        with pytest.raises(PoleEvaluationError) as exc:
            bd.eval_barycentric(m, s)
        assert exc.value.point == 0

    def test_nonfinite_point_checked_before_first_block(self):
        m = bd.BarycentricModel([1.0, -1.0], [1.0, 2.0], [1 / SQ2, 1 / SQ2])
        s = random_complex(np.random.default_rng(3), 3 * BLOCK)
        s[0] = 0.0  # a pole in the first block
        s[2 * BLOCK + 7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            bd.eval_barycentric(m, s)

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0), (2, BLOCK + 1)])
    def test_shape_kept(self, shape):
        m = self.model()
        s = random_complex(np.random.default_rng(4), shape)
        out = bd.eval_barycentric(m, s)
        if shape == ():
            assert isinstance(out, complex)
        else:
            assert out.shape == shape
            assert np.array_equal(out, bd.eval_barycentric(m, s.ravel()).reshape(shape))


class TestEvalGeneral:
    def test_constant_ratio(self):
        m = bd.GeneralBarycentricModel.from_weights([0.0], [2.0], [1.0])
        assert bd.eval_general(m, 3.0) == pytest.approx(2.0)

    def test_reexpressed_interpolant(self):
        # same function as r(s) = s/(2s-1) in the general form
        n = np.array([0.0, 1.0]) / np.sqrt(3.0)
        d = np.array([1.0, 1.0]) / np.sqrt(3.0)
        m = bd.GeneralBarycentricModel([0.0, 1.0], n, d)
        assert bd.eval_general(m, 3.0) == pytest.approx(0.6, rel=1e-14)

    def test_support_hit_returns_ratio(self):
        m = bd.GeneralBarycentricModel.from_weights([0.0, 2.0], [1.0, 3.0], [2.0, 1.0])
        assert bd.eval_general(m, 0.0) == pytest.approx(0.5)
        assert bd.eval_general(m, 2.0) == pytest.approx(3.0)

    def test_zero_denominator_weight_at_support(self):
        # a support whose denominator weight vanishes has no defined value
        m = bd.GeneralBarycentricModel.from_weights([0.0, 1.0], [1.0, 1.0], [0.0, 1.0])
        with pytest.raises(UndefinedValueError):
            bd.eval_general(m, 0.0)
        assert bd.eval_general(m, 1.0) == pytest.approx(1.0)


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
        assert bd.evaluate(general, 3.0) == pytest.approx(bd.evaluate(interp, 3.0), rel=1e-14)
        a, b = bd.classify_degree(interp), bd.classify_degree(general)
        assert (a.mu, a.nu, a.rdeg) == (b.mu, b.nu, b.rdeg)


class TestLoewner:
    def test_hand_example(self):
        ss = bd.SampleSet([2.0], [3.0])
        L = bd.loewner_matrix(ss.points, ss.values, [0.0], [1.0])
        assert L.shape == (1, 1)
        assert L[0, 0] == pytest.approx(1.0)

    def test_zero_divided_difference(self):
        ss = bd.SampleSet([2.0], [1.0])
        assert bd.loewner_matrix(ss.points, ss.values, [0.0], [1.0])[0, 0] == 0.0

    def test_complex_entry(self):
        ss = bd.SampleSet([1j], [2j])
        assert bd.loewner_matrix(ss.points, ss.values, [0.0], [0.0])[0, 0] == pytest.approx(2.0)

    def test_coincident_point_rejected(self):
        ss = bd.SampleSet([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="coincides"):
            bd.loewner_matrix(ss.points, ss.values, [2.0], [1.0])


class TestVandermonde:
    def test_degree_zero_basis(self):
        V = bd.vandermonde([0.0, 1.0], 1)
        assert np.array_equal(V, np.ones((2, 1), dtype=complex))

    def test_scaled_columns(self):
        V = bd.vandermonde([0.0, 2.0], 2)
        assert np.allclose(V, [[1.0, 0.0], [1.0, 1.0]])

    def test_complex_support(self):
        # the scale is max |s_k| = 2
        V = bd.vandermonde([1j, 2j], 2)
        assert np.allclose(V, [[1.0, 0.5j], [1.0, 1j]])

    def test_more_columns_than_supports(self):
        # the power-sum scan reads terms + order columns; scale 4 is derived
        V = bd.vandermonde([2.0, -4.0], 5)
        assert V.shape == (2, 5)
        assert np.array_equal(V, [[1.0, 0.5, 0.25, 0.125, 0.0625],
                                  [1.0, -1.0, 1.0, -1.0, 1.0]])

    def test_negative_columns(self):
        with pytest.raises(ValueError, match="nonnegative"):
            bd.vandermonde([0.0, 1.0], -1)


class TestNullspaceBasis:
    def test_symmetric_null_vector(self):
        Q = bd.nullspace_basis(np.ones((2, 1)))
        assert Q.shape == (2, 1)
        assert abs(Q[:, 0].sum()) < 1e-14
        assert np.allclose(np.abs(Q[:, 0]), 1 / SQ2)

    def test_identity_scaling_same_span(self):
        Q = bd.nullspace_basis(np.ones((2, 1)), left_scaling=[1.0, 1.0])
        assert abs(Q[:, 0].sum()) < 1e-14

    def test_weighted_null_vector(self):
        Q = bd.nullspace_basis(np.array([[1.0], [2.0]]), left_scaling=[1.0, 1.0])
        q = Q[:, 0]
        assert abs(q[0] + 2 * q[1]) < 1e-14
        assert np.allclose(np.abs(q), [2 / np.sqrt(5), 1 / np.sqrt(5)])

    def test_plain_transpose_semantics(self):
        # For complex data the degree conditions use the plain transpose;
        # a stock QR factorization of V itself would satisfy the conjugate
        # condition instead, so this case separates the two.
        V = np.array([[1.0], [1j]])
        Q = bd.nullspace_basis(V)
        q = Q[:, 0]
        assert abs(V[:, 0] @ q) < 1e-14              # plain transpose: required
        assert abs(np.conj(V[:, 0]) @ q) > 0.5       # conjugate condition: not satisfied

    def test_no_free_direction(self):
        with pytest.raises(ConstraintError):
            bd.nullspace_basis(np.ones((2, 2)))

    def test_zero_columns_gives_identity(self):
        Q = bd.nullspace_basis(np.empty((3, 0)))
        assert np.allclose(Q, np.eye(3))

    @pytest.mark.parametrize("n", [1, 2, 7, 121])
    def test_degree_zero_constraint_is_exact_identity(self, n):
        # AAA and VF send degree 0 through the same constraint path as any
        # other degree, so its basis must be the identity bit for bit
        rng = np.random.default_rng(n)
        s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for scaling in (None, f):
            Q = bd.nullspace_basis(bd.vandermonde(s, 0), left_scaling=scaling)
            assert Q.dtype == complex
            assert np.array_equal(Q, np.eye(n))

    def test_no_constraint_skips_the_qr(self, monkeypatch):
        # a fifth of the constraint bases AAA and VF ask for have no constraint
        def no_qr(*args, **kwargs):
            raise AssertionError("QR called for an unconstrained basis")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        s = np.array([1j, 2j, 3j, 4j])
        for scaling in (None, np.array([1.0, 2.0, 3.0, 4.0])):
            Q = bd.nullspace_basis(bd.vandermonde(s, 0), left_scaling=scaling)
            assert Q.dtype == complex
            assert np.array_equal(Q, np.eye(4))


class TestSolveConstrainedWeights:
    def test_degenerate_objective(self):
        w = bd.solve_constrained_weights(np.zeros((1, 2)), np.eye(2))
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(np.zeros((1, 2)) @ w) == 0.0

    def test_rank_one_matrix(self):
        w = bd.solve_constrained_weights(np.array([[1.0, 0.0]]), np.eye(2))
        assert abs(w[0]) < 1e-14
        assert abs(w[1]) == pytest.approx(1.0, abs=1e-14)

    def test_single_feasible_direction(self):
        rng = np.random.default_rng(3)
        L = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        Q = np.eye(2)[:, :1]
        w = bd.solve_constrained_weights(L, Q)
        assert abs(abs(w[0]) - 1.0) < 1e-14 and abs(w[1]) < 1e-14
        assert np.linalg.norm(L @ w) == pytest.approx(np.linalg.norm(L[:, 0]), rel=1e-14)

    def test_empty_basis_rejected(self):
        with pytest.raises(ConstraintError):
            bd.solve_constrained_weights(np.eye(2), np.empty((2, 0)))

    @pytest.mark.parametrize("shape", [(300, 6), (7, 6), (4, 6), (3, 6)])
    def test_minimizer_over_the_constrained_range(self, shape):
        # Q has 4 columns, so L Q is tall, tall, square and wide.  Tall blocks
        # are reduced to their QR triangle first, the others go to the SVD
        # directly; each must give the minimal singular vector of L Q, mapped
        # back into range(Q).
        rng = np.random.default_rng(shape[0])
        L = random_complex(rng, shape)
        Q = bd.nullspace_basis(bd.vandermonde(random_complex(rng, shape[1]), 2))
        w = bd.solve_constrained_weights(L, Q)
        sigma = np.linalg.svd(L @ Q, compute_uv=False)
        smallest = sigma[-1] if shape[0] >= Q.shape[1] else 0.0
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(Q.conj().T @ w) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(L @ w) == pytest.approx(smallest, rel=1e-10, abs=1e-13)

    def test_tall_problem_allocates_no_rows_squared_factor(self):
        L = random_complex(np.random.default_rng(6), (4000, 8))
        assert traced_peak(bd.solve_constrained_weights, L, np.eye(8)) < 10 * L.nbytes


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
        out = bd.eval_barycentric(model, supports)
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
        va, vb = bd.eval_general(a, s), bd.eval_general(b, s)
        assert abs(va - vb) <= 1e-13 * abs(va)

    def test_nullspace_contract_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rows = int(rng.integers(2, 10))
            cols = int(rng.integers(0, rows))
            V = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            f = rng.normal(size=rows) + 1j * rng.normal(size=rows)
            Q = bd.nullspace_basis(V, left_scaling=f)
            A = f[:, None] * V
            fro = max(np.linalg.norm(A), 1.0)
            assert Q.shape == (rows, rows - cols)
            if cols:
                assert np.max(np.abs(A.T @ Q)) <= 1e-12 * fro
            assert np.max(np.abs(Q.conj().T @ Q - np.eye(rows - cols))) <= 1e-13


def test_models_are_callable():
    m = bd.BarycentricModel([0.0, 1.0], [0.0, 1.0], np.array([1.0, 1.0]) / SQ2)
    assert m(3.0) == bd.eval_barycentric(m, 3.0)
    g = bd.GeneralBarycentricModel.from_weights([0.0], [2.0], [1.0])
    assert g(3.0) == bd.eval_general(g, 3.0)


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
