import re
import warnings
from functools import partial

import numpy as np
import pytest

import barydeg as bd
from barydeg.benchmarks import CSV_HEADER
from barydeg.errors import PoleEvaluationError
from barydeg.util import BLOCK

from conftest import BLOCK_LENGTHS, BLOCK_SCRATCH_BYTES, NONFINITE_POINTS, sliced, traced_peak


class TestMassChainSystem:
    def test_defaults_are_unit(self):
        sys2 = bd.MassChainSystem(2)
        assert np.array_equal(sys2.masses, [1.0, 1.0])
        assert np.array_equal(sys2.springs, [1.0])

    def test_too_few_masses(self):
        with pytest.raises(ValueError, match="at least 2"):
            bd.MassChainSystem(1)

    def test_nonpositive_parameters(self):
        with pytest.raises(ValueError, match="positive"):
            bd.MassChainSystem(2, masses=[1.0, 0.0])
        with pytest.raises(ValueError, match="positive"):
            bd.MassChainSystem(2, springs=[-1.0])

    def test_wrong_lengths(self):
        with pytest.raises(ValueError):
            bd.MassChainSystem(3, springs=[1.0])
        with pytest.raises(ValueError, match="one mass per node"):
            bd.MassChainSystem(3, masses=[1.0, 1.0])

    @pytest.mark.parametrize("n", [2.5, 2.0, "3"])
    def test_non_integer_count_rejected(self, n):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            bd.MassChainSystem(n)


class TestChainMatrices:
    def test_two_masses_unit(self):
        M, A, B, C = bd.chain_matrices(bd.MassChainSystem(2))
        assert np.array_equal(M, np.eye(2))
        assert np.array_equal(A, [[-1.0, 1.0], [1.0, -1.0]])
        assert np.array_equal(B, [[0.0], [1.0]])
        assert np.array_equal(C, [[1.0, 0.0]])

    def test_three_masses_unit(self):
        _, A, _, _ = bd.chain_matrices(bd.MassChainSystem(3))
        assert np.array_equal(A, [[-1, 1, 0], [1, -2, 1], [0, 1, -1]])

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_structure(self, n):
        rng = np.random.default_rng(n)
        sys_ = bd.MassChainSystem(n, masses=rng.uniform(0.5, 2, n),
                                  springs=rng.uniform(0.5, 2, n - 1))
        _, A, _, _ = bd.chain_matrices(sys_)
        assert np.array_equal(A, A.T)
        assert np.allclose(A @ np.ones(n), 0.0, atol=1e-14)

    def test_negative_semidefinite_unit(self):
        for n in (2, 3, 6):
            _, A, _, _ = bd.chain_matrices(bd.MassChainSystem(n))
            assert np.all(np.linalg.eigvalsh(A) <= 1e-12)


class TestForwardTf:
    def test_closed_form_at_one(self):
        # H(s) = 1 / (s^4 + 2 s^2) for the unit 2-mass chain
        assert bd.forward_tf(bd.MassChainSystem(2), 1.0) == pytest.approx(1 / 3, rel=1e-12)

    def test_closed_form_at_i(self):
        assert bd.forward_tf(bd.MassChainSystem(2), 1j) == pytest.approx(-1.0, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_high_frequency_slope(self, n):
        # independent degree oracle: |H| ~ |s|^(-2n) far above the band
        sys_ = bd.MassChainSystem(n)
        s = bd.sample_grid(1e3, 1e4, 40)
        mag = np.abs(bd.forward_tf(sys_, s))
        slope = np.polyfit(np.log10(np.abs(s)), np.log10(mag), 1)[0]
        assert slope == pytest.approx(-2 * n, abs=0.01)
        mag_inv = np.abs(bd.inverse_tf(sys_, s))
        slope_inv = np.polyfit(np.log10(np.abs(s)), np.log10(mag_inv), 1)[0]
        assert slope_inv == pytest.approx(2 * n, abs=0.01)

    def test_exact_resonance_raises(self):
        # omega = 1 is an eigenfrequency of the unit 3-mass chain
        with pytest.raises(PoleEvaluationError):
            bd.forward_tf(bd.MassChainSystem(3), 1j)

    def test_vectorized_matches_scalar(self):
        sys_ = bd.MassChainSystem(3)
        s = np.array([0.5j, 2.0 + 1j])
        out = bd.forward_tf(sys_, s)
        assert out[0] == pytest.approx(bd.forward_tf(sys_, 0.5j), rel=1e-14)


# The two chain references; both are solved block by block.
CHAIN_MAPS = [bd.forward_tf, bd.inverse_tf]


class TestForwardTfBlocks:
    """Long inputs are solved block by block, for both chain maps."""

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_matches_sliced_evaluation(self, n):
        sys_ = bd.MassChainSystem(3)
        s = bd.sample_grid(2e-2, 1e6, n)  # no point lands on the resonance omega = 1
        for tf in CHAIN_MAPS:
            assert np.array_equal(tf(sys_, s), sliced(partial(tf, sys_), s))

    def test_exact_resonance_in_third_block_raises_there(self):
        s = np.full(3 * BLOCK, 2.0j)
        s[2 * BLOCK + 7] = 1j  # an eigenfrequency of the unit 3-mass chain
        with pytest.raises(PoleEvaluationError) as exc:
            bd.forward_tf(bd.MassChainSystem(3), s)
        assert exc.value.point == 1j

    @pytest.mark.parametrize("tf", CHAIN_MAPS, ids=["forward", "inverse"])
    @pytest.mark.parametrize("point", NONFINITE_POINTS)
    def test_nonfinite_point_rejected(self, tf, point):
        sys_ = bd.MassChainSystem(2)
        with pytest.raises(ValueError, match="finite"):
            tf(sys_, point)
        s = np.full(3 * BLOCK, 2.0j)
        s[2 * BLOCK + 7] = point
        with pytest.raises(ValueError, match="finite"):
            tf(sys_, s)

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0), (2, BLOCK + 1)])
    def test_shape_kept(self, shape):
        sys_ = bd.MassChainSystem(2)
        s = np.full(shape, 0.5j)
        for tf in CHAIN_MAPS:
            out = tf(sys_, s)
            if shape == ():
                assert isinstance(out, complex)
            else:
                assert out.shape == shape
                assert np.array_equal(out, tf(sys_, s.ravel()).reshape(shape))

    def test_peak_memory_is_output_plus_blocks(self):
        s = bd.sample_grid(1e-2, 1e6, 32 * BLOCK)
        out_bytes = s.size * np.dtype(complex).itemsize
        for tf in CHAIN_MAPS:
            peak = traced_peak(tf, bd.MassChainSystem(3), s)
            assert peak < out_bytes + BLOCK_SCRATCH_BYTES, tf.__name__


class TestInverseTf:
    def test_reciprocal_values(self):
        sys_ = bd.MassChainSystem(2)
        assert bd.inverse_tf(sys_, 1.0) == pytest.approx(3.0, rel=1e-12)
        assert bd.inverse_tf(sys_, 1j) == pytest.approx(-1.0, rel=1e-12)

    def test_reciprocity_identity(self):
        sys_ = bd.MassChainSystem(3)
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = rng.uniform(0.1, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            prod = bd.forward_tf(sys_, s) * bd.inverse_tf(sys_, s)
            assert abs(prod - 1.0) <= 1e-13

    def test_underflowed_forward_raises(self):
        # far enough out the forward map underflows to exactly zero
        with pytest.raises(ValueError, match=re.escape("s = (1e+81+0j) is beyond the double")):
            bd.inverse_tf(bd.MassChainSystem(2), 1e81)

    def test_scalar_matches_array_bitwise(self):
        # an off-axis point where Python's complex division and numpy's
        # differ in the last bit
        sys_ = bd.MassChainSystem(3)
        s = 2.46 + 2.75j
        assert bd.inverse_tf(sys_, s) == bd.inverse_tf(sys_, np.array([s]))[0]


class TestChainRecurrence:
    """The minor recurrence against the dense state-space form it replaces."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_dense_solve(self, n):
        rng = np.random.default_rng(100 + n)
        sys_ = bd.MassChainSystem(n, masses=rng.uniform(0.5, 2, n),
                                  springs=rng.uniform(0.5, 2, n - 1))
        M, A, B, C = bd.chain_matrices(sys_)
        # off the imaginary axis, away from every resonance
        s = rng.uniform(0.1, 10, 200) * np.exp(1j * rng.uniform(-np.pi, np.pi, 200))
        s = s[np.abs(s.real) > 1e-2]
        dense = np.array([(C @ np.linalg.solve(si**2 * M - A, B))[0, 0] for si in s])
        got = bd.forward_tf(sys_, s)
        assert np.max(np.abs(got - dense) / np.abs(dense)) <= 1e-11

    def test_unit_two_mass_closed_form_on_sweep(self):
        s = bd.sample_grid(1e-2, 1e6, 10**4)
        closed = 1.0 / (s**2 * (s**2 + 2.0))
        got = bd.forward_tf(bd.MassChainSystem(2), s)
        assert np.max(np.abs(got - closed) / np.abs(closed)) <= 1e-11

    @pytest.mark.parametrize("n", [2, 3])
    def test_far_point_underflows_to_zero_quietly(self, n):
        # the minors overflow at 1e81 (to inf + nan*i for three masses)
        sys_ = bd.MassChainSystem(n)
        s = np.array([0.5j, 1e81, 2j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = bd.forward_tf(sys_, s)
        assert out[1] == 0.0
        assert out[0] == bd.forward_tf(sys_, 0.5j)
        assert out[2] == bd.forward_tf(sys_, 2j)
        with pytest.raises(ValueError, match=re.escape("s = (1e+81+0j) is beyond")):
            bd.inverse_tf(sys_, s)


class TestSampleGrid:
    def test_log_decades(self):
        g = bd.sample_grid(1.0, 100.0, 3)
        assert np.allclose(g, [1j, 10j, 100j], rtol=1e-15)

    def test_linear_endpoints(self):
        assert np.array_equal(bd.sample_grid(1.0, 2.0, 2, "linear"), [1j, 2j])

    def test_default_log_200(self):
        g = bd.sample_grid(1e-2, 1.0, 200)
        assert g.size == 200
        assert g[0] == 1e-2 * 1j and g[-1] == 1j

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            bd.sample_grid(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            bd.sample_grid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            bd.sample_grid(1.0, 2.0, 1)
        with pytest.raises(ValueError):
            bd.sample_grid(1.0, 2.0, 5, "cubic")

    @pytest.mark.parametrize("wmin, wmax", [(1e-2, np.inf), (np.nan, 1.0), (1e-2, np.nan)])
    def test_nonfinite_bounds_rejected(self, wmin, wmax):
        with pytest.raises(ValueError, match="omega_max < inf"):
            bd.sample_grid(wmin, wmax, 4)


class TestAddNoise:
    def test_zero_level_identity(self):
        vals = np.array([1 + 2j, 3.0, -1j])
        assert np.array_equal(bd.add_noise(vals, 0.0, seed=1), vals)

    def test_relative_bound(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=200) + 1j * rng.normal(size=200)
        for level in (1e-6, 1e-2):
            noisy = bd.add_noise(vals, level, seed=3)
            assert np.all(np.abs(noisy / vals - 1.0) <= level * (1 + 1e-12))

    def test_seed_determinism(self):
        vals = np.linspace(1, 2, 50) * (1 + 1j)
        a = bd.add_noise(vals, 1e-6, seed=42)
        b = bd.add_noise(vals, 1e-6, seed=42)
        assert np.array_equal(a, b)
        c = bd.add_noise(vals, 1e-6, seed=43)
        assert not np.array_equal(a, c)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            bd.add_noise([1.0], -1e-3, seed=0)

    @pytest.mark.parametrize("level", [np.nan, np.inf])
    def test_nan_or_infinite_level_rejected(self, level):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            bd.add_noise([1.0], level, seed=0)

    @pytest.mark.parametrize("level", [-1e-3, np.nan, np.inf])
    def test_mass_chain_samples_checks_its_noise(self, level):
        # a bad level is rejected, not skipped as if it were 0
        with pytest.raises(ValueError, match="nonnegative"):
            bd.mass_chain_samples(2, noise=level)


class TestSampleFiles:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=3) + 1j * rng.normal(size=3)
        vals = rng.normal(size=3) * 1e-7 + 1j * rng.normal(size=3) * 1e12
        ss = bd.SampleSet(pts, vals)
        path = tmp_path / "samples.csv"
        bd.save_samples(ss, path)
        back = bd.load_samples(path)
        assert np.array_equal(back.points, ss.points)
        assert np.array_equal(back.values, ss.values)

    def test_rows_match_per_point_formatting(self, tmp_path):
        edge = [-0.0, 5e-324, 1e-310, 1e22, 1.7976931348623157e308, -1 / 3]
        pts = [complex(a, b) for a, b in zip(edge, np.roll(edge, 1))]
        vals = [complex(a, b) for a, b in zip(np.roll(edge, 2), np.roll(edge, 3))]
        ss = bd.SampleSet(pts, vals)
        path = tmp_path / "edge.csv"
        bd.save_samples(ss, path)
        expected = CSV_HEADER + "\n" + "".join(
            f"{s.real:.17g},{s.imag:.17g},{f.real:.17g},{f.imag:.17g}\n"
            for s, f in zip(ss.points, ss.values))
        assert path.read_text(encoding="utf-8") == expected
        back = bd.load_samples(path)
        assert np.array_equal(back.points.view(np.uint64), ss.points.view(np.uint64))
        assert np.array_equal(back.values.view(np.uint64), ss.values.view(np.uint64))

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(f"# generated for a test\n{CSV_HEADER}\n# mid comment\n0,1,2,3\n")
        ss = bd.load_samples(path)
        assert ss.points[0] == 1j and ss.values[0] == 2 + 3j

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(f"{CSV_HEADER}\n0,1,2,3\n0,1,4,5\n")
        with pytest.raises(ValueError, match="distinct"):
            bd.load_samples(path)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{CSV_HEADER}\n0,1,2,3\n0,2,x,3\n")
        with pytest.raises(ValueError, match="line 3"):
            bd.load_samples(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text(f"{CSV_HEADER}\n0,1,2\n")
        with pytest.raises(ValueError, match="line 2"):
            bd.load_samples(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("0,1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            bd.load_samples(path)
        # a file of comments and blank lines ends before any header
        path.write_text("# comments only\n\n# no header\n")
        with pytest.raises(ValueError, match="missing header row"):
            bd.load_samples(path)

    def test_header_only_names_the_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(f"# no rows\n{CSV_HEADER}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no sample rows$"):
            bd.load_samples(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            bd.load_samples(tmp_path / "nope.csv")
