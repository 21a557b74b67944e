import numpy as np
import pytest

import barydeg as bd
from barydeg.asymptotic import AsymptoticModel, cutoff_radius, moments
from barydeg.core import vandermonde
from barydeg.identify import CandidateRecord
from barydeg.util import BLOCK, blockwise, error_scale, relative_errors

from conftest import inverse_decay_samples, traced_peak


def floored_errors(values, approx):
    """|values - approx| / max(|values|, floor), the floor taken in one expression."""
    mag = np.abs(values)
    floor = max(1e-300 * float(np.max(mag, initial=0.0)), np.nextafter(0.0, 1.0))
    return np.abs(values - approx) / np.maximum(mag, floor)


@pytest.mark.parametrize("kind", ["random", "exact zeros", "all zero", "one value"])
def test_a_given_scale_gives_the_same_errors(kind):
    rng = np.random.default_rng(5)
    values = rng.normal(size=40) + 1j * rng.normal(size=40)
    if kind == "exact zeros":
        values[[0, 17, 39]] = 0.0
    elif kind == "all zero":
        values[:] = 0.0
    elif kind == "one value":
        values = values[:1]
    # against all-zero data the floor is the smallest subnormal: only tiny errors stay finite
    size = 1e-320 if kind == "all zero" else 1e-9
    approx = values + size * (rng.normal(size=values.size) + 1j * rng.normal(size=values.size))
    approx[-1] = values[-1]
    expected = floored_errors(values, approx)
    assert relative_errors(values, approx).tobytes() == expected.tobytes()
    assert relative_errors(values, approx, error_scale(values)).tobytes() == expected.tobytes()
    assert np.all(np.isfinite(expected))


class TestBlockwise:
    """``blockwise`` hands a kernel each slice and the matching slice of one output."""

    def test_each_slice_and_its_output_slice_in_order(self):
        s = np.arange(2 * BLOCK + 3) * (1 + 1j)
        calls = []

        def kernel(x, out):
            calls.append((x.copy(), out))
            out[:] = 2 * x

        result = blockwise(kernel, s)
        starts = range(0, s.size, BLOCK)
        assert len(calls) == len(starts)
        for start, (x, out) in zip(starts, calls):
            assert np.array_equal(x, s[start:start + BLOCK])
            # a view of the result itself, at the slice's offset
            assert np.shares_memory(out, result)
            offset = out.__array_interface__["data"][0] - result.__array_interface__["data"][0]
            assert offset == start * result.itemsize and out.size == x.size
        assert np.array_equal(result, 2 * s)

    def test_allocates_one_output(self):
        s = np.ones(32 * BLOCK, dtype=complex)
        out_bytes = s.size * s.itemsize

        def kernel(x, out):
            out[:] = x

        # the output and no second copy of it
        assert out_bytes <= traced_peak(blockwise, kernel, s) < out_bytes + BLOCK * s.itemsize

    def test_an_exception_stops_the_later_blocks(self):
        s = np.ones(4 * BLOCK, dtype=complex)
        ran = []

        def kernel(x, out):
            ran.append(len(ran))
            if len(ran) == 2:
                raise ArithmeticError("block 1")
            out[:] = x

        with pytest.raises(ArithmeticError, match="block 1"):
            blockwise(kernel, s)
        assert ran == [0, 1]

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0), (2, 5)])
    def test_shape_and_scalar_kept(self, shape):
        s = np.full(shape, 2j)
        result = blockwise(lambda x, out: np.multiply(x, 3, out=out), s)
        if shape == ():
            assert isinstance(result, complex) and result == 6j
        else:
            assert result.shape == shape and np.all(result == 6j)

    def test_nonfinite_point_raises_before_any_block(self):
        s = np.ones(3 * BLOCK, dtype=complex)
        s[-1] = np.nan
        ran = []
        with pytest.raises(ValueError, match="finite"):
            blockwise(lambda x, out: ran.append(x), s)
        assert not ran


def inverse_model():
    """The two-support representation of f(s) = 1/s."""
    return bd.BarycentricModel.from_weights([1.0, 2.0], [1.0, 0.5], [1.0, -2.0])


def asymptotic_with(**change):
    asym = moments(inverse_model(), 2)
    fields = {k: getattr(asym, k)
              for k in ("mu", "nu", "scale", "num_moments_scaled", "den_moments_scaled")}
    return AsymptoticModel(**{**fields, **change})


def piecewise_with(**change):
    pm = bd.make_piecewise(inverse_model(), inverse_decay_samples())
    return bd.PiecewiseModel(**{"bary": pm.bary, "train_T": pm.train_T,
                                "train_eps": pm.train_eps, **change})


def identify_with(max_abs_degree):
    def backend(*args, **kwargs):
        raise AssertionError("a fit ran before the settings were checked")
    return bd.identify(inverse_decay_samples(), backend, max_abs_degree=max_abs_degree)


INF, NAN = np.inf, np.nan
# (owner, argument, call with the value as that argument, whether it must be
# an integer, out-of-range or non-finite values)
NUMBERS = [
    *((config.__name__, name, call, whole, bad)
      for config in (bd.AaaConfig, bd.VfConfig)
      for name, call, whole, bad in (
          ("tol", lambda v, c=config: c(tol=v), False, [0.0, -1e-6, NAN, INF]),
          ("target_degree", lambda v, c=config: c(tol=1e-6, target_degree=v), True, []),
          ("max_terms", lambda v, c=config: c(tol=1e-6, max_terms=v), True, [0, -1]))),
    *((make.__name__, name, call, whole, bad)
      for make in (bd.aaa_backend, bd.vf_backend)
      for name, call, whole, bad in (
          ("tol", lambda v, m=make: m(tol=v), False, [0.0, NAN, INF]),
          ("max_terms", lambda v, m=make: m(tol=1e-6, max_terms=v), True, [0]))),
    ("identify", "max_abs_degree", identify_with, True, [0, -1]),
    ("CandidateRecord", "terms", lambda v: CandidateRecord(
        degree=0, terms=v, linf_rel_error=0.0, converged=True, model=None), True, [0]),
    ("moments", "order", lambda v: moments(inverse_model(), v), True, [-1]),
    ("cutoff_radius", "T", lambda v: cutoff_radius(v, 1e-6, -4, 10), False, [0.0, NAN, INF]),
    ("cutoff_radius", "eps", lambda v: cutoff_radius(1.0, v, -4, 10), False, [-1e-3, NAN, INF]),
    ("cutoff_radius", "rdeg", lambda v: cutoff_radius(1.0, 1e-6, v, 10), True, []),
    ("cutoff_radius", "order", lambda v: cutoff_radius(1.0, 1e-6, -4, v), True, [-1]),
    ("PiecewiseModel", "train_T", lambda v: piecewise_with(train_T=v), False, [0.0, NAN, INF]),
    ("PiecewiseModel", "train_eps", lambda v: piecewise_with(train_eps=v), False, [0.0, NAN]),
    ("AsymptoticModel", "mu", lambda v: asymptotic_with(mu=v), True, [-1]),
    ("AsymptoticModel", "nu", lambda v: asymptotic_with(nu=v), True, [-1]),
    ("AsymptoticModel", "scale", lambda v: asymptotic_with(scale=v), False, [0.0, NAN, INF]),
    ("MassChainSystem", "n", bd.MassChainSystem, True, [1, 0]),
    ("sample_grid", "omega_min", lambda v: bd.sample_grid(v, 1.0, 5), False, [0.0, NAN, 1.0]),
    ("sample_grid", "omega_max", lambda v: bd.sample_grid(1e-2, v, 5), False, [1e-2, NAN, INF]),
    ("sample_grid", "count", lambda v: bd.sample_grid(1e-2, 1.0, v), True, [1, 0]),
    ("vandermonde", "cols", lambda v: vandermonde([1.0, 2.0], v), True, [-1]),
    ("add_noise", "level", lambda v: bd.add_noise([1.0], v, seed=0), False, [-1e-3, NAN, INF]),
    ("add_noise", "seed", lambda v: bd.add_noise([1.0], 1e-6, seed=v), False, []),
    ("mass_chain_samples", "noise",
     lambda v: bd.mass_chain_samples(2, count=5, noise=v), False, [-1e-3, NAN, INF]),
    # a bool seed is rejected at the default noise of 0 too
    ("mass_chain_samples", "seed", lambda v: bd.mass_chain_samples(2, count=5, seed=v), False, []),
]


def number_cases(select):
    return [pytest.param(name, call, value,
                         id=f"{owner}.{name}-{'numpy.True_' if value is np.True_ else value}")
            for owner, name, call, whole, bad in NUMBERS
            for value in select(whole, bad)]


@pytest.mark.parametrize("name, call, value",
                         number_cases(lambda whole, bad: [True, np.True_]))
def test_a_bool_is_not_a_number(name, call, value):
    with pytest.raises(TypeError, match=rf"\b{name}\b.*not a bool"):
        call(value)


@pytest.mark.parametrize("name, call, value",
                         number_cases(lambda whole, bad: [2.5] if whole else []))
def test_a_non_integer_is_not_truncated(name, call, value):
    with pytest.raises(TypeError, match=rf"\b{name}\b.*cannot be interpreted as an integer"):
        call(value)


@pytest.mark.parametrize("name, call, value", number_cases(lambda whole, bad: bad))
def test_an_out_of_range_value_names_its_argument(name, call, value):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(value)
