import numpy as np
import pytest

from barydeg.util import BLOCK, blockwise, error_scale, relative_errors

from conftest import traced_peak


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
