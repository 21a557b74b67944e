import numpy as np
import pytest

from barydeg.util import error_scale, relative_errors


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
