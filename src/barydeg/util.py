"""Small shared helpers: relative-error bookkeeping, point vectors and
blockwise evaluation."""

import numpy as np

# Relative errors at data points where f == 0 would divide by zero.  The
# guard is small enough to be inert for any nonzero value while keeping
# exact zeros from crashing the error computation.
_GUARD_FACTOR = 1e-300
_TINY = np.nextafter(0.0, 1.0)

# Evaluators work on at most this many points at a time, so their scratch
# memory is O(BLOCK * terms) whatever the input length.
BLOCK = 2**13


def resolve_zero_guard(values):
    """Return the floor used in relative-error denominators.

    The floor is ``1e-300 * max|values|``, clamped away from zero so
    all-zero data stays finite.
    """
    guard = _GUARD_FACTOR * float(np.max(np.abs(values), initial=0.0))
    return guard if guard > 0.0 else _TINY


def relative_errors(values, approx, zero_guard):
    """Pointwise |values - approx| / max(|values|, zero_guard)."""
    values = np.asarray(values)
    approx = np.asarray(approx)
    return np.abs(values - approx) / np.maximum(np.abs(values), zero_guard)


def as_point_vector(s):
    """Flatten scalar or array ``s`` to a 1-D complex vector.

    Returns ``(sv, restore)``: ``restore`` maps a result vector over ``sv``
    back to the shape of ``s``, as a Python complex when ``s`` is a scalar.
    """
    sv = np.atleast_1d(np.asarray(s, dtype=complex)).ravel()
    if np.ndim(s) == 0:
        return sv, lambda out: complex(out[0])
    shape = np.shape(s)
    return sv, lambda out: out.reshape(shape)


def blockwise(fn, sv):
    """``fn`` applied to consecutive slices of at most ``BLOCK`` points of ``sv``.

    ``fn`` maps a 1-D point vector to complex values of the same length.
    Up to ``BLOCK`` points it is called once on ``sv`` itself; longer inputs
    are written block by block into one preallocated complex output.
    """
    if sv.size <= BLOCK:
        return fn(sv)
    out = np.empty(sv.size, dtype=complex)
    for start in range(0, sv.size, BLOCK):
        out[start:start + BLOCK] = fn(sv[start:start + BLOCK])
    return out
