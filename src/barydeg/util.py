"""Small shared helpers: number checks, relative errors, blockwise evaluation, CSV rows.

Every number a caller passes in goes through one of four checks, which
name the argument in their errors: :func:`not_bool`, :func:`real` (no
bool, and a value that orders against a float, so not a string, a
complex or an array), :func:`integer` (no bool, no float standing in for
an integer, an optional minimum) and :func:`positive` (a real, finite and
positive).
"""

import operator

import numpy as np

# Relative errors at data points where f == 0 would divide by zero.  The
# floor is small enough to be inert for any nonzero value while keeping
# exact zeros from crashing the error computation.
_FLOOR_FACTOR = 1e-300
_TINY = np.nextafter(0.0, 1.0)

# Evaluators work on at most this many points at a time, so their scratch
# memory is O(BLOCK * terms) whatever the input length.
BLOCK = 2**13


def not_bool(value, name):
    """``value``, unless it is a bool: ``True`` is not the number 1 in a setting."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a number, not a bool")
    return value


def real(value, name):
    """``value``, if it is a real number: ``TypeError`` for a bool or a value that does not order.

    The range tests that follow it compare the value with numbers, so a
    string or ``None`` would fail there with a message that names no
    argument, and a numpy complex or array would pass.  A numpy scalar
    such as ``np.float64`` passes; nan passes too: it orders, and the range
    tests reject it.
    """
    not_bool(value, name)
    try:
        value < 0.0  # a value that does not order raises here
    except TypeError:
        pass
    else:
        # numpy orders its complex numbers, and an array element by element
        if not (np.iscomplexobj(value) or isinstance(value, np.ndarray)):
            return value
    raise TypeError(f"{name} must be a real number, not {type(value).__name__}")


def integer(value, name, minimum=None):
    """``value`` as an int, if it is one and is at least ``minimum`` (``None``: no minimum).

    A bool or a non-integer raises ``TypeError``: ``operator.index`` does
    the conversion, so 2.5 and 2.0 raise where ``int()`` would truncate
    them.  A value below ``minimum`` raises ``ValueError``.
    """
    not_bool(value, name)
    try:
        value = operator.index(value)
    except TypeError as exc:
        raise TypeError(f"{name}: {exc}") from None
    if minimum is not None and value < minimum:
        bound = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}")
    return value


def positive(value, name):
    """``value``, a :func:`real` number, if it is finite and positive (``ValueError`` otherwise)."""
    if not 0 < real(value, name) < np.inf:
        raise ValueError(f"{name} must be finite and positive")
    return value


def error_scale(values):
    """The denominators max(|values|, floor) of :func:`relative_errors`.

    The floor is ``1e-300 * max|values|``, clamped away from zero so
    all-zero data stays finite.
    """
    mag = np.abs(np.asarray(values))
    floor = max(_FLOOR_FACTOR * float(np.max(mag, initial=0.0)), _TINY)
    return np.maximum(mag, floor, out=mag)


def relative_errors(values, approx, scale=None):
    """Pointwise |values - approx| / max(|values|, floor).

    ``scale`` is ``error_scale(values)``, computed here when omitted; a
    caller that measures several approximations of the same values passes
    it once computed, with the same result bit for bit.
    """
    values = np.asarray(values)
    if scale is None:
        scale = error_scale(values)
    return np.abs(values - np.asarray(approx)) / scale


def blockwise(fn, s):
    """The block kernel ``fn`` run over the finite points of scalar or array ``s``.

    ``s`` is flattened to a complex vector; any non-finite point raises
    ``ValueError`` before ``fn`` runs.  One complex output is allocated, and
    ``fn(x, out)`` is called on each slice ``x`` of at most ``BLOCK`` points
    in order, with ``out`` the matching slice of the output, which ``fn``
    fills in place.  An exception from a block propagates and no later
    block runs.  The result has the shape of ``s``, or is a Python complex
    when ``s`` is a scalar.
    """
    sv = np.asarray(s, dtype=complex).ravel()
    # a complex value is finite exactly when both its parts are
    if not np.isfinite(sv.view(np.float64)).all():
        raise ValueError("evaluation points must be finite")
    out = np.empty(sv.size, dtype=complex)
    for start in range(0, sv.size, BLOCK):
        fn(sv[start:start + BLOCK], out[start:start + BLOCK])
    if np.ndim(s) == 0:
        return complex(out[0])
    return out.reshape(np.shape(s))


def write_rows(fh, row_format, columns):
    """Write ``row_format % row`` for each row of the equal-length ``columns``.

    Rows go out a ``BLOCK`` at a time from ``tolist()`` floats, which format
    faster than numpy scalars, so the lists' memory stays O(BLOCK).
    """
    for start in range(0, len(columns[0]), BLOCK):
        rows = zip(*(c[start:start + BLOCK].tolist() for c in columns))
        fh.writelines(row_format % row for row in rows)
