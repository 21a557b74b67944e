"""Mass-chain benchmark systems, sampling grids, noise, and sample-file I/O.

The benchmark is a frictionless chain of n >= 2 point masses coupled by
springs, driven by a force on the last mass and observed at the position of
the first.  The force-to-position map has relative degree -2n; the inverted
position-to-force map has relative degree +2n.

The references :func:`forward_tf` and :func:`inverse_tf` need no matrix
solve: the stiffness form s^2 M - A is tridiagonal, so the map is the
product of the springs over its determinant, which the three-term
recurrence of the leading principal minors gives in O(n) vector operations
per block of points.  Against a 50-digit evaluation on 4 000 points of
i[1e-2, 1e6] its worst relative error is 6.6e-13 (2 masses) and 3.3e-12
(3 masses, at the resonance), as for the dense solve it replaced.  Far out,
where the minors overflow (|s| near 1e81 for two masses), the forward map
is exactly 0.  :func:`chain_matrices` gives the dense state-space form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import SampleSet
from .errors import PoleEvaluationError
from .util import blockwise, integer, not_bool, real, write_rows

CSV_HEADER = "s_re,s_im,f_re,f_im"


@dataclass(frozen=True, eq=False)
class MassChainSystem:
    """Chain of n masses with n-1 springs."""

    n: int
    masses: np.ndarray = None
    springs: np.ndarray = None

    def __post_init__(self):
        integer(self.n, "n", 2)
        masses = np.ones(self.n) if self.masses is None else np.asarray(self.masses, float)
        springs = np.ones(self.n - 1) if self.springs is None else np.asarray(self.springs, float)
        if masses.size != self.n:
            raise ValueError("need one mass per node")
        if springs.size != self.n - 1:
            raise ValueError("need n-1 springs")
        if not (np.all(masses > 0) and np.all(springs > 0)):
            raise ValueError("masses and spring constants must be positive")
        for name, arr in (("masses", masses), ("springs", springs)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def chain_matrices(sys):
    """State matrices (M, A, B, C) of the second-order chain model.

    M is the diagonal mass matrix, A the symmetric tridiagonal stiffness
    matrix with zero row sums, B selects the forced (last) mass and C reads
    the first mass's position.
    """
    n, k = sys.n, sys.springs
    M = np.diag(sys.masses)
    A = np.zeros((n, n))
    for j in range(n - 1):
        A[j, j] -= k[j]
        A[j + 1, j + 1] -= k[j]
        A[j, j + 1] += k[j]
        A[j + 1, j] += k[j]
    B = np.zeros((n, 1))
    B[n - 1, 0] = 1.0
    C = np.zeros((1, n))
    C[0, 0] = 1.0
    return M, A, B, C


def forward_tf(sys, s):
    """Force-to-position transfer function C (s^2 M - A)^{-1} B.

    Accepts scalar or array ``s``; raises at exact resonances where the
    system matrix is singular.
    """
    return blockwise(_chain_solver(sys), s)


def inverse_tf(sys, s):
    """Position-to-force map, 1 / :func:`forward_tf`; ``ValueError`` where that is 0."""
    forward = _chain_solver(sys)

    def block(x, out):
        forward(x, out)
        if not out.all():
            si = x[np.argmax(out == 0)]
            raise ValueError(f"s = {si} is beyond the double range of the forward map")
        np.divide(1.0, out, out=out)

    return blockwise(block, s)


def _chain_solver(sys):
    """Block kernel for :func:`blockwise`: the forward map at ``x``, written into ``out``.

    K(s) = s^2 M - A is tridiagonal with off-diagonal -k_j, so the map is
    (K^-1)_{1n} = prod(k) / theta_n, where theta_j is the leading principal
    minor of order j:

        theta_0 = 1,  theta_1 = s^2 m_1 + k_1,
        theta_j = (s^2 m_j + (k_{j-1} + k_j)) theta_{j-1} - k_{j-1}^2 theta_{j-2},

    with k_n = 0.  That is O(n) vector operations per block.  A non-finite
    theta_n means the map underflowed there, so it is exactly 0.
    """
    m = [float(v) for v in sys.masses]
    k = [float(v) for v in sys.springs] + [0.0]
    gain = float(np.prod(sys.springs))

    def block(x, out):
        with np.errstate(over="ignore", invalid="ignore"):
            s2 = x * x
            prev, theta = 1.0, s2 * m[0] + k[0]
            for j in range(1, sys.n):
                prev, theta = theta, ((s2 * m[j] + (k[j - 1] + k[j])) * theta
                                      - (k[j - 1] * k[j - 1]) * prev)
        if not theta.all():
            si = x[np.flatnonzero(theta == 0)[0]]
            raise PoleEvaluationError(f"system matrix singular at {si}", point=si)
        out.fill(0.0)
        np.divide(gain, theta, out=out, where=np.isfinite(theta))

    return block


def sample_grid(omega_min, omega_max, count, spacing="log"):
    """Points i*omega on the positive imaginary axis, endpoints included."""
    real(omega_min, "omega_min")
    real(omega_max, "omega_max")
    if not 0 < omega_min < omega_max < np.inf:
        raise ValueError("need 0 < omega_min < omega_max < inf")
    integer(count, "count", 2)
    if spacing == "log":
        omega = np.geomspace(omega_min, omega_max, count)
    elif spacing == "linear":
        omega = np.linspace(omega_min, omega_max, count)
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    return 1j * omega


def add_noise(values, level, seed):
    """Multiplicative uniform noise: value * (1 + level * xi), xi ~ U[-1, 1]."""
    if not 0 <= real(level, "level") < np.inf:
        raise ValueError("noise level must be finite and nonnegative")
    values = np.asarray(values, dtype=complex)
    xi = np.random.default_rng(not_bool(seed, "seed")).uniform(-1.0, 1.0, values.size)
    return values * (1.0 + level * xi.reshape(values.shape))


def mass_chain_samples(n, forward=True, omega_min=1e-2, omega_max=1.0, count=200,
                       spacing="log", noise=0.0, seed=0):
    """Convenience: sample a mass-chain transfer function on a frequency grid."""
    # checked here, not left to add_noise, so the errors name these arguments
    # and a bool seed fails at noise 0 too
    not_bool(seed, "seed")
    if not 0 <= real(noise, "noise") < np.inf:
        raise ValueError("noise level must be finite and nonnegative")
    sys = MassChainSystem(n)
    pts = sample_grid(omega_min, omega_max, count, spacing)
    vals = forward_tf(sys, pts) if forward else inverse_tf(sys, pts)
    if noise:
        vals = add_noise(vals, noise, seed)
    return SampleSet(pts, vals)


def save_samples(samples, path):
    """Write a sample set as CSV with full decimal precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        s, f = samples.points, samples.values
        write_rows(fh, "%.17g,%.17g,%.17g,%.17g\n", (s.real, s.imag, f.real, f.imag))


def load_samples(path):
    """Read a sample set written by :func:`save_samples`.

    Lines starting with ``#`` are ignored; the header row and at least one
    sample row are required.  Malformed rows (a wrong field count, a
    non-numeric or non-finite field) raise with the offending line number;
    repeated points raise naming the file.
    """
    points, values = [], []
    header_seen = False
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line.replace(" ", "") != CSV_HEADER:
                    raise ValueError(
                        f"{path}: line {lineno}: expected header {CSV_HEADER!r}, got {line!r}"
                    )
                header_seen = True
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 fields, got {len(fields)}")
            try:
                s_re, s_im, f_re, f_im = row = [float(x) for x in fields]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric field in {line!r}") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}: line {lineno}: non-finite field in {line!r}")
            points.append(complex(s_re, s_im))
            values.append(complex(f_re, f_im))
    if not header_seen:
        raise ValueError(f"{path}: missing header row")
    if not points:
        raise ValueError(f"{path}: no sample rows")
    try:
        return SampleSet(points, values)
    except ValueError as err:
        # the rows are finite, so what is left is a repeated point
        raise ValueError(f"{path}: {err}") from None
