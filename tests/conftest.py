"""Shared test helpers: benchmark sample sets, exact-type model builders,
memory and blockwise-evaluation checks."""

import tracemalloc

import numpy as np
import pytest

import barydeg as bd
from barydeg.core import nullspace_basis, vandermonde
from barydeg.util import BLOCK

# Input lengths around the evaluators' block boundaries.
BLOCK_LENGTHS = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]

# Points every evaluator must reject with ValueError.
NONFINITE_POINTS = [np.nan, np.inf, -np.inf, complex(np.nan, 1.0), complex(1.0, np.inf)]

# Scratch an evaluator may hold beyond its output, whatever the input
# length: 32 complex vectors of one block, room for a block x terms
# Cauchy matrix or the block's Horner and linear-solve temporaries.
BLOCK_SCRATCH_BYTES = 32 * BLOCK * np.dtype(complex).itemsize

# Upper band edge per chain size.  The 3-mass chain has an exact resonance
# at omega = 1 (an eigenvalue of its stiffness matrix), which a log grid
# ending at 1.0 hits bitwise; the band is extended past it so the resonant
# peak is sampled instead.
CHAIN_WMAX = {2: 1.0, 3: 1.3}


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sliced(fn, s):
    """``fn`` called on each ``BLOCK``-point slice of ``s`` alone, joined.

    Each call is one block of the evaluator.  The reference is per
    block, not per point: a one-point call uses numpy's dot product
    instead of its matrix-vector product and may differ in the last bit.
    """
    return np.concatenate([fn(s[i:i + BLOCK]) for i in range(0, s.size, BLOCK)])


def chain_samples(n, forward=True, noise=0.0, seed=0, count=200):
    return bd.mass_chain_samples(
        n, forward=forward, omega_min=1e-2, omega_max=CHAIN_WMAX[n],
        count=count, noise=noise, seed=seed,
    )


@pytest.fixture(scope="session")
def fwd2_samples():
    return chain_samples(2, forward=True)


@pytest.fixture(scope="session")
def inv2_samples():
    return chain_samples(2, forward=False)


@pytest.fixture(scope="session")
def fwd3_samples():
    return chain_samples(3, forward=True)


def inverse_decay_samples(wmin=0.1, wmax=10.0, count=50):
    """Samples of f(s) = 1/s on the imaginary axis."""
    pts = bd.sample_grid(wmin, wmax, count)
    return bd.SampleSet(pts, 1.0 / pts)


def distinct_unit_disc_points(rng, count, min_sep=1e-3):
    """Random pairwise well-separated complex points in the unit disc."""
    while True:
        pts = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
        pts /= max(1.0, np.max(np.abs(pts)))
        if count == 1:
            return pts
        diff = np.abs(pts[:, None] - pts[None, :]) + np.eye(count)
        if diff.min() > min_sep:
            return pts


def exact_type_model(rng, m, mu, nu, max_tries=50):
    """Interpolatory model whose exact rational type is (m - mu, m - nu).

    The denominator weights are drawn from the null space of the order-nu
    Vandermonde block and the numerator coefficients from the order-mu
    block, so the leading power sums vanish exactly up to the requested
    defects; the construction is retried until the defect-order sums are
    comfortably nonzero (so the target type is exact, not accidental).
    """
    assert 0 <= mu <= m and 0 <= nu <= m
    for _ in range(max_tries):
        supports = distinct_unit_disc_points(rng, m + 1, min_sep=5e-2)
        shat = bd.core.support_scale(supports)
        z = supports / shat
        V_nu = vandermonde(supports, nu)
        V_mu = vandermonde(supports, mu)
        w = nullspace_basis(V_nu) @ _unit_vector(rng, m + 1 - nu)
        u = nullspace_basis(V_mu) @ _unit_vector(rng, m + 1 - mu)
        if np.min(np.abs(w)) < 1e-3:
            continue
        if not (_significant(u, z, mu) and _significant(w, z, nu)):
            continue
        values = u / w
        return bd.BarycentricModel.from_weights(supports, values, w)
    raise RuntimeError("could not build a well-conditioned exact-type model")


def _unit_vector(rng, k):
    v = rng.normal(size=k) + 1j * rng.normal(size=k)
    return v / np.linalg.norm(v)


def _significant(coeffs, z, order, floor=1e-4):
    zl = z**order
    return abs(np.sum(coeffs * zl)) > floor * np.sum(np.abs(coeffs * zl))
