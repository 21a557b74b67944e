"""The benchmark's workloads, built only from public barydeg functions.

A workload turns a seed into a fixed list of operations.  Running an
operation makes one public call, the part that is timed; its check then
compares the output with reference values computed during set-up.  The
functions are looked up on the package at call time (``bd.identify``), so
the traced run can wrap them.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import barydeg as bd
from barydeg import cli

# Upper band edge per chain size.  The 3-mass chain resonates exactly at
# omega = 1, so its band runs past the resonance instead of ending on it.
BAND = {2: 1.0, 3: 1.3}
OMEGA_MIN = 1e-2


@dataclass
class Outcome:
    """Result of checking one operation's output.

    ``ok`` is the output check, ``hit`` whether the output carries the true
    relative degree, ``err`` the worst relative error against the reference.
    """

    ok: bool
    hit: bool
    err: float
    detail: str = ""


FAILED = Outcome(ok=False, hit=False, err=math.inf, detail="raised")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Built:
    """A workload ready to run: its operations and the set-up checks."""

    ops: list
    setup_checks: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (seed, workdir) -> Built
    throughput_name: str  # what the wall-clock ops/s is called for this workload
    kernel: Callable[[], None]  # speed-calibration kernel, see below
    kernel_ref_s: float  # its time on the reference host when that is quiet
    points_per_op: int = 0  # >0: throughput is also shown in Mpts/s


def true_degree(n, forward):
    return -2 * n if forward else 2 * n


def chain_tf(n, forward, s):
    """Exact response of the n-mass chain (or its inverse) at ``s``."""
    chain = bd.MassChainSystem(n)
    return bd.forward_tf(chain, s) if forward else bd.inverse_tf(chain, s)


def chain_tag(n, forward):
    return f"{'fwd' if forward else 'inv'}{n}"


def max_rel_err(approx, exact):
    with np.errstate(invalid="ignore"):
        rel = np.abs(approx - exact) / np.abs(exact)
    return float(np.max(np.where(np.isnan(rel), np.inf, rel)))


def identify_op(label, samples, exact, backend, tol, degree):
    """Identify the degree of ``samples``; the winner must converge within tol."""

    def run():
        return bd.identify(samples, backend)

    def check(result):
        best = result.best
        if result.piecewise is None:
            return Outcome(False, False, math.inf, "no converged candidate")
        err = max_rel_err(bd.eval_piecewise(result.piecewise, samples.points), exact)
        ok = bool(best.converged and best.linf_rel_error <= tol)
        detail = f"degree {result.best_degree}, winner error {best.linf_rel_error:.3g}"
        return Outcome(ok, result.best_degree == degree, err, detail)

    return Op(label, run, check)


# --- aaa-identify -----------------------------------------------------------

AAA_M = 1000
# (masses, forward, tol): the inverted 3-mass chain needs acceptance
# criterion 2's tighter tolerance, at 1e-6 it identifies degree 0.
AAA_CASES = [(2, True, 1e-6), (3, True, 1e-6), (2, False, 1e-6), (3, False, 1e-7)]


def build_aaa_identify(seed, workdir):
    """Noiseless chains, so the seed does not change the inputs."""
    ops = []
    for n, forward, tol in AAA_CASES:
        samples = bd.mass_chain_samples(n, forward=forward, omega_min=OMEGA_MIN,
                                        omega_max=BAND[n], count=AAA_M)
        exact = chain_tf(n, forward, samples.points)
        ops.append(identify_op(chain_tag(n, forward), samples, exact,
                               bd.aaa_backend(tol=tol), tol, true_degree(n, forward)))
    return Built(ops)


# --- vf-noisy ----------------------------------------------------------------

VF_M = 200
VF_TOL = 1e-4
VF_NOISE = 1e-6
VF_REALISATIONS = 30
VF_CASES = [(2, True), (2, False), (3, True)]


def build_vf_noisy(seed, workdir):
    """Each case gets VF_REALISATIONS noise draws seeded from ``seed``."""
    noise_seeds = np.random.default_rng(seed).integers(2**63, size=(len(VF_CASES), VF_REALISATIONS))
    ops = []
    for (n, forward), case_seeds in zip(VF_CASES, noise_seeds):
        exact = chain_tf(n, forward, bd.sample_grid(OMEGA_MIN, BAND[n], VF_M))
        for r, noise_seed in enumerate(case_seeds):
            samples = bd.mass_chain_samples(n, forward=forward, omega_min=OMEGA_MIN,
                                            omega_max=BAND[n], count=VF_M,
                                            noise=VF_NOISE, seed=int(noise_seed))
            ops.append(identify_op(f"{chain_tag(n, forward)}#{r}", samples, exact,
                                   bd.vf_backend(tol=VF_TOL), VF_TOL, true_degree(n, forward)))
    return Built(ops)


# --- extrapolate -------------------------------------------------------------

EXT_M = 200
EXT_TOL = 1e-6
EXT_POINTS = 10**6
EXT_OMEGA_MAX = 1e6
EXT_CHAINS = [(2, True), (3, True), (2, False), (3, False)]


def _samples_round_trip(samples, path):
    bd.save_samples(samples, path)
    loaded = bd.load_samples(path)
    ok = (np.array_equal(loaded.points, samples.points)
          and np.array_equal(loaded.values, samples.values))
    return loaded, Outcome(ok, True, 0.0, f"sample file {path.name}")


def _model_round_trip(pm, path):
    doc = cli.model_to_json(pm)
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = cli.model_from_json(json.loads(path.read_text(encoding="utf-8")))
    ok = cli.model_to_json(loaded) == doc
    return loaded, Outcome(ok, True, 0.0, f"model file {path.name}")


def build_extrapolate(seed, workdir):
    """Fit each chain at its true degree, round-trip, then sweep far out.

    Noiseless data, so the seed does not change the inputs.
    """
    sweep = bd.sample_grid(OMEGA_MIN, EXT_OMEGA_MAX, EXT_POINTS)
    ops, checks = [], []
    for n, forward in EXT_CHAINS:
        tag, degree = chain_tag(n, forward), true_degree(n, forward)
        samples = bd.mass_chain_samples(n, forward=forward, omega_min=OMEGA_MIN,
                                        omega_max=BAND[n], count=EXT_M)
        samples, sample_check = _samples_round_trip(samples, workdir / f"{tag}.csv")
        model, report = bd.aaa(samples, bd.AaaConfig(tol=EXT_TOL, target_degree=degree))
        pm = bd.make_piecewise(model, samples)
        fit_check = Outcome(report.converged and pm.asym.rdeg == degree, True, 0.0,
                            f"{tag} fit: converged={report.converged}, rdeg={pm.asym.rdeg}")
        pm, model_check = _model_round_trip(pm, workdir / f"{tag}.json")
        checks += [sample_check, fit_check, model_check]
        exact = chain_tf(n, forward, sweep)

        def run(pm=pm):
            return bd.eval_piecewise(pm, sweep)

        def check(out, pm=pm, exact=exact, degree=degree):
            finite = bool(np.all(np.isfinite(out)))
            return Outcome(finite, pm.asym.rdeg == degree, max_rel_err(out, exact),
                           "" if finite else "non-finite output")

        ops.append(Op(tag, run, check))
    return Built(ops, checks)


# --- speed calibration ---------------------------------------------------
# The shared host's speed drifts by tens of percent from minute to minute.
# Before each timed operation the runner times a fixed numpy kernel that
# repeats the workload's own mix of work without any barydeg code, and scales
# the throughput by kernel time / kernel_ref_s.  Python-bound work (VF's many
# small fits) drifts most, and there the scaling cancels most of the drift.

_rng = np.random.default_rng(2410)
_SMALL = _rng.standard_normal((200, 24)) + 1j * _rng.standard_normal((200, 24))
_VALS = _rng.standard_normal(200) + 0j
_TALL = _rng.standard_normal((1000, 8)) + 1j * _rng.standard_normal((1000, 8))
_SWEEP = 1j * np.geomspace(1e-2, 1e6, 10**5)
_SUPPORTS = _rng.standard_normal(16) + 1j * _rng.standard_normal(16)


def kernel_vf():
    """Small Cauchy blocks, full SVDs and residuals in a Python loop."""
    for k in range(4, 24, 4):
        cauchy = 1.0 / (_SMALL[:, :k] + 3.0)
        _, _, vh = np.linalg.svd(_VALS[:, None] * cauchy, full_matrices=True)
        float(np.max(np.abs(cauchy @ vh[-1].conj() - _VALS)))


def kernel_aaa():
    """Full SVDs of a tall 1000 x 8 block, as in the weight solve at M = 1000.

    Four of them: one is too short a sample beside a 4-6 s operation.
    """
    for _ in range(4):
        np.linalg.svd(_TALL, full_matrices=True)


def kernel_extrapolate():
    """Cauchy-matrix evaluation of 10^5 points against 16 supports."""
    cauchy = 1.0 / (_SWEEP[:, None] - _SUPPORTS[None, :])
    (cauchy @ _SUPPORTS) / (cauchy @ np.conj(_SUPPORTS))


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in [
        Workload("aaa-identify", build_aaa_identify, "identify_per_s", kernel_aaa, 0.2),
        Workload("vf-noisy", build_vf_noisy, "identify_per_s", kernel_vf, 0.005),
        Workload("extrapolate", build_extrapolate, "eval_mpts_per_s", kernel_extrapolate,
                 0.025, EXT_POINTS),
    ]
}
