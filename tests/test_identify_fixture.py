"""The committed candidate tables of the benchmark and acceptance ``identify`` calls.

``tests/data/identify_fixture.json`` holds, for each call below, the
backend calls (requested degree, cap) in order, each candidate's effective
degree, terms, converged flag, cap and error, the winner's index among the
candidates and the ladder rung at which the winner's piecewise model
switches branch.  All of it but the errors must match exactly, whatever the
BLAS thread count.  Errors at rounding level move with the thread count, so
they are compared to 1e-2 relative, and only where they exceed 1e-6.

A change that alters fits on purpose rewrites the fixture, and lists the
rows that changed::

    PYTHONPATH=src python tests/test_identify_fixture.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

import barydeg as bd
from barydeg.asymptotic import _ladder

from conftest import chain_samples, inverse_decay_samples

FIXTURE = Path(__file__).parent / "data" / "identify_fixture.json"

# errors at or below this are rounding-level and are not compared
ERROR_FLOOR = 1e-6


def tag(n, forward):
    return f"{'fwd' if forward else 'inv'}{n}"


def calls():
    """``(name, samples, backend)`` for each fixture call, in order."""
    # the aaa-identify benchmark: noiseless chains at M = 1000
    for n, forward, tol in ((2, True, 1e-6), (3, True, 1e-6), (2, False, 1e-6), (3, False, 1e-7)):
        yield f"aaa-identify/{tag(n, forward)}", chain_samples(n, forward, count=1000), \
            bd.aaa_backend(tol=tol)
    # the vf-noisy benchmark at seed 0: 30 noise draws per chain, M = 200
    noise_seeds = np.random.default_rng(0).integers(2**63, size=(3, 30))
    for (n, forward), seeds in zip(((2, True), (2, False), (3, True)), noise_seeds):
        for r, seed in enumerate(seeds):
            yield f"vf-noisy/{tag(n, forward)}#{r}", \
                chain_samples(n, forward, noise=1e-6, seed=int(seed)), bd.vf_backend(tol=1e-4)
    # acceptance criteria 1, 2, 3 and 5 (tests/test_acceptance.py), noise seed 1
    for n, forward in ((2, True), (3, True), (2, False), (3, False)):
        yield f"criterion-1/{tag(n, forward)}", chain_samples(n, forward, seed=1), \
            bd.aaa_backend(tol=1e-6)
    yield "criterion-2/inv3", chain_samples(3, False, seed=1), bd.aaa_backend(tol=1e-7)
    for n, forward in ((2, True), (2, False), (3, True)):
        yield f"criterion-3/{tag(n, forward)}", chain_samples(n, forward, noise=1e-6, seed=1), \
            bd.vf_backend(tol=1e-4)
    yield "criterion-5/inverse-decay", inverse_decay_samples(), bd.aaa_backend(tol=1e-8)


def switch_rung(pm):
    """The ladder ratio at which ``pm`` switches branch; ``"cutoff"`` when no rung below it does."""
    estimates = pm._far_side[1](pm.cutoff)
    return next((ratio for ratio, (_, e_far, e_bary) in zip(_ladder(), estimates)
                 if e_far <= e_bary), "cutoff")


def row(samples, backend):
    """One fixture row: what ``identify`` asked the backend for and what it kept."""
    requested = []

    def recorded(samples, degree, max_terms=None, record=None):
        requested.append([degree, max_terms])
        return backend(samples, degree, max_terms=max_terms, record=record)

    result = bd.identify(samples, recorded)
    return {
        "calls": requested,
        "candidates": [[c.degree, c.terms, c.converged, c.max_terms, c.linf_rel_error]
                       for c in result.candidates],
        "winner": result.candidates.index(result.best),
        "switch_rung": None if result.piecewise is None else switch_rung(result.piecewise),
    }


def matches(got, want):
    """Equal structure, and errors equal to 1e-2 where either exceeds ``ERROR_FLOOR``."""
    def structure(r):
        return {**r, "candidates": [c[:-1] for c in r["candidates"]]}

    return structure(got) == structure(want) and all(
        max(a[-1], b[-1]) <= ERROR_FLOOR or a[-1] == pytest.approx(b[-1], rel=1e-2)
        for a, b in zip(got["candidates"], want["candidates"]))


def test_candidate_tables_match_the_fixture():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = {name: row(samples, backend) for name, samples, backend in calls()}
    assert list(got) == list(want)
    changed = [name for name in got if not matches(got[name], want[name])]
    assert not changed, f"{len(changed)} calls differ from the fixture: {changed}"


if __name__ == "__main__":
    rows = (f"  {json.dumps(name)}: {json.dumps(row(samples, backend))}"
            for name, samples, backend in calls())
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
