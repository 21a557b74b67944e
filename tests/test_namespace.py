"""The package namespace exports the user-facing API and nothing else."""

import importlib

import pytest

import barydeg

SOLVER_INTERNALS = [
    ("barydeg.core", "loewner_matrix"),
    ("barydeg.core", "nullspace_basis"),
    ("barydeg.core", "solve_constrained_weights"),
    ("barydeg.core", "vandermonde"),
    ("barydeg.vf", "vf_solve"),
    ("barydeg.vf", "geometric_supports"),
]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from barydeg import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(barydeg.__all__)
    assert len(barydeg.__all__) == len(set(barydeg.__all__)) == 38


@pytest.mark.parametrize("module, name", SOLVER_INTERNALS)
def test_solver_internals_live_in_their_modules(module, name):
    assert name not in barydeg.__all__
    assert not hasattr(barydeg, name)
    assert callable(getattr(importlib.import_module(module), name))
