"""Shared fixtures: cached polytopes and reports keyed by family spec."""

from functools import lru_cache

import pytest

from polynorm.bounds import full_report
from constructions import build_family

# The fixed regression set.  reeve is the deliberate non-very-ample member.
CATALOG_SPECS = (
    "cube:2", "cube:3", "cube:4",
    "simplex:2", "simplex:3", "simplex:4",
    "bruns:4", "bruns:5", "bruns:6",
    "higashitani:3,1", "higashitani:3,2", "higashitani:3,3",
    "reeve",
)

VERY_AMPLE_SPECS = tuple(s for s in CATALOG_SPECS if s != "reeve")


@lru_cache(maxsize=None)
def _poly(spec: str):
    return build_family(spec)


@lru_cache(maxsize=None)
def _report(spec: str):
    return full_report(_poly(spec))


@pytest.fixture(scope="session")
def poly():
    """Factory fixture: poly('bruns:4') -> cached Polytope."""
    return _poly


@pytest.fixture(scope="session")
def report():
    """Factory fixture: report('bruns:4') -> cached InvariantReport."""
    return _report
