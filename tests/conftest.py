"""Reference direct maps shared by the test files, built once per session.

The maps are of the derivative-of-gaussian profile (width 1) sampled on a
256-point box over [-32, 32]^2, with kernels on the 128-point working pair
over [-8, 8]^2. Each fixture gives (field, data, report) as
compute_scattering returns them. Tests do not change the data they read;
those that count or bound what a source caches (its spline fit, its
refinements) take a copy with dataclasses.replace, whose caches start
empty.
"""

import pytest

from kpist.grids import Grid1D, make_test_potential
from kpist.harness import compute_scattering
from kpist.scattering import ScatteringGrids

FIELD_GRID = Grid1D(-32.0, 32.0, 256)
WORK_GRIDS = ScatteringGrids(Grid1D(-8.0, 8.0, 128), Grid1D(-8.0, 8.0, 128))


def reference_map(eps):
    """(field, data, report) of the reference profile at amplitude eps."""
    field = make_test_potential("gaussian_dx", eps, 1.0, FIELD_GRID,
                                FIELD_GRID)
    return (field, *compute_scattering(field, WORK_GRIDS))


@pytest.fixture(scope="session")
def map05():
    return reference_map(0.05)


@pytest.fixture(scope="session")
def map02():
    return reference_map(0.02)


@pytest.fixture(scope="session")
def map01():
    return reference_map(0.01)
