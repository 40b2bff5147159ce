from dataclasses import dataclass

import numpy as np
import pytest

from landau.field import zeros
from landau.grid import VelocityGrid
from landau.kernel import KernelParams, QuadratureSpec, build_coefficients
from landau.operator import make_context

# small shared configuration used by most operator-level tests
SMALL_R = 6.0
SMALL_N = 16


@pytest.fixture(scope="session")
def small_grid():
    return VelocityGrid(R=SMALL_R, N=SMALL_N)


@pytest.fixture(scope="session")
def params():
    return KernelParams(-1.0)


@pytest.fixture(scope="session")
def quad():
    return QuadratureSpec()


@pytest.fixture(scope="session")
def small_coeffs(small_grid, params, quad):
    return build_coefficients(small_grid, params, quad)


@pytest.fixture(scope="session")
def small_ctx(small_coeffs):
    return make_context(small_coeffs)


@dataclass
class ZeroOperator:
    """Operator-context stand-in for L = 0: it carries real coefficients,
    which the energy log and the ladders' A-norms read, applies as zero and
    has the measured spectral radius and lower edge of L = 0."""

    coeffs: object
    spectral_radius: float = 0.0
    spectrum_lower_edge: float = 0.0

    def apply(self, f):
        return zeros(f.grid)


@pytest.fixture(scope="session")
def small_zero_ctx(small_coeffs):
    return ZeroOperator(small_coeffs)


@pytest.fixture(scope="session")
def medium_grid():
    return VelocityGrid(R=6.0, N=24)


@pytest.fixture(scope="session")
def medium_coeffs(medium_grid, params, quad):
    return build_coefficients(medium_grid, params, quad)


@pytest.fixture(scope="session")
def medium_ctx(medium_coeffs):
    return make_context(medium_coeffs)


def gaussian_field(grid, width=1.0):
    from landau.field import ScalarField

    return ScalarField(grid, np.exp(-grid.radius_sq / (2.0 * width * width)))


def abar_matrix(abar):
    """abar as a (3, 3, N, N, N) array, assembled from its two profiles as
    abar_jk = l_perp delta_jk + (l_par - l_perp) vhat_j vhat_k with vhat
    taken here from the node coordinates: the six-component field the
    operators once stored, kept as an oracle for `UniaxialField`."""
    grid = abar.grid
    vhat = [np.asarray(c) / grid.radius for c in grid.coords]
    diff = abar.along - abar.across
    m = np.empty((3, 3) + grid.shape)
    for j in range(3):
        for k in range(3):
            m[j, k] = diff * vhat[j] * vhat[k]
        m[j, j] += abar.across
    return m
