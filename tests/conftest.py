import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from landau.field import zeros
from landau.grid import VelocityGrid
from landau.kernel import (KernelParams, KernelTableStream, QuadratureSpec,
                           _lattice_offsets, _lattice_squares, build_coefficients,
                           cell_average_radial_power)
from landau.operator import SpectrumEdges, make_context

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
    spectrum: SpectrumEdges = SpectrumEdges(0.0, 0.0, 0, 0)

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


def divergence_tables(grid, params, pad=1):
    """The b_j tables, the first three of `kernel.KernelTableStream`, as
    one (3, M, M, M) stack."""
    return np.stack(tuple(itertools.islice(KernelTableStream(grid, params, pad), 3)))


def radial_kernel_table(grid, exponent, pad=1):
    """The whole table of |u|^exponent on the shift lattice (FFT layout),
    the origin cell its exact average: the oracle of
    `kernel.radial_power_convolutions`, which forms only its shifts
    0 .. N-1 of each axis, a block at a time, and folds the rest into its
    factor matrices."""
    table = _lattice_squares(_lattice_offsets(grid, pad))
    np.power(table, 0.5 * exponent, out=table)
    table[0, 0, 0] = cell_average_radial_power(exponent, grid.h)
    return table


def toeplitz_matrix(grid, f):
    """The M x N Toeplitz matrix W[(i - i') mod M, i] = f[i'] of a 1-d
    factor f on the pad-2 lattice (M = 2N, where i - i' never wraps)."""
    n = grid.N
    i = np.arange(n)
    w = np.zeros((2 * n, n))
    w[(i[None, :] - i[:, None]) % (2 * n), i[None, :]] = f[:, None]
    return w


def fold(w):
    """Rows 0 .. M/2 - 1 of an M x N matrix, row s + row M - s for
    0 < s < M/2: against a kernel even along its axis, the sum over the
    M shifts when row M/2 is zero.  With `toeplitz_matrix`, the reference
    of `kernel.toeplitz_factor`."""
    n = w.shape[0] // 2
    assert not np.any(w[n])
    out = w[:n].copy()
    out[1:] += w[:n:-1]
    return out


def padded_fft_convolution(grid, table, rho):
    """h^3 sum_i' table[i - i'] rho[i'] for a pad-2 table (FFT layout,
    M = 2N) and an N^3 density rho, by zero-padded transforms: the oracle
    of `kernel.radial_power_convolutions`."""
    n, m = grid.N, table.shape[-1]
    padded = np.zeros(table.shape)
    padded[:n, :n, :n] = rho
    out = np.fft.irfftn(np.fft.rfftn(table) * np.fft.rfftn(padded),
                        s=(m, m, m), axes=(0, 1, 2))
    return out[:n, :n, :n] * grid.cell_volume


def separable_density(factors):
    """factors[0][iz] factors[1][iy] factors[2][ix] as an N^3 array."""
    return factors[0][:, None, None] * factors[1][None, :, None] * factors[2]
