"""Matrix-free application of the linearized collision operators.

The full linear operator splits as L = L1 + L2:

    L1 f = -div(Abar grad f) + c1 f - c2 f

with Abar = a * mu, c1 = (1/4) Abar v.v, c2 = (1/2) div(Abar v).  The
diffusion part uses the centered periodic gradient for every derivative, so
its discrete quadratic form coincides with the gradient part of the energy
norm and (−div(Abar grad f), g) = (Abar grad f, grad g) holds to round-off.

    L2 f = mu^{1/2} sum_j (d_j - v_j) X_j,
    X_j  = sum_k a_jk * (v_k mu^{1/2} f) + b_j * (mu^{1/2} f)

where the prefactor identity mu^{-1/2} d_j (mu X) = mu^{1/2} (d_j X - v_j X)
is applied analytically, never by pointwise division, so nothing blows up at
large |v|.  The kernels are transformed once: the nine distinct tables
b_j and a_jk = a_kj (KernelTables.comps).  X_j contracts b_j, a_j0, a_j1
and a_j2 against the transforms of (rho, v_x rho, v_y rho, v_z rho),
rho = mu^{1/2} f, in the spectral form
of Pareschi, Russo & Toscani, J. Comput. Phys. 165 (2000).  Convolutions run
over the periodic shift lattice; fields are expected to carry a decaying
envelope.  The validation runs' unwrapped sums, which form no pad-2 table,
are kernel.radial_power_convolutions.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EigenvalueError, GridMismatchError
from .field import ScalarField, wrapped_difference
from .grid import AXIS_OF_COMPONENT
from .kernel import _SYM_INDEX, LandauCoefficients, tabulate_fft_kernels


class ConvolutionEngine:
    """Periodic FFT convolution against a stack of kernel tables.

    `tables` has shape (..., N, N, N), in FFT layout on the shift lattice
    of the grid; `hats` holds their transforms over the last three axes.
    The operators use the nine tables of KernelTables.comps.  Applying the
    engine to a discrete delta of mass h^-3 reproduces each table exactly
    up to transform round-off."""

    def __init__(self, grid, tables):
        self.grid = grid
        if tables.shape[-3:] != grid.shape:
            raise ValueError(f"kernel tables of shape {tables.shape} do not "
                             f"end in the grid's lattice {grid.shape}")
        # one table at a time: a batched rfftn holds two more transforms of
        # the whole stack at once (same bytes either way)
        n = grid.N
        self.hats = np.empty(tables.shape[:-3] + (n, n, n // 2 + 1), complex)
        for idx in np.ndindex(tables.shape[:-3]):
            self.hats[idx] = np.fft.rfftn(tables[idx])

    def forward(self, values):
        """rfft of an N^3 array."""
        return np.fft.rfftn(values)

    def inverse(self, hat):
        """Inverse transform, scaled by h^3."""
        return self.grid.cell_volume * np.fft.irfftn(
            hat, s=self.grid.shape, axes=(0, 1, 2))


# ---------------------------------------------------------------------------
# linear operators
# ---------------------------------------------------------------------------

def apply_L1(f, coeffs: LandauCoefficients, grad=None):
    """Diffusion-with-potential part: -div(Abar grad f) + (c1 - c2) f;
    `grad` is the gradient of f, when the caller already holds it."""
    if f.grid != coeffs.grid:
        raise GridMismatchError("field grid does not match coefficient grid")
    return coeffs.l1_form.apply(f, grad)


def apply_L2(f, engine: ConvolutionEngine, coeffs: LandauCoefficients):
    """Nonlocal part via convolution against the Gaussian-weighted density."""
    if f.grid != coeffs.grid or engine.grid != f.grid:
        raise GridMismatchError("field, engine and coefficients must share a grid")
    grid = f.grid
    mu_half = coeffs.mu_half.values
    rho = mu_half * f.values
    # transforms of (rho, v_x rho, v_y rho, v_z rho), one call each: a
    # batched transform over the four is slower at N=48
    src = [engine.forward(rho)]
    src += [engine.forward(np.asarray(grid.component(k)) * rho) for k in range(3)]

    out = np.zeros(grid.shape)
    diff = np.empty(grid.shape)
    inv2h = 1.0 / (2.0 * grid.h)
    hats = engine.hats
    for j in range(3):
        xj_hat = hats[j] * src[0]
        for k in range(3):
            xj_hat = xj_hat + hats[3 + _SYM_INDEX[(j, k)]] * src[k + 1]
        xj = engine.inverse(xj_hat)
        dxj = wrapped_difference(xj, AXIS_OF_COMPONENT[j], diff) * inv2h
        out += dxj - np.asarray(grid.component(j)) * xj
    return ScalarField(grid, mu_half * out)


def apply_L(f, engine, coeffs):
    """Full linearized operator L = L1 + L2."""
    return apply_L1(f, coeffs) + apply_L2(f, engine, coeffs)


@dataclass
class OperatorContext:
    """Engine plus coefficients, bundled for the time stepper and ladder."""

    engine: ConvolutionEngine
    coeffs: LandauCoefficients

    def apply(self, f):
        return apply_L(f, self.engine, self.coeffs)

    @cached_property
    def spectral_radius(self):
        """rho(L) = max |lambda(L)|, measured on first use and then kept.

        The start vector is seeded white noise, so rho is bit-identical
        from run to run.  A constant start vector is even in every
        velocity component, L preserves that parity, and the iteration
        then finds the top eigenvalue of the even subspace only (117.73
        instead of 120.48 at N=32, R=8).
        """
        return self._shifted_radius(0.0, ARNOLDI_TOL)

    @cached_property
    def spectrum_lower_edge(self):
        """rho - max |rho - lambda(L)|, measured on first use and then kept:
        it bounds min Re lambda(L) from below, and is negative because the
        discrete L2 is not exactly self-adjoint (-0.36 at N=24, R=8).

        Measured to LOWER_EDGE_TOL only.  The eigenvalues of L at the low
        end cluster within a small fraction of rho, so there the Ritz
        residual falls by about 8% per restart at N=48; the propagator
        widens its interval by 2% of rho anyway (evolution.SPECTRUM_MARGIN).
        The value is an estimate at that residual: within 0.002 of the
        converged edge at N=24, but -0.056 at N=48, where 38 restarts reach
        -0.0855 and still move, so at N >= 48 it understates how far the
        spectrum reaches below zero."""
        rho = self.spectral_radius
        return rho - self._shifted_radius(rho, LOWER_EDGE_TOL)

    def _shifted_radius(self, shift, tol):
        """max |lambda(L) - shift|, by Arnoldi from seeded white noise."""
        grid = self.coeffs.grid

        def matvec(x):
            lx = self.apply(ScalarField(grid, x.reshape(grid.shape))).values.ravel()
            return lx - shift * x

        v0 = np.random.default_rng(0).standard_normal(grid.N ** 3)
        return arnoldi_spectral_radius(matvec, v0, tol)


# restarted Arnoldi for OperatorContext.spectral_radius: basis size, ARPACK
# relative residual tolerance, restart budget
ARNOLDI_KRYLOV_DIM = 20
ARNOLDI_TOL = 1e-6
ARNOLDI_MAX_RESTARTS = 50
# relative Ritz residual at which OperatorContext.spectrum_lower_edge stops
LOWER_EDGE_TOL = 1e-3


def _norm(x):
    """Euclidean norm of a 1-d array, summed without BLAS."""
    return float(np.sqrt(np.einsum("i,i->", x, x)))


def arnoldi_spectral_radius(matvec, v0, tol=ARNOLDI_TOL):
    """Largest |lambda| of a real linear map, by explicitly restarted Arnoldi.

    Arnoldi rather than Lanczos because the discrete L2 is not exactly
    self-adjoint.  Each cycle builds an orthonormal Krylov basis of
    ARNOLDI_KRYLOV_DIM vectors (Gram-Schmidt with one reorthogonalization
    pass) and takes the Ritz value theta of largest modulus of the
    projected Hessenberg matrix.  It stops when the Ritz residual is at
    most tol*|theta|, the convergence test of ARPACK (Lehoucq,
    Sorensen & Yang, ARPACK Users' Guide, SIAM 1998), and otherwise
    restarts from the real part of the Ritz vector.  Its projections, norms
    and Ritz vector are numpy reductions (einsum, which never calls BLAS),
    so their summation order, and with it rho, is the same for any BLAS
    thread count.  Written with numpy alone: importing
    scipy.sparse.linalg would add about 26 MB to the resident memory of
    every run.
    """
    m = ARNOLDI_KRYLOV_DIM
    basis = np.empty((m + 1, v0.size))
    basis[0] = v0 / _norm(v0)
    for _ in range(ARNOLDI_MAX_RESTARTS):
        hess = np.zeros((m + 1, m))
        for j in range(m):
            w = matvec(basis[j])
            for _ in range(2):
                c = np.einsum("ij,j->i", basis[:j + 1], w)
                w -= np.einsum("i,ij->j", c, basis[:j + 1])
                hess[:j + 1, j] += c
            hess[j + 1, j] = _norm(w)
            basis[j + 1] = w / hess[j + 1, j]
        theta, vecs = np.linalg.eig(hess[:m])
        k = int(np.argmax(np.abs(theta)))
        if abs(hess[m, m - 1] * vecs[m - 1, k]) <= tol * abs(theta[k]):
            return float(abs(theta[k]))
        v = np.einsum("i,ij->j", vecs[:, k].real, basis[:m])
        basis[0] = v / _norm(v)
    raise EigenvalueError(
        f"Arnoldi iteration for the spectral radius did not converge in "
        f"{ARNOLDI_MAX_RESTARTS} restarts of {m} vectors")


def make_context(coeffs: LandauCoefficients) -> OperatorContext:
    """The operators' engine; the pad-1 kernel tables live only until it
    has transformed them."""
    tables = tabulate_fft_kernels(coeffs.grid, coeffs.params).comps
    return OperatorContext(ConvolutionEngine(coeffs.grid, tables), coeffs)
