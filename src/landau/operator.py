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
large |v|.  Convolutions run over the periodic shift lattice; fields are
expected to carry a decaying envelope (pad=2 tables give true linear
convolution for validation runs).
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import EigenvalueError, GridMismatchError
from .field import ScalarField, divergence, gradient
from .grid import AXIS_OF_COMPONENT
from .kernel import (KernelTables, LandauCoefficients, SYM_COMPONENTS,
                     tabulate_radial_kernel)


class ConvolutionEngine:
    """FFT convolution against the precomputed kernel tables.

    Kernel ids: "a_xx" ... "a_yz" for the matrix components, "bx", "by",
    "bz" for the divergence kernel, plus any registered radial kernels.
    Applying the engine to a discrete delta of mass h^-3 reproduces the
    kernel table exactly up to transform round-off.
    """

    def __init__(self, tables: KernelTables):
        self.tables = tables
        self.grid = tables.grid
        self.pad = tables.pad
        self.M = tables.M
        self._hats = {}
        for i, name in enumerate(SYM_COMPONENTS):
            self._hats["a_" + name] = np.fft.rfftn(tables.a_comps[i])
        for j, name in enumerate(("bx", "by", "bz")):
            self._hats[name] = np.fft.rfftn(tables.b_comps[j])
        for name, table in tables.extras.items():
            self._hats[name] = np.fft.rfftn(table)

    def register_radial_kernel(self, name, exponent, origin_subcells=64):
        table = tabulate_radial_kernel(self.grid, exponent, self.pad, origin_subcells)
        self.tables.extras[name] = table
        self._hats[name] = np.fft.rfftn(table)

    def kernel_ids(self):
        return sorted(self._hats)

    def forward(self, values):
        """rfft of an N^3 array embedded in the (possibly padded) lattice."""
        n, m = self.grid.N, self.M
        if m == n:
            return np.fft.rfftn(values)
        padded = np.zeros((m, m, m))
        padded[:n, :n, :n] = values
        return np.fft.rfftn(padded)

    def inverse(self, hat):
        """Inverse transform, cropped to the grid and scaled by h^3."""
        n, m = self.grid.N, self.M
        out = np.fft.irfftn(hat, s=(m, m, m), axes=(0, 1, 2))
        return out[:n, :n, :n] * self.grid.cell_volume

    def kernel_hat(self, kernel_id):
        try:
            return self._hats[kernel_id]
        except KeyError:
            raise KeyError(f"unknown kernel id {kernel_id!r}; have {self.kernel_ids()}")

    def convolve_array(self, kernel_id, values):
        return self.inverse(self.kernel_hat(kernel_id) * self.forward(values))


def convolve(engine, kernel_id, density):
    """Discrete convolution sum_u kernel(u) density(v - u) h^3."""
    if density.grid != engine.grid:
        raise GridMismatchError("density grid does not match engine grid")
    return ScalarField(density.grid, engine.convolve_array(kernel_id, density.values))


# ---------------------------------------------------------------------------
# linear operators
# ---------------------------------------------------------------------------

def apply_L1(f, coeffs: LandauCoefficients):
    """Diffusion-with-potential part: -div(Abar grad f) + (c1 - c2) f."""
    if f.grid != coeffs.grid:
        raise GridMismatchError("field grid does not match coefficient grid")
    flux = coeffs.abar.apply(gradient(f))
    out = -divergence(flux).values
    out += (coeffs.c1 - coeffs.c2) * f.values
    return ScalarField(f.grid, out)


def apply_L2(f, engine: ConvolutionEngine, coeffs: LandauCoefficients):
    """Nonlocal part via convolution against the Gaussian-weighted density."""
    if f.grid != coeffs.grid or engine.grid != f.grid:
        raise GridMismatchError("field, engine and coefficients must share a grid")
    grid = f.grid
    mu_half = coeffs.mu_half.values
    rho = mu_half * f.values
    rho_hat = engine.forward(rho)
    d_hats = [engine.forward(np.asarray(grid.component(k)) * rho) for k in range(3)]

    out = np.zeros(grid.shape)
    inv2h = 1.0 / (2.0 * grid.h)
    for j in range(3):
        xj_hat = engine.kernel_hat("b" + "xyz"[j]) * rho_hat
        for k in range(3):
            xj_hat = xj_hat + engine.kernel_hat(_a_id(j, k)) * d_hats[k]
        xj = engine.inverse(xj_hat)
        ax = AXIS_OF_COMPONENT[j]
        dxj = (np.roll(xj, -1, axis=ax) - np.roll(xj, 1, axis=ax)) * inv2h
        out += dxj - np.asarray(grid.component(j)) * xj
    return ScalarField(grid, mu_half * out)


_A_IDS = {(j, k): "a_" + SYM_COMPONENTS[idx]
          for (j, k), idx in {(0, 0): 0, (1, 1): 1, (2, 2): 2,
                              (0, 1): 3, (1, 0): 3, (0, 2): 4,
                              (2, 0): 4, (1, 2): 5, (2, 1): 5}.items()}


def _a_id(j, k):
    return _A_IDS[(j, k)]


def apply_L(f, engine, coeffs):
    """Full linearized operator L = L1 + L2."""
    return apply_L1(f, coeffs) + apply_L2(f, engine, coeffs)


def _diff4(values, j, h):
    """Fourth-order centered periodic difference along component j."""
    ax = AXIS_OF_COMPONENT[j]
    return (
        8.0 * (np.roll(values, -1, axis=ax) - np.roll(values, 1, axis=ax))
        - (np.roll(values, -2, axis=ax) - np.roll(values, 2, axis=ax))
    ) / (12.0 * h)


def apply_Q(G, F, engine: ConvolutionEngine):
    """Bilinear collision operator in divergence form:

        Q(G, F) = sum_j d_j [ (a_jk * G) d_k F - (a_jk * d_k G) F ].

    Derivatives here use fourth-order centered periodic stencils: the flux
    of an equilibrium pair cancels through the kernel null identity, so the
    discrete residual of Q(mu, mu) is set by the stencil error alone and
    the wider stencil keeps it resolution-limited on coarse grids.  The
    antisymmetric stencil still telescopes, so the discrete integral of Q
    vanishes to round-off.
    """
    if G.grid != F.grid or engine.grid != G.grid:
        raise GridMismatchError("both fields must live on the engine grid")
    grid = G.grid
    h = grid.h
    g_hat = engine.forward(G.values)
    dG = [_diff4(G.values, k, h) for k in range(3)]
    dG_hats = [engine.forward(d) for d in dG]
    dF = [_diff4(F.values, k, h) for k in range(3)]

    out = np.zeros(grid.shape)
    for j in range(3):
        acc = np.zeros(grid.shape)
        bj_hat = None
        for k in range(3):
            a_hat = engine.kernel_hat(_a_id(j, k))
            acc += engine.inverse(a_hat * g_hat) * dF[k]
            bj_hat = a_hat * dG_hats[k] if bj_hat is None else bj_hat + a_hat * dG_hats[k]
        acc -= engine.inverse(bj_hat) * F.values
        out += _diff4(acc, j, h)
    return ScalarField(grid, out)


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
        grid = self.coeffs.grid

        def matvec(x):
            return self.apply(ScalarField(grid, x.reshape(grid.shape))).values.ravel()

        v0 = np.random.default_rng(0).standard_normal(grid.N ** 3)
        return arnoldi_spectral_radius(matvec, v0)


# restarted Arnoldi for OperatorContext.spectral_radius: basis size, ARPACK
# relative residual tolerance, restart budget
ARNOLDI_KRYLOV_DIM = 20
ARNOLDI_TOL = 1e-6
ARNOLDI_MAX_RESTARTS = 50


def arnoldi_spectral_radius(matvec, v0):
    """Largest |lambda| of a real linear map, by explicitly restarted Arnoldi.

    Arnoldi rather than Lanczos because the discrete L2 is not exactly
    self-adjoint.  Each cycle builds an orthonormal Krylov basis of
    ARNOLDI_KRYLOV_DIM vectors (Gram-Schmidt with one reorthogonalization
    pass) and takes the Ritz value theta of largest modulus of the
    projected Hessenberg matrix.  It stops when the Ritz residual is at
    most ARNOLDI_TOL*|theta|, the convergence test of ARPACK (Lehoucq,
    Sorensen & Yang, ARPACK Users' Guide, SIAM 1998), and otherwise
    restarts from the real part of the Ritz vector.  Written with numpy alone: importing
    scipy.sparse.linalg would add about 26 MB to the resident memory of
    every run.
    """
    m = ARNOLDI_KRYLOV_DIM
    basis = np.empty((m + 1, v0.size))
    basis[0] = v0 / np.linalg.norm(v0)
    for _ in range(ARNOLDI_MAX_RESTARTS):
        hess = np.zeros((m + 1, m))
        for j in range(m):
            w = matvec(basis[j])
            for _ in range(2):
                c = basis[:j + 1] @ w
                w -= c @ basis[:j + 1]
                hess[:j + 1, j] += c
            hess[j + 1, j] = np.linalg.norm(w)
            basis[j + 1] = w / hess[j + 1, j]
        theta, vecs = np.linalg.eig(hess[:m])
        k = int(np.argmax(np.abs(theta)))
        if abs(hess[m, m - 1] * vecs[m - 1, k]) <= ARNOLDI_TOL * abs(theta[k]):
            return float(abs(theta[k]))
        v = (vecs[:, k] @ basis[:m]).real
        basis[0] = v / np.linalg.norm(v)
    raise EigenvalueError(
        f"Arnoldi iteration for the spectral radius did not converge in "
        f"{ARNOLDI_MAX_RESTARTS} restarts of {m} vectors")


def make_context(coeffs: LandauCoefficients) -> OperatorContext:
    return OperatorContext(ConvolutionEngine(coeffs.tables), coeffs)


def stable_dt(coeffs: Optional[LandauCoefficients], grid, safety=0.4, fallback=1.0 / 128.0):
    """Explicit step bound: safety * h^2 / (6 max_v lambda_max(Abar))."""
    if coeffs is None:
        return fallback
    lam = coeffs.max_diffusion_eigenvalue
    return safety * grid.h ** 2 / (6.0 * lam)
