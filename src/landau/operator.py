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
b_j and a_jk = a_kj (KernelTables.comps), each as kernel.KernelTableStream
forms it from the one kernel evaluator, kernel.kernel_entries.  X_j
contracts b_j, a_j0, a_j1 and a_j2 against the transforms of
(rho, v_x rho, v_y rho, v_z rho), rho = mu^{1/2} f, in the spectral form
of Pareschi, Russo & Toscani, J. Comput. Phys. 165 (2000).  Convolutions run
over the periodic shift lattice; fields are expected to carry a decaying
envelope.  The validation runs' unwrapped sums, which form no pad-2 table,
are kernel.radial_power_convolutions.
"""

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import EigenvalueError, GridMismatchError
from .field import ScalarField, wrapped_difference
from .grid import AXIS_OF_COMPONENT
from .kernel import _SYM_INDEX, KernelTableStream, LandauCoefficients


class ConvolutionEngine:
    """Periodic FFT convolution against a sequence of kernel tables.

    `tables` is a sized iterable of (N, N, N) tables in FFT layout on the
    shift lattice of the grid: a stacked array, or a `KernelTableStream`
    that forms each table as it is read.  Each table is transformed into
    its row of `hats` as it arrives, and the engine keeps none of them.
    The operators use the nine tables of KernelTables.comps.  Applying the
    engine to a discrete delta of mass h^-3 reproduces each table exactly
    up to transform round-off."""

    def __init__(self, grid, tables):
        self.grid = grid
        n = grid.N
        self.hats = np.empty((len(tables), n, n, n // 2 + 1), complex)
        # next(), not zip, whose cached result holds each table while the
        # next is formed
        tables = iter(tables)
        for hat in self.hats:
            table = next(tables)
            if table.shape != grid.shape:
                raise ValueError(f"kernel tables of shape {table.shape} do not "
                                 f"end in the grid's lattice {grid.shape}")
            np.fft.rfftn(table, out=hat)
            del table
        self._local = threading.local()

    def forward(self, values, out=None):
        """rfft of an N^3 array, into `out` when given."""
        return np.fft.rfftn(values, out=out)

    def inverse(self, hat, out=None):
        """Inverse transform, scaled by h^3, into `out` when given: then it
        runs in place through `hat`, which it overwrites.  The bytes are
        those of irfftn, whose 1-d transforms it makes in the same order."""
        if out is None:
            hat, out = hat.copy(), np.empty(self.grid.shape)
        for axis in (0, 1):
            np.fft.ifft(hat, axis=axis, out=hat)
        np.fft.irfft(hat, self.grid.N, axis=2, out=out)
        out *= self.grid.cell_volume
        return out

    def workspace(self):
        """The calling thread's buffers for `apply_L2`, made on its first
        call and kept while the thread lives: two N^3 real arrays and six
        transforms.  Each thread owns its own, so threaded member passes
        share none."""
        ws = getattr(self._local, "ws", None)
        if ws is None:
            n = self.grid.N
            ws = self._local.ws = (np.empty((2,) + self.grid.shape),
                                   np.empty((6, n, n, n // 2 + 1), complex))
        return ws


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
    """Nonlocal part via convolution against the Gaussian-weighted density.
    Every intermediate lives in the engine's workspace of the calling
    thread (`ConvolutionEngine.workspace`); the result is the one array
    allocated."""
    if f.grid != coeffs.grid or engine.grid != f.grid:
        raise GridMismatchError("field, engine and coefficients must share a grid")
    grid = f.grid
    mu_half = coeffs.mu_half.values
    (rho, scratch), spectra = engine.workspace()
    src, xhat, prod = spectra[:4], spectra[4], spectra[5]
    np.multiply(mu_half, f.values, out=rho)
    # transforms of (rho, v_x rho, v_y rho, v_z rho), one call each: a
    # batched transform over the four is slower at N=48
    engine.forward(rho, out=src[0])
    for k in range(3):
        engine.forward(np.multiply(grid.component(k), rho, out=scratch), out=src[k + 1])

    out = np.zeros(grid.shape)
    inv2h = 1.0 / (2.0 * grid.h)
    hats = engine.hats
    for j in range(3):
        np.multiply(hats[j], src[0], out=xhat)
        for k in range(3):
            xhat += np.multiply(hats[3 + _SYM_INDEX[(j, k)]], src[k + 1], out=prod)
        # rho is spent: X_j takes its buffer, its difference the scratch one
        xj = engine.inverse(xhat, out=rho)
        dxj = wrapped_difference(xj, AXIS_OF_COMPONENT[j], scratch)
        dxj *= inv2h
        dxj -= np.multiply(grid.component(j), xj, out=xj)
        out += dxj
    out *= mu_half
    return ScalarField(grid, out)


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
    def spectrum(self):
        """Both measured edges of the spectrum of L, from one Arnoldi run
        (`arnoldi_edges`) on first use, and then kept.

        The start vector is seeded white noise, so the edges are
        bit-identical from run to run.  A constant start vector is even in
        every velocity component, L preserves that parity, and the
        iteration then finds the spectrum of the even subspace only (117.73
        instead of 120.48 for rho at N=32, R=8).
        """
        grid = self.coeffs.grid

        def matvec(x):
            return self.apply(ScalarField(grid, x.reshape(grid.shape))).values.ravel()

        return arnoldi_edges(matvec, np.random.default_rng(0).standard_normal(grid.N ** 3))


# thick-restarted Arnoldi for OperatorContext.spectrum: basis size, ARPACK
# relative residual tolerance of rho, restart budget
ARNOLDI_KRYLOV_DIM = 20
ARNOLDI_TOL = 1e-6
ARNOLDI_MAX_RESTARTS = 50
# relative Ritz residual at which the lower edge counts as measured
LOWER_EDGE_TOL = 1e-3


class SpectrumEdges(NamedTuple):
    """rho = max |lambda|, edge = rho - max |rho - lambda|, and the
    applications of the map and the Arnoldi cycles that measured them.

    rho is measured to ARNOLDI_TOL.  The edge bounds min Re lambda(L) from
    below and is negative, because the discrete L2 is not exactly
    self-adjoint; it is measured to LOWER_EDGE_TOL only.  The eigenvalues
    of L at the low end cluster within a small fraction of rho, so there
    the Ritz residual falls slowly; the propagator widens its interval by
    2% of rho anyway (evolution.SPECTRUM_MARGIN).  The edge is an estimate
    at that residual: -0.358, -0.192, -0.060 and -0.031 at N = 24, 32, 48
    and 64 (R=8), where the edge converged to 1e-6 reads -0.360 at N=24
    and -0.086 at N=48, so at N >= 48 it understates how far the spectrum
    reaches below zero."""

    rho: float
    edge: float
    applications: int
    cycles: int


def _norm(x):
    """Euclidean norm of a 1-d array, summed without BLAS."""
    return float(np.sqrt(np.einsum("i,i->", x, x)))


def _kept_ritz_vectors(theta, vecs, rho):
    """Orthonormal basis Z of the span of the m/4 Ritz vectors nearest each
    end of the spectrum, largest |theta| and largest |rho - theta|, with
    their conjugate partners: the real and imaginary parts of one vector of
    each pair, so Z spans an invariant subspace of the projected matrix."""
    quarter = len(theta) // 4
    kept = set()
    for order in (np.argsort(-np.abs(theta)), np.argsort(-np.abs(rho - theta))):
        kept.update(int(i) for i in order[:quarter])
    cols = []
    for i in sorted(kept):
        if theta[i].imag == 0.0:
            cols.append(vecs[:, i].real)
        elif not any(theta[j] == np.conj(theta[i]) for j in kept if j < i):
            cols += [vecs[:, i].real, vecs[:, i].imag]
    return np.linalg.qr(np.array(cols).T)[0]


def arnoldi_edges(matvec, v0):
    """Both edges of the spectrum of a real linear map, rho = max |lambda|
    and edge = rho - max |rho - lambda|, by one thick-restarted Arnoldi run.

    Arnoldi rather than Lanczos because the discrete L2 is not exactly
    self-adjoint.  One run serves both edges because K_m(A - rho I, v) =
    K_m(A, v).  Each cycle fills an orthonormal Krylov basis of
    ARNOLDI_KRYLOV_DIM vectors (Gram-Schmidt with one reorthogonalization
    pass) and reads both edges off the Ritz values theta of the projected
    matrix H.  It stops when the pair of largest |theta| has Ritz residual
    at most ARNOLDI_TOL |theta| and the pair of largest |rho - theta| at
    most LOWER_EDGE_TOL |rho - theta|, ARPACK's test (Lehoucq, Sorensen &
    Yang, ARPACK Users' Guide, SIAM 1998) for each.  Otherwise it restarts
    thick, Krylov-Schur fashion (Stewart, SIAM J. Matrix Anal. Appl. 23,
    2001; Morgan, Math. Comp. 65, 1996): it keeps the span Z of the Ritz
    vectors nearest either end (`_kept_ritz_vectors`), rotates the basis
    to V Z, takes Z^T H Z with the residual row under it as the new
    projected matrix, and continues from the old residual vector, so a
    cycle after the first costs m - k applications for k kept vectors.
    Projections, norms and the rotation are numpy reductions (einsum,
    which never calls BLAS), so their summation order, and with it both
    edges, is the same for any BLAS thread count.  Written with numpy
    alone: importing scipy.linalg would add to the resident memory of
    every run.
    """
    m = ARNOLDI_KRYLOV_DIM
    n = v0.size
    basis = np.empty((m + 1, n))
    basis[0] = v0 / _norm(v0)
    hess = np.zeros((m + 1, m))
    kept, applications = 0, 0
    for cycle in range(1, ARNOLDI_MAX_RESTARTS + 1):
        for j in range(kept, m):
            w = matvec(basis[j])
            applications += 1
            for _ in range(2):
                c = np.einsum("ij,j->i", basis[:j + 1], w)
                w -= np.einsum("i,ij->j", c, basis[:j + 1])
                hess[:j + 1, j] += c
            hess[j + 1, j] = _norm(w)
            basis[j + 1] = w / hess[j + 1, j]
        theta, vecs = np.linalg.eig(hess[:m])
        residual = np.abs(hess[m] @ vecs)
        top = int(np.argmax(np.abs(theta)))
        rho = float(abs(theta[top]))
        far = int(np.argmax(np.abs(rho - theta)))
        reach = float(abs(rho - theta[far]))
        if (residual[top] <= ARNOLDI_TOL * rho
                and residual[far] <= LOWER_EDGE_TOL * reach):
            return SpectrumEdges(rho, rho - reach, applications, cycles=cycle)
        z = _kept_ritz_vectors(theta, vecs, rho)
        kept = z.shape[1]
        # basis[:kept] = Z^T basis[:m] in place, in m blocks of columns, so
        # that no second (kept, n) array is held
        width = -(-n // m)
        for s in range(0, n, width):
            basis[:kept, s:s + width] = np.einsum("ji,jc->ic", z, basis[:m, s:s + width])
        basis[kept] = basis[m]
        proj = np.zeros((m + 1, m))
        proj[:kept, :kept] = z.T @ hess[:m] @ z
        proj[kept, :kept] = hess[m] @ z
        hess = proj
    raise EigenvalueError(
        f"Arnoldi iteration for the spectrum's edges did not converge in "
        f"{ARNOLDI_MAX_RESTARTS} cycles of {m} vectors")


def make_context(coeffs: LandauCoefficients) -> OperatorContext:
    """The operators' engine, built from the pad-1 kernel tables one at a
    time (`KernelTableStream`): each lives only until it is transformed."""
    tables = KernelTableStream(coeffs.grid, coeffs.params)
    return OperatorContext(ConvolutionEngine(coeffs.grid, tables), coeffs)
