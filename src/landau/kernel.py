"""Collision kernel, Maxwellian background, and precomputed coefficient fields.

The interaction kernel is

    a_jk(v) = (delta_jk |v|^2 - v_j v_k) |v|^gamma,   -3 < gamma < 0,

a positive semidefinite projection off the v direction scaled by |v|^{gamma+2},
with row divergence b_j = sum_k d_k a_jk = -2 |v|^gamma v_j.
`kernel_entries` writes both once, from one |v|^gamma, for the operator's
tables and the checked point forms; the derivatives of a are the complex
step of that same evaluator, Im a(v + i s e_l) / s, exact to round-off.
The smoothed diffusion matrix abar = a * mu is stored as its two radial
profiles, the eigenvalue l_par along v and the double eigenvalue l_perp
across it (`UniaxialField`).  With the polar axis along v, the azimuthal and
the polar integrals are both in closed form; only the radial integral, with
its r^{gamma+4} endpoint singularity, is a Gauss-Legendre rule, checked by
doubling its order.  c1 and c2 follow from l_par alone, as abar v = l_par v.
The c2 cross-check convolves the separable fields v_k mu with the pad-2
kernel b_k = -2 |u|^gamma u_k by 1-d Toeplitz passes, without wrap or
spectra (`radial_power_convolutions`): |u|^gamma is even along every axis,
so `toeplitz_factor` folds each factor onto the shifts 0 .. N-1, and the
kernel is formed there only, N^3 values a block of z-planes at a time,
never as a (2N)^3 table.  The nine operator tables are formed one at a
time (`KernelTableStream`), their origin cell the exact cell average.  The
coefficient set names the forms of the estimates and builds the invariants.
Every product that can outgrow OpenBLAS's serial bounds, the radial sums
of abar and the Toeplitz passes, runs in blocks on the calling thread
(`serial_matmul`), so none wakes OpenBLAS's worker threads.
"""

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .errors import CrossCheckError, QuadratureError
from .field import EnergyForm, ScalarField, VectorField, inner_product, normalized
from .grid import AXIS_OF_COMPONENT, VelocityGrid

# the six distinct a_jk in the order of the a-tables (xx, yy, zz, xy, xz,
# yz), and the position of a_jk and a_kj among them
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_SYM_INDEX = {pair: i for i, (j, k) in enumerate(_PAIRS) for pair in ((j, k), (k, j))}


@dataclass(frozen=True)
class KernelParams:
    """Soft-potential exponent and Maxwellian normalization choice."""

    gamma: float
    mu_normalized: bool = True

    def __post_init__(self):
        if not -3.0 < self.gamma < 0.0:
            raise ValueError(
                f"gamma={self.gamma} outside the soft potential range (-3, 0)"
            )

    @property
    def mu_prefactor(self):
        p = (2.0 * math.pi) ** 1.5
        return 1.0 / p if self.mu_normalized else p


@dataclass(frozen=True)
class QuadratureSpec:
    """Orders for the abar quadrature: Gauss-Legendre points per radial panel
    and the doubling-check tolerance.  `angular_order` is validated but no
    longer affects abar, whose polar integral is in closed form; it stays
    accepted because existing configs and callers name it."""

    radial_order: int = 32
    angular_order: int = 64
    rtol: float = 1e-6

    def __post_init__(self):
        if self.radial_order < 32:
            raise ValueError(f"radial_order must be >= 32, got {self.radial_order}")
        if self.angular_order < 26:
            raise ValueError(f"angular_order must be >= 26, got {self.angular_order}")
        if not self.rtol > 0:
            raise ValueError("rtol must be positive")


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def kernel_entries(u, gamma):
    """Yield the nine distinct kernel entries at broadcastable coordinates
    u = (u_x, u_y, u_z), one array at a time, in the order of
    `KernelTables.comps`: the row divergence b_j = -2 |u|^gamma u_j, then
    the six a_jk(u) = |u|^gamma (delta_jk |u|^2 - u_j u_k) in the order of
    _PAIRS, all from one |u|^gamma.  The operator's tables,
    `kernel_matrix_batch` and the kernel suite's b are all filled from here."""
    ux, uy, uz = u
    ng = ((ux * ux + uy * uy) + uz * uz) ** (0.5 * gamma)
    for uj in u:
        b = ng * uj
        b *= -2.0
        yield b
        del b  # hold no table while the next one is formed
    # |u|^2 again, so that it is not held while the b tables are out
    ngp2 = ng * ((ux * ux + uy * uy) + uz * uz)
    for j, k in _PAIRS:
        yield ngp2 - ng * u[j] * u[j] if j == k else -ng * u[j] * u[k]


def kernel_matrix_batch(points, gamma):
    """a_jk at an array of points, shape (..., 3) -> (..., 3, 3), in the
    points' dtype: complex points give the kernel's analytic continuation,
    which `kernel_first_derivatives` reads."""
    pts = np.asarray(points)
    out = np.empty(pts.shape + (3,), np.result_type(pts, 0.0))
    entries = itertools.islice(kernel_entries(np.moveaxis(pts, -1, 0), gamma), 3, None)
    for (j, k), a in zip(_PAIRS, entries):
        out[..., j, k] = out[..., k, j] = a
    return out


# imaginary step of `kernel_first_derivatives`: its truncation error is
# O(s^2) relative, and no difference is taken, so any s this small is exact
# to round-off (Squire & Trapp, SIAM Rev. 40, 1998)
_COMPLEX_STEP = 1e-30


def kernel_first_derivatives(points, gamma):
    """d_l a_jk at points (..., 3) -> (..., 3, 3, 3) indexed [l, j, k], the
    complex-step derivative Im a(v + i s e_l) / s of `kernel_matrix_batch`."""
    v = np.asarray(points, dtype=float)
    steps = v[..., None, :] + (1j * _COMPLEX_STEP) * np.eye(3)  # [..., l, :]
    return kernel_matrix_batch(steps, gamma).imag / _COMPLEX_STEP


def maxwellian_field(grid, params):
    return ScalarField(grid, params.mu_prefactor * np.exp(-0.5 * grid.radius_sq))


def sqrt_maxwellian_field(grid, params):
    return ScalarField(
        grid, math.sqrt(params.mu_prefactor) * np.exp(-0.25 * grid.radius_sq)
    )


def project_off_invariants(f, basis):
    """f less its components along the orthonormal `basis`."""
    for b in basis:
        f = f - inner_product(f, b) * b
    return f


# ---------------------------------------------------------------------------
# uniaxial matrix field
# ---------------------------------------------------------------------------

@dataclass
class UniaxialField:
    """Symmetric 3x3 matrix field M = across I + (along - across) vhat vhat^T:
    eigenvalue `along` on v, double eigenvalue `across` on its orthogonal
    plane.  Abar is (l_par, l_perp); the coercivity split form weights the
    gradient by (<v>^g, <v>^{g+2}).  `excess` = along - across and the unit
    vectors vhat are taken once, on the constructing thread."""

    grid: VelocityGrid
    along: np.ndarray
    across: np.ndarray
    excess: np.ndarray = dataclass_field(init=False, repr=False)
    vhat: tuple = dataclass_field(init=False, repr=False)

    def __post_init__(self):
        self.excess = self.along - self.across
        self.vhat = self.grid.unit_vectors

    def apply(self, V):
        """(M V)_j = across V_j + (along - across)(vhat . V) vhat_j."""
        t = _dot(self.vhat, V.comps)
        t *= self.excess
        out = self.across * V.comps
        for j in range(3):
            out[j] += t * self.vhat[j]
        return VectorField(self.grid, out)

    def quadratic_form(self, V):
        """V . M V = across |V|^2 + (along - across)(vhat . V)^2 at every node."""
        form = self.across * _dot(V.comps, V.comps)
        dot = _dot(self.vhat, V.comps)
        dot *= dot
        form += self.excess * dot
        return form

    def min_eigenvalue_ratio(self):
        """min(along, across) over the grid, normalized by the local trace
        along + 2 across."""
        trace = np.maximum(self.along + 2.0 * self.across, 1e-300)
        return float(np.min(np.minimum(self.along, self.across) / trace))


def _dot(a, b):
    """Node-wise a . b of two 3-vectors of arrays, into a new array."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


# ---------------------------------------------------------------------------
# matrix products on the calling thread
# ---------------------------------------------------------------------------

# OpenBLAS runs a dgemm with m n k <= 2^18 (SMP_THRESHOLD_MIN 65536 times
# GEMM_MULTITHREAD_THRESHOLD 4) and a dgemv with m n < 9216 (2304 times 4)
# on the calling thread; a larger product may wake its worker threads,
# which then busy-wait on the other cores after the call, against the
# threads of `verify.map_on_cores`
SERIAL_GEMM_MAX = 1 << 18
SERIAL_GEMV_BELOW = 9216
# blocks start at multiples of this when at least this many rows or
# columns fit a call: the widest register tile of OpenBLAS's double
# kernels, so the blocks' tiles lie where the one-call product's lie
_TILE = 16


def _blocks(n, fit):
    """Slices that cover range(n) with at most `fit` rows (columns) each:
    one slice when n fits, else widths of the largest multiple of _TILE
    below `fit` (a power of two when fewer fit), a last row joining the
    block before it: numpy hands a one-row product to another BLAS
    routine, which sums it in another order."""
    if n <= fit:
        return [slice(0, n)]
    room = fit - 1  # for that joining row
    width = room - room % _TILE if room >= _TILE else 1 << max(room.bit_length() - 1, 0)
    starts = list(range(0, n - 1, width))
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def serial_matmul(a, b):
    """a @ b, into a new array, as BLAS calls that each stay on the
    calling thread: a matrix times a vector in blocks of rows of `a`
    within SERIAL_GEMV_BELOW, a 2-d or stacked `a` times a 2-d or stacked
    `b` in blocks of columns of `b` within SERIAL_GEMM_MAX per matrix.
    The blocks come from the shapes, never split the inner dimension k
    and start at multiples of _TILE, so each entry has the bytes of the
    one-call product on one thread, except where OpenBLAS gives that call
    another kernel: the last n mod 8 columns of a wide product (README),
    and blocks below _TILE wide, at k > 542 for a vector or N > 124 for
    the N x N factors here.  A product stays on the caller while two rows
    (columns) fit a call: k <= 4607, or m k <= 2^17."""
    m, k = a.shape[-2:]
    if b.ndim == 1:
        out = np.empty(a.shape[:-1])
        for rows in _blocks(m, (SERIAL_GEMV_BELOW - 1) // k):
            np.matmul(a[..., rows, :], b, out=out[..., rows])
        return out
    n = b.shape[-1]
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (m, n))
    for cols in _blocks(n, SERIAL_GEMM_MAX // (m * k)):
        np.matmul(a, b[..., cols], out=out[..., cols])
    return out


# ---------------------------------------------------------------------------
# abar quadrature
# ---------------------------------------------------------------------------

def _radial_rule(r_max, n_per_panel):
    """Composite Gauss-Legendre rule on [0, r_max].

    First panel [0, b] is warped r = b u^2 to absorb the integrable
    r^{gamma+4} endpoint behavior; the rest is split into panels of width
    <= 4 so the Gaussian radial factor is resolved everywhere.
    """
    x, w = np.polynomial.legendre.leggauss(n_per_panel)
    nodes = []
    weights = []
    b = min(2.0, r_max)
    u = 0.5 * (x + 1.0)
    nodes.append(b * u * u)
    weights.append(0.5 * w * 2.0 * b * u)
    lo = b
    while lo < r_max - 1e-12:
        hi = min(lo + 4.0, r_max)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes.append(mid + half * x)
        weights.append(half * w)
        lo = hi
    return np.concatenate(nodes), np.concatenate(weights)


# below this a = s r the closed forms of `polar_integrals` lose digits to
# cancellation, and their even power series takes over
_SERIES_BELOW = 0.5
# coefficients of a^{2m}, m = 0..8, in the even power series of the two
# polar integrals; at a = 0.5 the first term left out is 7e-19 of the sum
_SERIES_DEN = np.array([(2 * m + 1) * (2 * m + 3) * math.factorial(2 * m)
                        for m in range(9)], dtype=float)
_SERIES_PAR = 4.0 / _SERIES_DEN
_SERIES_PERP = 4.0 * np.arange(1.0, 10.0) / _SERIES_DEN
_ABAR_BLOCK = 256  # radii per block of `_abar_profiles`


def polar_integrals(s, r):
    """The two polar integrals of the abar profiles, with a = s r,

        par  = e^{-(s^2+r^2)/2} int (1-t^2)   e^{a t} dt
             = (4/a^2) (cosh a - sinh a/a) e^{-(s^2+r^2)/2},
        perp = e^{-(s^2+r^2)/2} int (1+t^2)/2 e^{a t} dt
             = (2 sinh a/a - 2 cosh a/a^2 + 2 sinh a/a^3) e^{-(s^2+r^2)/2},

    over t in [-1, 1], broadcast over s, r >= 0.  So that nothing overflows
    and the cancellation in cosh a - sinh a/a acts on O(1) numbers only,
    cosh and sinh times the Gaussian are written as
    e^{-(s-r)^2/2} (1 +- e^{-2a}) / 2, since e^{-(s+r)^2/2} =
    e^{-(s-r)^2/2} e^{-2a}.  Below a = _SERIES_BELOW, where the closed
    forms cancel (and are 0/0 at s = 0), the even power series
    sum_m a^{2m} / (2m)! (4, 4m + 4) / ((2m+1)(2m+3)) times
    e^{-(s-r)^2/2} e^{-a} replaces them."""
    a = s * r
    near = np.exp(-0.5 * (s - r) ** 2)     # e^{-(s^2+r^2)/2} e^{a}
    cosh = 0.5 * (1.0 + np.exp(-2.0 * a))  # e^{-a} cosh a
    sinh = -0.5 * np.expm1(-2.0 * a)       # e^{-a} sinh a
    small = a < _SERIES_BELOW
    inv = 1.0 / np.where(small, 1.0, a)
    q = cosh - sinh * inv
    par = 4.0 * inv * inv * q
    perp = 2.0 * inv * (sinh - q * inv)
    if np.any(small):
        # the series only where it is used; asarray makes 0-d results writable
        par, perp, a = np.asarray(par), np.asarray(perp), np.asarray(a)[small]
        a2, polyval = a * a, np.polynomial.polynomial.polyval
        par[small] = np.exp(-a) * polyval(a2, _SERIES_PAR)
        perp[small] = np.exp(-a) * polyval(a2, _SERIES_PERP)
    return near * par, near * perp


def _abar_profiles(s_values, params, radial_order, r_max):
    """Parallel/transverse eigenvalue profiles of abar at radii s_values.

    With the polar axis along v the integrand factorizes; the azimuthal
    integral of the degree-2 dependence and the polar one
    (`polar_integrals`) are in closed form and leave

        l_par(s)  = 2 pi C_mu int r^{g+4} e^{-(s^2+r^2)/2} int (1-t^2)   e^{s r t} dt dr
        l_perp(s) = 2 pi C_mu int r^{g+4} e^{-(s^2+r^2)/2} int (1+t^2)/2 e^{s r t} dt dr

    for the radial rule, _ABAR_BLOCK radii at a time to bound temporaries,
    each profile's sum over the rule by `serial_matmul`.
    """
    r, wr = _radial_rule(r_max, radial_order)
    radial_factor = wr * r ** (params.gamma + 4.0)
    pref = 2.0 * math.pi * params.mu_prefactor
    par, perp = np.empty((2, s_values.size, r.size))
    for lo in range(0, s_values.size, _ABAR_BLOCK):
        rows = slice(lo, lo + _ABAR_BLOCK)
        par[rows], perp[rows] = polar_integrals(s_values[rows, None], r[None, :])
    return (pref * serial_matmul(par, radial_factor),
            pref * serial_matmul(perp, radial_factor))


def abar_profiles_at(s_values, params, quad):
    """Public profile evaluation with the order-doubling convergence check."""
    s = np.asarray(s_values, dtype=float)
    r_max = float(s.max()) + 8.0
    base = _abar_profiles(s, params, quad.radial_order, r_max)
    fine = _abar_profiles(s, params, 2 * quad.radial_order, r_max)
    # numpy maxima over both profiles, and a refusal that a NaN fails too
    scale = float(np.max(np.abs(fine)))
    err = float(np.max(np.abs(np.subtract(fine, base)))) / scale
    if not err <= quad.rtol:
        raise QuadratureError(
            f"radial order doubling changed abar by {err:.3e} > rtol {quad.rtol:.1e}"
        )
    return fine


def compute_abar_field(grid, params, quad=QuadratureSpec()):
    """Smoothed diffusion matrix abar(v) = (a * mu)(v) on the grid.

    Isotropy of both factors reduces the grid evaluation to the radial
    profiles at the distinct node radii: abar is the uniaxial field
    (l_par, l_perp), l_par P_v + l_perp (I - P_v).
    """
    r_flat = grid.radius.reshape(-1)
    uniq, inverse = np.unique(r_flat, return_inverse=True)
    l_par_u, l_perp_u = abar_profiles_at(uniq, params, quad)
    return UniaxialField(grid, l_par_u[inverse].reshape(grid.shape),
                         l_perp_u[inverse].reshape(grid.shape))


# ---------------------------------------------------------------------------
# scalar weights c1, c2
# ---------------------------------------------------------------------------

def compute_scalar_weights(abar, grid):
    """Zeroth-order weights of the diffusion operator; abar v = l_par v, so

    c1 = (1/4) sum_jk abar_jk v_j v_k = (1/4) |v|^2 l_par  (nonnegative)
    c2 = (1/2) sum_j d_j (sum_k abar_jk v_k) = (1/2) div(l_par v)  by centered
         differences (second-order one-sided stencils on the box faces; l_par v
         does not decay, so periodic wrap would be wrong here).
    """
    c1 = 0.25 * grid.radius_sq * abar.along
    c2 = np.zeros(grid.shape)
    for j in range(3):
        c2 += np.gradient(abar.along * grid.component(j), grid.h,
                          axis=AXIS_OF_COMPONENT[j], edge_order=2)
    return c1, 0.5 * c2


def c2_by_convolution(grid, params):
    """The convolution route to c2, (1/2) sum_k (sum_j d_j a_jk) * (v_k mu)
    = -mu_prefactor sum_k (|u|^gamma u_k) * (v_k e^{-|v|^2/2}), unwrapped,
    with no b table: each term reads |u|^gamma from
    `radial_power_convolutions`, with u_k in axis k's odd factor matrix.
    The y and z terms share the Gaussian's x pass, and the x and y terms,
    whose z factor is the Gaussian, share one z contraction."""
    gauss = np.exp(-0.5 * grid.axis ** 2)
    w = toeplitz_factor(grid, gauss)
    wu = toeplitz_factor(grid, grid.axis * gauss, odd=True)
    xy_terms, z_term = radial_power_convolutions(
        grid, params.gamma, [(w, [(w, wu), (wu, w)]), (wu, [(w, w)])])
    xy_terms += z_term
    xy_terms *= -params.mu_prefactor
    return xy_terms


def crosscheck_c2(c2, grid, params):
    """Relative L^2 difference of c2 and its convolution route."""
    c2_conv = c2_by_convolution(grid, params)
    num = math.sqrt(float(np.sum((c2_conv - c2) ** 2)))
    den = math.sqrt(float(np.sum(c2 ** 2)))
    return num / max(den, 1e-300)


# ---------------------------------------------------------------------------
# kernel tables for FFT convolution
# ---------------------------------------------------------------------------

def cell_average_radial_power(exponent, h):
    """Mean of |u|^p, p > -3, over the cube of side h centered at the origin.

    The cube is 48 congruent simplices 0 <= u_1 <= u_2 <= u_3 <= h/2 (up
    to signs and order); with u = r (s t, s, 1) the radial integral is in
    closed form and leaves

        48 2^{-(p+3)} / (p+3) h^p int_0^1 int_0^1 s (1+s^2+s^2 t^2)^{p/2} ds dt,

    whose integrand is smooth: a 16 x 16 Gauss-Legendre rule agrees with
    64 x 64 to 8e-16 at p = -2.9.
    """
    x, w = np.polynomial.legendre.leggauss(16)
    s, w = 0.5 * (x + 1.0), 0.5 * w
    ss = s[:, None] * s[:, None]
    integrand = s[:, None] * (1.0 + ss + ss * (s * s)[None, :]) ** (0.5 * exponent)
    integral = float(w @ integrand @ w)
    p3 = exponent + 3.0
    return 48.0 * 2.0 ** -p3 / p3 * integral * h ** exponent


def _lattice_offsets(grid, pad):
    """The 1-d shifts 0, h, ..., -h of the lattice of M = pad N points, in
    FFT layout."""
    if pad not in (1, 2):
        raise ValueError(f"pad must be 1 or 2, got {pad}")
    m = pad * grid.N
    return np.fft.fftfreq(m) * m * grid.h


def _lattice_squares(offs, planes=slice(None)):
    """|u|^2 on the lattice whose axes hold the 1-d shifts `offs`, on the
    z-planes `planes` (a slice, all of them by default); its zero-shift
    entry is 1, so that every power of it is 1 there, for the caller to
    rewrite."""
    ux = offs[None, None, :]
    uy = offs[None, :, None]
    uz = offs[planes, None, None]
    n2 = (ux * ux + uy * uy) + uz * uz
    if not planes.start:
        n2[0, 0, 0] = 1.0
    return n2


# kernel values per block of `radial_power_convolutions` (512 kB): its peak
# is then the N x N x N partial sums of its groups, not a table
_STREAM_ELEMENTS = 1 << 16


def toeplitz_factor(grid, f, odd=False):
    """The N x N factor matrix W[s, i] = f[i - s] + f[i + s] of a 1-d
    factor f (zero off the grid; f[i] alone at s = 0): the pad-2 Toeplitz
    matrix W[(i - i') mod M, i] = f[i'], M = 2N, folded, row s plus row
    M - s, for a kernel even along its axis (row N, the shift -N h, is
    zero: no two nodes are that far apart).  `odd` scales each row by its
    shift u(s) before the fold, to carry a factor u_k of the kernel."""
    n = grid.N
    i = np.arange(n)
    w = np.zeros((2 * n, n))
    w[(i[None, :] - i[:, None]) % (2 * n), i[None, :]] = f[:, None]
    if odd:
        w *= _lattice_offsets(grid, 2)[:, None]
    w[1:n] += w[:n:-1]
    return w[:n].copy()


def radial_power_convolutions(grid, exponent, groups):
    """Unwrapped sums of the pad-2 kernel K = |u|^exponent against
    separable factors, without a (2N)^3 table.  `groups` holds pairs
    (wz, terms), terms a sequence of (wy, wx) of N x N matrices over the
    shifts s = 0 .. N-1 of each axis; each group gives

        h^3 sum_terms sum_s K[s] wz[s_z, i_z] wy[s_y, i_y] wx[s_x, i_x],

    its terms summed before the one z contraction at the end.  K is even
    along every axis, so with `toeplitz_factor` matrices, which fold the
    shift -s onto s, this is the convolution of K with the density
    wz wy wx.  K is formed on the shifts 0 .. N-1 of each axis only, N^3
    values, with the origin cell's exact average: _STREAM_ELEMENTS at a
    time, a block of z-planes, each contracted with the matrices in x,
    then in y.  Terms that pass the same wx object share its x pass.
    Every product is a `serial_matmul`."""
    n = grid.N
    offs = _lattice_offsets(grid, 2)[:n]
    partial = [np.zeros((n, n, n)) for _ in groups]
    planes = max(1, _STREAM_ELEMENTS // n ** 2)
    for z0 in range(0, n, planes):
        k = _lattice_squares(offs, slice(z0, z0 + planes))
        np.power(k, 0.5 * exponent, out=k)
        if z0 == 0:
            k[0, 0, 0] = cell_average_radial_power(exponent, grid.h)
        x_pass = {id(wx): serial_matmul(k, wx)
                  for _, terms in groups for _, wx in terms}
        del k  # no block outlives its passes
        for (_, terms), p in zip(groups, partial):
            for wy, wx in terms:
                p[z0:z0 + planes] += serial_matmul(wy.T, x_pass[id(wx)])
        del x_pass
    out = []
    for wz, _ in groups:
        # each partial sum is freed once contracted
        conv = serial_matmul(wz.T, partial.pop(0).reshape(n, n * n))
        conv *= grid.cell_volume
        out.append(conv.reshape(n, n, n))
    return out


@dataclass
class KernelTables:
    """Sampled convolution kernels on the shift lattice in FFT layout
    (index 0 is the zero shift).  The singular zero-shift cell of a_jk is
    replaced by its analytic cell average; the divergence kernel is odd,
    so its zero-shift entry is 0.  `comps` holds the nine distinct tables,
    (b_x, b_y, b_z) and then a_jk in the order of _SYM_INDEX."""

    grid: VelocityGrid
    params: KernelParams
    pad: int
    comps: np.ndarray            # (9, M, M, M), M = pad * N

    @property
    def b_comps(self):
        return self.comps[:3]

    @property
    def a_comps(self):
        return self.comps[3:]


@dataclass(frozen=True)
class KernelTableStream:
    """The nine tables of `KernelTables.comps` on the shift lattice, in
    their order, formed one at a time by `kernel_entries` as they are read.
    Each zero shift, 0/0 there, is rewritten: b_j and the off-diagonal
    a_jk to 0, the diagonal a_jj to the cell average.  The stream holds no
    table once its reader has taken the next one, so a reader that keeps
    none holds one table at a time."""

    grid: VelocityGrid
    params: KernelParams
    pad: int = 1

    def __len__(self):
        return 9

    def __iter__(self):
        # the direction average of (I - uhat uhat^T) over the symmetric
        # cell is (2/3) I
        avg = (2.0 / 3.0) * cell_average_radial_power(self.params.gamma + 2.0,
                                                      self.grid.h)
        offs = _lattice_offsets(self.grid, self.pad)
        entries = kernel_entries(
            (offs[None, None, :], offs[None, :, None], offs[:, None, None]),
            self.params.gamma)
        for origin in (0.0, 0.0, 0.0, avg, avg, avg, 0.0, 0.0, 0.0):
            with np.errstate(divide="ignore", invalid="ignore"):
                table = next(entries)
            table[0, 0, 0] = origin
            yield table
            del table  # hold no table while the next one is formed


def tabulate_fft_kernels(grid, params, pad=1):
    """`KernelTableStream` stacked into one KernelTables."""
    stream = KernelTableStream(grid, params, pad)
    m = pad * grid.N
    tables = np.empty((len(stream), m, m, m))
    # next(), not zip, whose cached result holds each table while the
    # next is formed
    comps = iter(stream)
    for table in tables:
        table[...] = next(comps)
    return KernelTables(grid, params, pad, tables)


# ---------------------------------------------------------------------------
# assembled coefficient set
# ---------------------------------------------------------------------------

@dataclass
class LandauCoefficients:
    """abar, the scalar weights and the forms built from them, on one grid;
    the kernel tables are tabulated by `operator.make_context`."""

    grid: VelocityGrid
    params: KernelParams
    abar: UniaxialField
    c1: np.ndarray
    c2: np.ndarray

    @cached_property
    def mu_half(self):
        return sqrt_maxwellian_field(self.grid, self.params)

    @cached_property
    def a_form(self):
        """The energy norm ||f||_A^2 = (abar grad f, grad f) + (c1 f, f)."""
        return EnergyForm(self.abar, self.c1)

    @cached_property
    def l1_form(self):
        """L1 = -div(abar grad) + (c1 - c2)."""
        return EnergyForm(self.abar, self.c1 - self.c2)

    @cached_property
    def split_form(self):
        """The coercivity split form: <v>^g along v, <v>^{g+2} across it and
        on f."""
        g = self.params.gamma
        weight = UniaxialField(self.grid, self.grid.bracket_weight(g),
                               self.grid.bracket_weight(g + 2.0))
        return EnergyForm(weight, weight.across)

    @property
    def invariants(self):
        """Orthonormal basis of the invariants mu^{1/2} (1, v, |v|^2), the
        null space of L; built on each read, so only its reader holds it."""
        grid, mh = self.grid, self.mu_half.values
        basis = []
        for c in (mh, *(np.asarray(v) * mh for v in grid.coords), grid.radius_sq * mh):
            f = project_off_invariants(ScalarField(grid, c), basis)
            basis.append(normalized(f))
        return tuple(basis)


def c2_tolerance(grid, quad):
    """Combined tolerance for the two c2 routes: quadrature rtol or the
    O(h^2) stencil scale, whichever dominates."""
    return min(0.5, max(quad.rtol, grid.h ** 2))


def build_coefficients(grid, params, quad=QuadratureSpec()):
    """Compute the full coefficient set, cross-checking c2 against the
    convolution route; a disagreement raises CrossCheckError."""
    abar = compute_abar_field(grid, params, quad)
    c1, c2 = compute_scalar_weights(abar, grid)
    rel = crosscheck_c2(c2, grid, params)
    tol = c2_tolerance(grid, quad)
    if not rel <= tol:  # a NaN route fails too
        raise CrossCheckError(
            f"c2 routes disagree: relative L2 difference {rel:.3e} > {tol:.3e}"
        )
    return LandauCoefficients(grid, params, abar, c1, c2)
