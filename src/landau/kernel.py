"""Collision kernel, Maxwellian background, and precomputed coefficient fields.

The interaction kernel is

    a_jk(v) = (delta_jk |v|^2 - v_j v_k) |v|^gamma,   -3 < gamma < 0,

a positive semidefinite projection off the v direction scaled by |v|^{gamma+2}.
The smoothed diffusion matrix abar = a * mu (Gaussian-weighted convolution)
is stored as its two radial profiles, the eigenvalue l_par along v and the
double eigenvalue l_perp across it (`UniaxialField`).  With the polar axis
along v, the azimuthal and the polar integrals are both in closed form; only
the radial integral, with its r^{gamma+4} endpoint singularity, is a
Gauss-Legendre rule, checked by doubling its order.  c1 and c2 follow from
l_par alone, as abar v = l_par v.  The c2 cross-check convolves the separable
fields v_k mu on the pad-2 lattice, whose transforms are outer products of
1-d transforms.  The kernel tables' origin cell is the exact cell average.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .errors import CrossCheckError, QuadratureError
from .field import ScalarField, VectorField, inner_product, l2_norm
from .grid import AXIS_OF_COMPONENT, VelocityGrid

# position of a_jk among the six a-tables (xx, yy, zz, xy, xz, yz)
_SYM_INDEX = {(0, 0): 0, (1, 1): 1, (2, 2): 2,
              (0, 1): 3, (1, 0): 3, (0, 2): 4, (2, 0): 4, (1, 2): 5, (2, 1): 5}


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

def kernel_matrix_batch(points, gamma):
    """a_jk at an array of points, shape (..., 3) -> (..., 3, 3)."""
    pts = np.asarray(points, dtype=float)
    n2 = np.sum(pts * pts, axis=-1)
    ng = n2 ** (0.5 * gamma)
    out = -ng[..., None, None] * (pts[..., :, None] * pts[..., None, :])
    idx = np.arange(3)
    out[..., idx, idx] += (ng * n2)[..., None]
    return out


def kernel_first_derivatives(points, gamma):
    """d_l a_jk at points (..., 3) -> (..., 3, 3, 3) indexed [l, j, k]."""
    pts = np.asarray(points, dtype=float)
    n2 = np.sum(pts * pts, axis=-1)
    ng = n2 ** (0.5 * gamma)
    ngm2 = n2 ** (0.5 * gamma - 1.0)
    eye = np.eye(3)
    vl = pts[..., :, None, None]
    vj = pts[..., None, :, None]
    vk = pts[..., None, None, :]
    t1 = (gamma + 2.0) * ng[..., None, None, None] * eye[None, :, :] * vl
    t2 = -ng[..., None, None, None] * (
        eye[:, :, None][None] * vk + eye[:, None, :][None] * vj
    )
    t3 = -gamma * ngm2[..., None, None, None] * vj * vk * vl
    return t1 + t2 + t3


def kernel_second_derivatives(points, gamma):
    """d_m d_l a_jk at points (..., 3) -> (..., 3, 3, 3, 3) indexed [m, l, j, k]."""
    pts = np.asarray(points, dtype=float)
    n2 = np.sum(pts * pts, axis=-1)
    ng = n2 ** (0.5 * gamma)
    ngm2 = n2 ** (0.5 * gamma - 1.0)
    ngm4 = n2 ** (0.5 * gamma - 2.0)
    eye = np.eye(3)
    v = pts
    sh = pts.shape[:-1]
    out = np.zeros(sh + (3, 3, 3, 3))
    for m in range(3):
        for l in range(3):
            for j in range(3):
                for k in range(3):
                    t = (gamma + 2.0) * eye[j, k] * (
                        gamma * ngm2 * v[..., m] * v[..., l] + ng * eye[l, m]
                    )
                    t -= (eye[j, l] * eye[k, m] + eye[k, l] * eye[j, m]) * ng
                    t -= gamma * ngm2 * (eye[j, l] * v[..., k] + eye[k, l] * v[..., j]) * v[..., m]
                    t -= gamma * (
                        (eye[j, m] * v[..., k] + eye[k, m] * v[..., j]) * v[..., l] * ngm2
                        + v[..., j] * v[..., k]
                        * ((gamma - 2.0) * ngm4 * v[..., m] * v[..., l] + ngm2 * eye[l, m])
                    )
                    out[..., m, l, j, k] = t
    return out


def maxwellian_field(grid, params):
    return ScalarField(grid, params.mu_prefactor * np.exp(-0.5 * grid.radius_sq))


def sqrt_maxwellian_field(grid, params):
    return ScalarField(
        grid, math.sqrt(params.mu_prefactor) * np.exp(-0.25 * grid.radius_sq)
    )


def collision_invariant_basis(grid, params):
    """Orthonormal discrete span of the collision invariants
    mu^{1/2} (1, v, |v|^2): the null directions of the linearized operator.

    Components along these directions neither decay nor grow under the
    free flow, so reference experiments usually remove them from data and
    forcing."""
    mh = sqrt_maxwellian_field(grid, params).values
    candidates = [mh]
    candidates += [np.asarray(grid.component(j)) * mh for j in range(3)]
    candidates.append(grid.radius_sq * mh)
    basis = []
    for c in candidates:
        f = ScalarField(grid, c.copy())
        for b in basis:
            f = f - inner_product(f, b) * b
        basis.append((1.0 / l2_norm(f)) * f)
    return basis


def project_off_invariants(f, params, basis=None):
    """Remove the collision-invariant components; preserves roughness.
    `basis` is `collision_invariant_basis(f.grid, params)` if the caller
    has built it already."""
    for b in basis or collision_invariant_basis(f.grid, params):
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
        a2, polyval = a * a, np.polynomial.polynomial.polyval
        par = np.where(small, np.exp(-a) * polyval(a2, _SERIES_PAR), par)
        perp = np.where(small, np.exp(-a) * polyval(a2, _SERIES_PERP), perp)
    return near * par, near * perp


def _abar_profiles(s_values, params, radial_order, r_max):
    """Parallel/transverse eigenvalue profiles of abar at radii s_values.

    With the polar axis along v the integrand factorizes; the azimuthal
    integral of the degree-2 dependence and the polar one
    (`polar_integrals`) are in closed form and leave

        l_par(s)  = 2 pi C_mu int r^{g+4} e^{-(s^2+r^2)/2} int (1-t^2)   e^{s r t} dt dr
        l_perp(s) = 2 pi C_mu int r^{g+4} e^{-(s^2+r^2)/2} int (1+t^2)/2 e^{s r t} dt dr

    for the radial rule.
    """
    r, wr = _radial_rule(r_max, radial_order)
    radial_factor = wr * r ** (params.gamma + 4.0)
    pref = 2.0 * math.pi * params.mu_prefactor
    par, perp = polar_integrals(s_values[:, None], r[None, :])
    return pref * (par @ radial_factor), pref * (perp @ radial_factor)


def abar_profiles_at(s_values, params, quad):
    """Public profile evaluation with the order-doubling convergence check."""
    s = np.asarray(s_values, dtype=float)
    r_max = float(s.max()) + 8.0
    base = _abar_profiles(s, params, quad.radial_order, r_max)
    fine = _abar_profiles(s, params, 2 * quad.radial_order, r_max)
    scale = max(float(np.max(np.abs(fine[0]))), float(np.max(np.abs(fine[1]))))
    err = max(float(np.max(np.abs(f - b))) for f, b in zip(fine, base)) / scale
    if err > quad.rtol:
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


def c2_by_convolution(grid, params, b_padded):
    """The convolution route to c2, (1/2) sum_k (sum_j d_j a_jk) * (v_k mu),
    evaluated without wrap on the pad-2 divergence tables `b_padded`
    (tabulate_divergence_kernels).  v_k mu is a product of 1-d factors, so
    its transforms are outer products (ConvolutionEngine.forward_separable),
    and the three products are summed before one inverse transform."""
    from .operator import ConvolutionEngine  # local import avoids a cycle

    engine = ConvolutionEngine(grid, b_padded, pad=2)
    gauss = np.exp(-0.5 * grid.axis ** 2)
    products = engine.hats             # this engine's own: overwritten here
    for k in range(3):
        factors = [gauss, gauss, gauss]
        factors[AXIS_OF_COMPONENT[k]] = grid.axis * gauss
        products[k] *= engine.forward_separable(factors)
    products[0] += products[1]
    products[0] += products[2]
    return (0.5 * params.mu_prefactor) * engine.inverse(products[0])


def crosscheck_c2(c2, grid, params, b_padded):
    """Relative L^2 agreement of c2 with the convolution route
    (`c2_by_convolution`) on the pad-2 divergence tables `b_padded`."""
    c2_conv = c2_by_convolution(grid, params, b_padded)
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


def _lattice_powers(grid, exponent, pad):
    """Shift coordinates (ux, uy, uz), |u|^2 and |u|^exponent in FFT layout;
    the zero-shift entry of both is 1, for the caller to rewrite."""
    if pad not in (1, 2):
        raise ValueError(f"pad must be 1 or 2, got {pad}")
    m = pad * grid.N
    offs = np.fft.fftfreq(m) * m * grid.h  # 0, h, ..., -h ordering
    ux = offs[None, None, :]
    uy = offs[None, :, None]
    uz = offs[:, None, None]
    n2 = (ux * ux + uy * uy) + uz * uz
    n2[0, 0, 0] = 1.0
    return (ux, uy, uz), n2, n2 ** (0.5 * exponent)


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
    comps: np.ndarray            # (9, M, M, M)

    @property
    def M(self):
        return self.pad * self.grid.N

    @property
    def b_comps(self):
        return self.comps[:3]

    @property
    def a_comps(self):
        return self.comps[3:]


def tabulate_divergence_kernels(grid, params, pad=1, out=None):
    """b_j(u) = sum_k d_k a_jk(u) = -2 |u|^gamma u_j on the shift lattice,
    shape (3, M, M, M), written into `out` when given; odd kernel,
    symmetric cell: zero-shift entry 0."""
    coords, _, ng = _lattice_powers(grid, params.gamma, pad)
    bcomps = np.empty((3,) + ng.shape) if out is None else out
    ng *= -2.0
    for j, uj in enumerate(coords):
        np.multiply(ng, uj, out=bcomps[j])
    bcomps[:, 0, 0, 0] = 0.0
    return bcomps


def tabulate_fft_kernels(grid, params, pad=1):
    """Tabulate b_j(u) = sum_k d_k a_jk(u) and a_jk(u) on the shift lattice."""
    m = pad * grid.N
    tables = np.empty((9, m, m, m))
    tabulate_divergence_kernels(grid, params, pad, out=tables[:3])
    (ux, uy, uz), n2, ng = _lattice_powers(grid, params.gamma, pad)
    ngp2 = ng * n2

    comps = tables[3:]
    comps[0] = ngp2 - ng * ux * ux
    comps[1] = ngp2 - ng * uy * uy
    comps[2] = ngp2 - ng * uz * uz
    comps[3] = -ng * ux * uy
    comps[4] = -ng * ux * uz
    comps[5] = -ng * uy * uz
    # zero-shift regularization: cell average of the radial factor; the
    # direction average of (I - uhat uhat^T) over the symmetric cell is (2/3) I
    avg = cell_average_radial_power(params.gamma + 2.0, grid.h)
    comps[:3, 0, 0, 0] = (2.0 / 3.0) * avg
    comps[3:, 0, 0, 0] = 0.0

    return KernelTables(grid, params, pad, tables)


def tabulate_radial_kernel(grid, exponent, pad=1):
    """Scalar radial kernel |u|^exponent on the shift lattice (FFT layout)."""
    _, _, table = _lattice_powers(grid, exponent, pad)
    table[0, 0, 0] = cell_average_radial_power(exponent, grid.h)
    return table


# ---------------------------------------------------------------------------
# assembled coefficient set
# ---------------------------------------------------------------------------

@dataclass
class LandauCoefficients:
    """Everything the operators need: abar, the scalar weights and the
    convolution kernel tables, all on one grid."""

    grid: VelocityGrid
    params: KernelParams
    quad: QuadratureSpec
    abar: UniaxialField
    c1: np.ndarray
    c2: np.ndarray
    tables: KernelTables
    c2_crosscheck: float = math.nan

    @cached_property
    def mu_half(self):
        return sqrt_maxwellian_field(self.grid, self.params)

    @cached_property
    def split_weight(self):
        """Gradient weight of the coercivity split form: <v>^g along v and
        <v>^{g+2} across it."""
        g = self.params.gamma
        return UniaxialField(self.grid, self.grid.bracket_weight(g),
                             self.grid.bracket_weight(g + 2.0))

    @cached_property
    def c1_minus_c2(self):
        """c1 - c2, the zeroth-order weight of L1, formed once."""
        return self.c1 - self.c2


def c2_tolerance(grid, quad):
    """Combined tolerance for the two c2 routes: quadrature rtol or the
    O(h^2) stencil scale, whichever dominates."""
    return min(0.5, max(quad.rtol, grid.h ** 2))


def build_coefficients(grid, params, quad=QuadratureSpec()):
    """Compute the full coefficient set, cross-checking c2 against the
    convolution route; a disagreement raises CrossCheckError."""
    abar = compute_abar_field(grid, params, quad)
    c1, c2 = compute_scalar_weights(abar, grid)
    tables = tabulate_fft_kernels(grid, params, pad=1)
    rel = crosscheck_c2(c2, grid, params,
                        tabulate_divergence_kernels(grid, params, pad=2))
    tol = c2_tolerance(grid, quad)
    if rel > tol:
        raise CrossCheckError(
            f"c2 routes disagree: relative L2 difference {rel:.3e} > {tol:.3e}"
        )
    return LandauCoefficients(grid, params, quad, abar, c1, c2, tables, rel)
