import math

import numpy as np
import pytest

from landau.errors import QuadratureError
from landau.field import VectorField
from landau.grid import VelocityGrid
from landau.kernel import (KernelParams, QuadratureSpec, _radial_rule,
                           abar_profiles_at, c2_by_convolution,
                           cell_average_radial_power, compute_abar_field,
                           compute_scalar_weights, kernel_first_derivatives,
                           kernel_matrix_batch, maxwellian_field,
                           polar_integrals, tabulate_divergence_kernels,
                           tabulate_fft_kernels)
from landau.operator import ConvolutionEngine
from tests.conftest import abar_matrix


def test_gamma_range_enforced():
    with pytest.raises(ValueError):
        KernelParams(0.0)
    with pytest.raises(ValueError):
        KernelParams(-3.0)
    KernelParams(-2.9999)


def _divergence(v, gamma):
    """b_j = sum_k d_k a_jk, the trace of the analytic first derivatives."""
    return np.einsum("...kjk->...j", kernel_first_derivatives(v, gamma))


def test_kernel_matrix_axis_point():
    # unit radius on the x axis projects off the axis
    a = kernel_matrix_batch(np.array([1.0, 0.0, 0.0]), -1.0)
    assert np.allclose(a, np.diag([0.0, 1.0, 1.0]), atol=1e-15)


def test_kernel_matrix_hand_value():
    # |v|^{gamma+2} (I - vhat vhat) at v = 2 e_z, gamma = -2
    a = kernel_matrix_batch(np.array([0.0, 0.0, 2.0]), -2.0)
    assert np.allclose(a, np.diag([1.0, 1.0, 0.0]), atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("gamma", [-0.5, -1.0, -2.5])
def test_kernel_null_identities(seed, gamma):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-4, 4, (50, 3))
    v = v[np.linalg.norm(v, axis=1) >= 0.3]
    r = np.linalg.norm(v, axis=1)
    a = kernel_matrix_batch(v, gamma)
    assert np.all(np.abs(np.einsum("pj,pjk,pk->p", v, a, v))
                  <= 1e-12 * r ** (gamma + 4.0))
    assert np.all(np.max(np.abs(np.einsum("pjk,pk->pj", a, v)), axis=1)
                  <= 1e-12 * r ** (gamma + 3.0))


@pytest.mark.parametrize("v,gamma,expected", [
    ((0.0, 0.0, 2.0), -2.0, (0.0, 0.0, -1.0)),
    ((1.0, 0.0, 0.0), -1.0, (-2.0, 0.0, 0.0)),
])
def test_kernel_divergence_values(v, gamma, expected):
    # b = -2 |v|^gamma v
    b = _divergence(np.array(v), gamma)
    assert np.allclose(b, expected, atol=1e-14)


def test_kernel_divergence_odd():
    rng = np.random.default_rng(3)
    v = rng.uniform(-3, 3, (20, 3))
    v = v[np.linalg.norm(v, axis=1) >= 0.3]
    assert np.allclose(_divergence(-v, -1.5), -_divergence(v, -1.5), rtol=1e-13)


def test_kernel_divergence_matches_finite_differences():
    # centered differences of the matrix rows converge at second order
    gamma = -1.0
    v = np.array([1.3, -0.7, 2.1])
    b_exact = _divergence(v, gamma)

    def fd_divergence(h):
        b = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            ap = kernel_matrix_batch(v + e, gamma)
            am = kernel_matrix_batch(v - e, gamma)
            b += (ap[:, k] - am[:, k]) / (2.0 * h)
        return b

    err_h = np.max(np.abs(fd_divergence(0.02) - b_exact))
    err_h2 = np.max(np.abs(fd_divergence(0.01) - b_exact))
    assert 3.0 <= err_h / err_h2 <= 5.0


def test_maxwellian_values():
    # R = 2, N = 16: node (8, 8, 8) sits at (h/2)(1, 1, 1)
    grid = VelocityGrid(R=2.0, N=16)
    i0 = (8, 8, 8)
    v0_sq = 3.0 * (0.5 * grid.h) ** 2
    mu = maxwellian_field(grid, KernelParams(-1.0)).values
    assert mu[i0] == pytest.approx(
        (2.0 * math.pi) ** -1.5 * math.exp(-0.5 * v0_sq), rel=1e-14)
    # ratio between two nodes removes the prefactor
    i1 = (8, 8, 12)  # v_x = 4.5 h
    ratio = mu[i1] / mu[i0]
    assert ratio == pytest.approx(math.exp(-0.5 * (4.5 ** 2 - 0.5 ** 2) * grid.h ** 2),
                                  rel=1e-14)
    # literal positive-exponent prefactor variant
    mu_raw = maxwellian_field(grid, KernelParams(-1.0, mu_normalized=False)).values
    assert mu_raw[i0] == pytest.approx(
        (2.0 * math.pi) ** 1.5 * math.exp(-0.5 * v0_sq), rel=1e-14)


def test_maxwellian_unit_mass():
    grid = VelocityGrid(R=8.0, N=64)
    mu = maxwellian_field(grid, KernelParams(-1.0))
    total = float(np.sum(mu.values)) * grid.cell_volume
    assert total == pytest.approx(1.0, abs=1e-6)


def test_abar_origin_closed_form():
    # abar(0) = (2/3) C_mu 4 pi int r^{g+4} e^{-r^2/2} dr; the radial
    # integral is 2 for gamma = -1
    p = KernelParams(-1.0)
    closed = (16.0 * math.pi / 3.0) * (2.0 * math.pi) ** -1.5
    l_par, l_perp = abar_profiles_at(np.array([0.0]), p, QuadratureSpec())
    assert l_par[0] == pytest.approx(closed, rel=1e-8)
    assert l_perp[0] == pytest.approx(closed, rel=1e-8)


def test_abar_origin_closed_form_strong_singularity():
    # gamma = -2.5: radial integral int r^{3/2} e^{-r^2/2} dr = 2^{1/4} Gamma(5/4)
    p = KernelParams(-2.5)
    radial = 2.0 ** 0.25 * math.gamma(1.25)
    closed = (2.0 / 3.0) * (2.0 * math.pi) ** -1.5 * 4.0 * math.pi * radial
    l_par, _ = abar_profiles_at(np.array([0.0]), p, QuadratureSpec())
    assert l_par[0] == pytest.approx(closed, rel=1e-7)


def test_abar_quadrature_rejects_impossible_tolerance():
    p = KernelParams(-2.9)
    with pytest.raises(QuadratureError):
        abar_profiles_at(np.array([4.0]), p, QuadratureSpec(rtol=1e-16))


def _polar_integrals_by_gauss(s, r):
    """Both polar integrals by composite 30-point Gauss-Legendre in
    u = 1 - t on [0, 2], with panels halving toward u = 0, where
    e^{-(s^2+r^2)/2} e^{s r t} = e^{-(s-r)^2/2} e^{-s r u} lives for large
    s r; in u the exponent carries no rounding of 1 - t."""
    x, w = np.polynomial.legendre.leggauss(30)
    edges = np.array([0.0] + [2.0 ** (1 - k) for k in range(40, -1, -1)])
    lo, hi = edges[:-1, None], edges[1:, None]
    u = (0.5 * (hi - lo) * (x + 1.0) + lo).ravel()
    wu = (0.5 * (hi - lo) * w).ravel()
    e = wu * np.exp(-0.5 * (s - r) ** 2 - s * r * u)
    return np.sum(u * (2.0 - u) * e), np.sum(0.5 * (1.0 + (1.0 - u) ** 2) * e)


def test_polar_integrals_closed_form_against_gauss_rule():
    # a = s r from 0 to 320: s = 0, both sides of the series' switch at
    # a = 0.5, and beyond the largest s r (about 300) of an R = 8 box
    pairs = [(s, r) for s in (0.0, 1e-3, 0.1, 0.7, 1.0, 3.0, 8.0, 13.86)
             for r in (0.0, 1e-4, 0.01, 0.3, 0.5, 0.72, 1.0, 2.0, 5.0, 10.0,
                       17.88, 22.0)]
    pairs += [(1.0, 0.4999), (1.0, 0.5001), (0.02, 22.0),
              (math.sqrt(320.0), math.sqrt(320.0)), (16.0, 20.0)]
    for s, r in pairs:
        got = polar_integrals(np.array(s), np.array(r))
        want = _polar_integrals_by_gauss(s, r)
        for g, w in zip(got, want):
            assert abs(float(g) - w) <= 1e-13 * w, (s, r)
    # broadcast over (s, r) blocks like the profiles use them
    s = np.array([0.0, 0.3, 4.0])[:, None]
    r = np.array([0.0, 1.0, 9.0])[None, :]
    par, perp = polar_integrals(s, r)
    assert par.shape == perp.shape == (3, 3)
    assert par[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert perp[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-15)


def _product_rule_profiles(s, gamma, radial_order, r_max, angular_order=64):
    """The abar profiles by the radial rule times a Gauss-Legendre rule of
    `angular_order` points in t = cos(theta), the polar rule the closed
    form replaced."""
    r, wr = _radial_rule(r_max, radial_order)
    t, wt = np.polynomial.legendre.leggauss(angular_order)
    expo = np.exp(-0.5 * (s[:, None, None] ** 2 + r[None, :, None] ** 2)
                  + s[:, None, None] * r[None, :, None] * t[None, None, :])
    radial = wr * r ** (gamma + 4.0)
    pref = 2.0 * math.pi * KernelParams(gamma).mu_prefactor
    return (pref * ((expo @ (wt * (1.0 - t * t))) @ radial),
            pref * ((expo @ (wt * 0.5 * (1.0 + t * t))) @ radial))


@pytest.mark.parametrize("gamma", [-1.0, -2.0])
def test_abar_profiles_match_product_rule(gamma):
    # node radii of an R = 8 box, 0 included, on the doubled radial order
    # that abar_profiles_at returns
    s = np.concatenate([[0.0], np.linspace(0.05, 8.0 * math.sqrt(3.0), 47)])
    quad = QuadratureSpec()
    got = abar_profiles_at(s, KernelParams(gamma), quad)
    want = _product_rule_profiles(s, gamma, 2 * quad.radial_order, s.max() + 8.0)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w) / w) <= 1e-12


def test_c2_one_inverse_matches_three_inverse_route(small_grid, params):
    # the separable transforms summed before one inverse, against three
    # zero-padded forward transforms of v_k mu and three inverses
    b_padded = tabulate_divergence_kernels(small_grid, params, pad=2)
    got = c2_by_convolution(small_grid, params, b_padded)
    engine = ConvolutionEngine(small_grid, b_padded, pad=2)
    mu = maxwellian_field(small_grid, params).values
    want = 0.5 * sum(
        engine.inverse(engine.hats[k] * engine.forward(
            np.asarray(small_grid.component(k)) * mu)) for k in range(3))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_abar_field_psd_and_eigen_scaling(small_grid, params, small_coeffs):
    abar = small_coeffs.abar
    assert abar.min_eigenvalue_ratio() >= -1e-10

    # parallel eigenvalue ~ <v>^g, transverse ~ <v>^{g+2} on the outer
    # shell, read through the form on v and on v x e_z (cell centering
    # keeps v off the z axis)
    r = small_grid.radius
    vx, vy, vz = (np.asarray(c) for c in small_grid.coords)
    vhat = np.stack([vx, vy, vz]) / r
    l_par = abar.quadratic_form(VectorField(small_grid, vhat))
    across = np.stack([vy, -vx, np.zeros_like(vz)]) / np.hypot(vx, vy)
    l_perp = abar.quadratic_form(VectorField(small_grid, across))
    shell = r >= 0.75 * small_grid.R
    par_ratio = l_par[shell] / (1.0 + r[shell] ** 2) ** (params.gamma / 2.0)
    perp_ratio = l_perp[shell] / (1.0 + r[shell] ** 2) ** ((params.gamma + 2.0) / 2.0)
    for ratio in (par_ratio, perp_ratio):
        assert 0.2 <= ratio.min() and ratio.max() <= 5.0


def test_abar_rotation_equivariance(params):
    # under the 90-degree rotation R about z, abar(Rv) = R abar(v) R^T;
    # the grid maps onto itself, so this is an exact array identity
    grid = VelocityGrid(R=6.0, N=16)
    m = abar_matrix(compute_abar_field(grid, params))
    xx, yy, zz, xy, xz, yz = m[0, 0], m[1, 1], m[2, 2], m[0, 1], m[0, 2], m[1, 2]

    def at_rotated(comp):
        # value at Rv = (-v_y, v_x, v_z) for the node at (v_x, v_y, v_z)
        return comp.transpose(0, 2, 1)[:, ::-1, :]

    assert np.allclose(at_rotated(xx), yy, rtol=1e-12, atol=1e-15)
    assert np.allclose(at_rotated(zz), zz, rtol=1e-12, atol=1e-15)
    assert np.allclose(at_rotated(xy), -xy, rtol=1e-12, atol=1e-15)
    assert np.allclose(at_rotated(xz), -yz, rtol=1e-12, atol=1e-15)


def test_scalar_weights(small_grid, small_coeffs):
    c1, c2 = small_coeffs.c1, small_coeffs.c2
    assert c1.min() >= 0.0
    # c1 = (1/4) l_par |v|^2 <= (1/4) l_par |v|^2 with equality by construction
    ex, ey, ez = small_grid.unit_vectors
    vhat = np.stack([np.asarray(ex), np.asarray(ey), np.asarray(ez)])
    l_par = small_coeffs.abar.quadratic_form(VectorField(small_grid, vhat))
    assert np.all(c1 <= 0.25 * l_par * small_grid.radius_sq + 1e-12)
    # c1 vanishes only toward the origin cells
    assert c1.reshape(-1)[np.argmin(small_grid.radius_sq)] == pytest.approx(
        0.25 * l_par.reshape(-1)[np.argmin(small_grid.radius_sq)]
        * small_grid.radius_sq.min(), rel=1e-12)
    # the two c2 routes agreed at build time
    assert small_coeffs.c2_crosscheck <= 0.05
    # decay bound for the divergence field
    wgt = small_grid.bracket_weight(small_coeffs.params.gamma + 1.0)
    assert np.isfinite(np.max(np.abs(2.0 * c2) / wgt))


def _midpoint_cell_average(p, h, subcells):
    """Mean of |u|^p over the origin cube of side h by the midpoint rule
    on subcells^3 subcubes."""
    q = (np.arange(subcells) + 0.5) / subcells - 0.5
    r2 = q[:, None, None] ** 2 + q[None, :, None] ** 2 + q[None, None, :] ** 2
    return float(np.mean(r2 ** (0.5 * p))) * h ** p


def test_cell_average_radial_power_subgrid_oracle():
    h = 0.5
    # exact means: 1 at p = 0 and, at p = 2, 3 (h^2 / 12) = h^2 / 4
    assert cell_average_radial_power(0.0, h) == pytest.approx(1.0, rel=1e-14)
    assert cell_average_radial_power(2.0, h) == pytest.approx(h * h / 4.0,
                                                              rel=1e-14)
    # at p = 1 the midpoint rule converges to it, at second order, as its
    # subcells double
    exact = cell_average_radial_power(1.0, h)
    errs = [abs(_midpoint_cell_average(1.0, h, n) - exact) / exact
            for n in (8, 16, 32)]
    assert errs[0] > errs[1] > errs[2] and errs[1] / errs[2] >= 3.0
    assert errs[2] <= 5e-4
    # the former 64^3 midpoint rule misses the strongly singular mean
    exact = cell_average_radial_power(-2.5, h)
    assert abs(_midpoint_cell_average(-2.5, h, 64) - exact) > 0.1 * exact


def test_fft_tables_zero_shift(small_grid, params):
    tables = tabulate_fft_kernels(small_grid, params)
    # odd divergence kernel has zero cell average
    assert np.all(tables.b_comps[:, 0, 0, 0] == 0.0)
    # diagonal entries carry (2/3) of the radial cell average, off-diagonals zero
    avg = cell_average_radial_power(params.gamma + 2.0, small_grid.h)
    assert np.allclose(tables.a_comps[:3, 0, 0, 0], (2.0 / 3.0) * avg, rtol=1e-13)
    assert np.all(tables.a_comps[3:, 0, 0, 0] == 0.0)
    # off-origin samples match the pointwise kernel
    u = np.array([2.0 * small_grid.h, small_grid.h, -small_grid.h])
    a = kernel_matrix_batch(u, params.gamma)
    iz, iy, ix = (int(round(c / small_grid.h)) % tables.M for c in (u[2], u[1], u[0]))
    assert tables.a_comps[3, iz, iy, ix] == pytest.approx(a[0, 1], rel=1e-13)
    assert tables.a_comps[0, iz, iy, ix] == pytest.approx(a[0, 0], rel=1e-13)


def test_batch_matches_pointwise(params):
    # against |v|^{gamma+2} (I - vhat vhat^T), point by point
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3, 3, (20, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.4]
    batch = kernel_matrix_batch(pts, params.gamma)
    for i, v in enumerate(pts):
        r = np.linalg.norm(v)
        vhat = v / r
        expected = r ** (params.gamma + 2.0) * (np.eye(3) - np.outer(vhat, vhat))
        assert np.allclose(batch[i], expected, rtol=1e-13, atol=1e-15)


def test_kernel_derivative_tensors_match_finite_differences():
    from landau.kernel import kernel_second_derivatives

    gamma = -1.5
    v = np.array([[1.1, -0.6, 0.9]])
    h = 1e-5
    d1 = kernel_first_derivatives(v, gamma)[0]  # [l, j, k]
    d2 = kernel_second_derivatives(v, gamma)[0]  # [m, l, j, k]
    for l in range(3):
        e = np.zeros(3)
        e[l] = h
        fd = (kernel_matrix_batch(v + e, gamma)[0]
              - kernel_matrix_batch(v - e, gamma)[0]) / (2 * h)
        assert np.allclose(d1[l], fd, atol=1e-8)
        for m in range(3):
            em = np.zeros(3)
            em[m] = h
            fd2 = (kernel_first_derivatives(v + em, gamma)[0][l]
                   - kernel_first_derivatives(v - em, gamma)[0][l]) / (2 * h)
            assert np.allclose(d2[m, l], fd2, atol=1e-6)


def _six_component_products(m, V):
    """M V and V . M V by the six-component products (xx, yy, zz, xy, xz,
    yz) of an assembled matrix field m, term by term as they were stored."""
    xx, yy, zz = m[0, 0], m[1, 1], m[2, 2]
    xy, xz, yz = m[0, 1], m[0, 2], m[1, 2]
    gx, gy, gz = V
    applied = np.stack([xx * gx + xy * gy + xz * gz,
                        xy * gx + yy * gy + yz * gz,
                        xz * gx + yz * gy + zz * gz])
    form = (xx * gx * gx + yy * gy * gy + zz * gz * gz
            + 2.0 * (xy * gx * gy + xz * gx * gz + yz * gy * gz))
    return applied, form


@pytest.mark.parametrize("coeffs_name", ["small_coeffs", "medium_coeffs"])
def test_uniaxial_field_matches_assembled_products(coeffs_name, request):
    # abar's two-profile apply and quadratic form against the products of
    # its assembled components, on random vector fields at N = 16 and 24
    abar = request.getfixturevalue(coeffs_name).abar
    rng = np.random.default_rng(3)
    for _ in range(2):
        V = rng.standard_normal((3,) + abar.grid.shape)
        applied, form = _six_component_products(abar_matrix(abar), V)
        got = abar.apply(VectorField(abar.grid, V)).comps
        assert np.max(np.abs(got - applied)) <= 1e-14 * np.max(np.abs(applied))
        got = abar.quadratic_form(VectorField(abar.grid, V))
        assert np.max(np.abs(got - form)) <= 1e-14 * np.max(np.abs(form))


def test_abar_profiles_on_the_grid(small_grid, params, quad, small_coeffs):
    # along and across are l_par and l_perp at each node's radius (the
    # radial rule ends at the largest radius asked for plus 8, so a subset
    # of the radii agrees to quadrature accuracy, not bit for bit)
    abar = small_coeffs.abar
    r = small_grid.radius.reshape(-1)[:50]
    l_par, l_perp = abar_profiles_at(r, params, quad)
    assert np.allclose(abar.along.reshape(-1)[:50], l_par, rtol=1e-10, atol=0)
    assert np.allclose(abar.across.reshape(-1)[:50], l_perp, rtol=1e-10, atol=0)
