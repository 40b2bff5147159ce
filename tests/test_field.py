import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landau.errors import GridMismatchError
from landau.field import (ScalarField, VectorField, a_norm, a_norm_sq,
                          divergence, gradient, inner_product, l2_norm,
                          random_field, weighted_norm, wrapped_difference,
                          zeros)
from landau.grid import VelocityGrid
from tests.conftest import abar_matrix, gaussian_field


def test_grid_basics():
    g = VelocityGrid(R=8.0, N=32)
    assert g.h == pytest.approx(0.5)
    assert g.axis[0] == pytest.approx(-7.75)
    assert g.axis[-1] == pytest.approx(7.75)
    # cell centering leaves no node at the origin
    assert g.radius.min() > 0.4 * g.h
    with pytest.raises(ValueError):
        VelocityGrid(R=8.0, N=14)
    with pytest.raises(ValueError):
        VelocityGrid(R=8.0, N=17)


def test_grid_index_order():
    g = VelocityGrid(R=8.0, N=16)
    vx = np.asarray(g.component(0))
    # flat order (iz*N + iy)*N + ix with ix fastest
    flat = vx.reshape(-1)
    assert flat[1] - flat[0] == pytest.approx(g.h)


def test_bracket_weight_computed_once_read_only():
    g = VelocityGrid(R=8.0, N=16)
    w = g.bracket_weight(-1.0)
    assert g.bracket_weight(-1.0) is w
    assert np.array_equal(w, g.bracket_sq ** -0.5)
    assert np.array_equal(g.bracket_weight(0), np.ones(g.shape))
    with pytest.raises(ValueError):
        w[0, 0, 0] = 1.0


def test_weighted_norm_gaussian_value():
    # || e^{-|v|^2/2} ||_{L^2} = pi^{3/4} on a fine wide grid
    g = VelocityGrid(R=8.0, N=64)
    f = gaussian_field(g, width=1.0)
    assert weighted_norm(f, 2, 0.0) == pytest.approx(math.pi ** 0.75, abs=1e-4)


def test_weighted_norm_basics(small_grid):
    f = zeros(small_grid)
    assert weighted_norm(f, 2, 0.5) == 0.0
    g = gaussian_field(small_grid)
    # monotonicity in the weight exponent
    assert weighted_norm(g, 2, 0.25) <= weighted_norm(g, 2, 1.0)
    # homogeneity
    assert weighted_norm(3.0 * g, 2, -0.5) == pytest.approx(
        3.0 * weighted_norm(g, 2, -0.5), rel=1e-13)
    # only the quadrature norms p = 2 and 3
    for p in (4, math.inf):
        with pytest.raises(ValueError):
            weighted_norm(g, p)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_norm_triangle_inequality(small_grid, seed):
    f = random_field(small_grid, seed, bandlimit=5)
    g = random_field(small_grid, seed + 100, bandlimit=5)
    for ell in (-0.5, 0.0, 1.0):
        lhs = weighted_norm(f + g, 2, ell)
        rhs = weighted_norm(f, 2, ell) + weighted_norm(g, 2, ell)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_gradient_gaussian_oracle():
    # grad e^{-|v|^2/2} = -v e^{-|v|^2/2}, second order in h
    errs = []
    for n in (24, 48):
        g = VelocityGrid(R=6.0, N=n)
        f = gaussian_field(g, width=1.0)
        grad = gradient(f)
        err = 0.0
        for j in range(3):
            exact = -np.asarray(g.component(j)) * f.values
            err = max(err, float(np.max(np.abs(grad.comps[j] - exact))))
        errs.append(err)
    assert 3.4 <= errs[0] / errs[1] <= 4.6


def test_gradient_constant_field(small_grid):
    c = ScalarField(small_grid, np.full(small_grid.shape, 2.5))
    grad = gradient(c)
    assert np.all(grad.comps == 0.0)


def test_wrapped_difference_matches_roll():
    # bit for bit, on every axis of an array whose axes all differ in
    # length, and of a non-contiguous view of it
    x = np.random.default_rng(0).standard_normal((5, 6, 7))
    for arr in (x, x.transpose(2, 0, 1)):
        for axis in range(3):
            expected = np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)
            out = np.full(arr.shape, np.nan)
            assert wrapped_difference(arr, axis, out) is out
            assert np.array_equal(out, expected)
    with pytest.raises(ValueError):  # a non-contiguous out is refused
        wrapped_difference(x, 0, np.empty((7, 5, 6)).transpose(1, 2, 0))


def test_divergence_is_negative_adjoint(small_grid):
    f = random_field(small_grid, 5, bandlimit=5)
    V = gradient(random_field(small_grid, 6, bandlimit=5))
    lhs = inner_product(divergence(V), f)
    rhs = -sum(
        float(np.sum(V.comps[j] * gradient(f).comps[j]))
        for j in range(3)
    ) * small_grid.cell_volume
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.sampled_from((16, 18, 20)), seed=st.integers(0, 2 ** 32 - 1))
def test_summation_by_parts_property(n, seed):
    # (-div V, g) = sum V . grad g h^3 on unenveloped noise, whose values on
    # the wrap planes weigh as much as anywhere else; within the round-off
    # of the summed terms
    grid = VelocityGrid(R=6.0, N=n)
    rng = np.random.default_rng(seed)
    V = VectorField(grid, rng.standard_normal((3,) + grid.shape))
    g = ScalarField(grid, rng.standard_normal(grid.shape))
    div_terms = divergence(V).values * g.values
    grad_terms = V.comps * gradient(g).comps
    lhs = -float(np.sum(div_terms)) * grid.cell_volume
    rhs = float(np.sum(grad_terms)) * grid.cell_volume
    scale = float(np.sum(np.abs(div_terms)) + np.sum(np.abs(grad_terms)))
    assert abs(lhs - rhs) <= 1e-13 * scale * grid.cell_volume


def test_inner_product_and_symmetry(small_grid):
    f = random_field(small_grid, 8, bandlimit=5)
    assert inner_product(f, f) == pytest.approx(weighted_norm(f, 2, 0.0) ** 2,
                                                rel=1e-12)
    # odd x even parity kills the integral
    vx = np.asarray(small_grid.component(0))
    odd = ScalarField(small_grid, vx * np.exp(-small_grid.radius_sq))
    even = ScalarField(small_grid, np.exp(-small_grid.radius_sq / 2.0))
    assert abs(inner_product(odd, even)) <= 1e-14


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_cauchy_schwarz(small_grid, seed):
    f = random_field(small_grid, seed, bandlimit=5)
    g = random_field(small_grid, seed + 50, bandlimit=5)
    assert abs(inner_product(f, g)) <= l2_norm(f) * l2_norm(g) * (1 + 1e-12)


def test_grid_mismatch_raises(small_grid):
    other = VelocityGrid(R=5.0, N=16)
    f = zeros(small_grid)
    g = zeros(other)
    with pytest.raises(GridMismatchError):
        inner_product(f, g)


def test_random_field_determinism(small_grid):
    f1 = random_field(small_grid, 42, bandlimit=5)
    f2 = random_field(small_grid, 42, bandlimit=5)
    assert np.array_equal(f1.values, f2.values)
    f3 = random_field(small_grid, 43, bandlimit=5)
    assert not np.array_equal(f1.values, f3.values)
    # unit L2 normalization
    assert l2_norm(f1) == pytest.approx(1.0, abs=1e-12)


def test_random_field_envelope_concentration():
    # shrinking the envelope concentrates mass near the origin, where
    # <v> ~ 1, so the weighted and plain norms coincide in the limit;
    # needs cells fine enough to resolve the shrinking support
    grid = VelocityGrid(R=4.0, N=32)
    gamma = -1.0
    ratios = []
    for w in (2.0, 0.5, 0.2):
        f = random_field(grid, 1, bandlimit=5, envelope_width=w)
        ratios.append(weighted_norm(f, 2, 1.0 + gamma / 2.0))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[-1] == pytest.approx(1.0, abs=0.05)


def test_a_norm_properties(small_grid, small_coeffs):
    z = zeros(small_grid)
    assert a_norm(z, small_coeffs) == 0.0
    f = random_field(small_grid, 21, bandlimit=5)
    assert a_norm(2.5 * f, small_coeffs) == pytest.approx(
        2.5 * a_norm(f, small_coeffs), rel=1e-12)


@pytest.mark.parametrize("seed", [30, 31])
def test_a_norm_assembly_consistency(small_grid, small_coeffs, seed):
    # the two-profile form vs per-node matrices assembled from the
    # components agree to round-off
    f = random_field(small_grid, seed, bandlimit=5)
    G = gradient(f)
    direct = a_norm_sq(f, small_coeffs)
    mats = abar_matrix(small_coeffs.abar).reshape(3, 3, -1).transpose(2, 0, 1)
    gvecs = G.comps.reshape(3, -1).T
    quad = np.einsum("nij,ni,nj->n", mats, gvecs, gvecs, optimize=False)
    alt = (float(np.sum(quad))
           + float(np.sum(small_coeffs.c1 * f.values ** 2))) * small_grid.cell_volume
    assert direct == pytest.approx(alt, rel=1e-12)


def test_a_norm_controls_weighted_norms(small_grid, small_coeffs):
    # ||f||_A >= C (||grad f||_{2,g/2} + ||f||_{2,1+g/2}) with positive C
    gamma = small_coeffs.params.gamma
    worst = math.inf
    for seed in range(8):
        f = random_field(small_grid, seed, bandlimit=5)
        G = gradient(f)
        gn = math.sqrt(sum(
            float(np.sum(small_grid.bracket_weight(gamma) * G.comps[j] ** 2))
            for j in range(3)) * small_grid.cell_volume)
        denom = gn + weighted_norm(f, 2, 1.0 + gamma / 2.0)
        worst = min(worst, a_norm(f, small_coeffs) / denom)
    assert worst > 0.0
