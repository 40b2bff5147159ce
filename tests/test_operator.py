import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landau import operator
from landau.errors import EigenvalueError, GridMismatchError
from landau.evolution import PropagatedSystem, SourceModel, step
from landau.field import (ScalarField, a_norm_sq, gradient, inner_product,
                          l2_norm, random_field, zeros)
from landau.grid import VelocityGrid
from landau.kernel import (KernelParams, QuadratureSpec, build_coefficients,
                           maxwellian_field, sqrt_maxwellian_field,
                           tabulate_fft_kernels)
from landau.operator import (ConvolutionEngine, SpectrumEdges, apply_L, apply_L1,
                             apply_L2, arnoldi_edges, make_context)
from tests.collision_oracle import apply_Q
from tests.conftest import (SMALL_R, abar_matrix, divergence_tables, gaussian_field,
                            padded_fft_convolution, radial_kernel_table)


def test_engine_delta_identity(small_grid, small_ctx):
    # a delta of mass h^-3 reproduces the kernel table at every shift, in
    # all 12 slots (b_j, a_j0, a_j1, a_j2) of the nine distinct spectra:
    # b_j is spectrum j, a_jk spectrum 3 + _SYM_INDEX[(j, k)]
    eng = small_ctx.engine
    tables = tabulate_fft_kernels(small_grid, small_ctx.coeffs.params)
    assert eng.hats.shape[0] == 9
    pos = (3, 11, 6)
    delta = np.zeros(small_grid.shape)
    delta[pos] = 1.0 / small_grid.cell_volume
    delta_hat = eng.forward(delta)
    idx = np.indices(small_grid.shape)
    shifted = tuple((idx[d] - pos[d]) % small_grid.N for d in range(3))
    sym = [[0, 3, 4], [3, 1, 5], [4, 5, 2]]  # xx, yy, zz, xy, xz, yz
    for j in range(3):
        for slot in range(4):
            table = (tables.b_comps[j] if slot == 0
                     else tables.a_comps[sym[j][slot - 1]])
            spectrum = j if slot == 0 else 3 + sym[j][slot - 1]
            out = eng.inverse(eng.hats[spectrum] * delta_hat)
            expected = table[shifted]
            assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_streamed_hats_are_the_stacked_tables_hats(small_grid, small_ctx):
    # make_context transforms the tables of kernel.KernelTableStream as
    # they are formed; its spectra are, byte for byte, those of an engine
    # built on the stacked tables
    stacked = ConvolutionEngine(
        small_grid, tabulate_fft_kernels(small_grid, small_ctx.coeffs.params).comps)
    assert stacked.hats.shape == small_ctx.engine.hats.shape
    assert stacked.hats.tobytes() == small_ctx.engine.hats.tobytes()


def test_make_context_holds_one_table_at_a_time():
    # beside the nine spectra, building the engine holds less than 7 N^3
    # doubles at N=48: a table and the temporaries that form it (4.1 N^3
    # measured); stacking all nine tables first holds 11.1 N^3
    grid = VelocityGrid(R=8.0, N=48)
    coeffs = build_coefficients(grid, KernelParams(-1.0), QuadratureSpec())
    tracemalloc.start()
    try:
        ctx = make_context(coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = (peak - ctx.engine.hats.nbytes) / (8 * grid.N ** 3)
    assert held < 7.0, held


def test_apply_L2_holds_only_its_result():
    # every working array of apply_L2 is made by the call and freed when it
    # returns: at N=32 on a fresh context one call leaves its result, N^3
    # doubles, and nothing else (1.005 N^3 measured); buffers kept per
    # thread between calls would leave 9.4 N^3
    grid = VelocityGrid(R=8.0, N=32)
    ctx = make_context(build_coefficients(grid, KernelParams(-1.0), QuadratureSpec()))
    f = random_field(grid, 3, bandlimit=5, envelope_width=1.0)
    ctx.coeffs.mu_half  # the coefficient set's cached field, built before tracing
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = apply_L2(f, ctx.engine, ctx.coeffs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert np.isfinite(out.values).all()
    held /= 8 * grid.N ** 3
    assert held < 1.5, held


def test_convolve_linearity(small_grid, small_ctx):
    eng = small_ctx.engine

    def conv(f):
        return eng.inverse(eng.hats[0] * eng.forward(f.values))

    f = random_field(small_grid, 1, bandlimit=5)
    g = random_field(small_grid, 2, bandlimit=5)
    lhs = conv(2.0 * f + (-0.5) * g)
    rhs = 2.0 * conv(f) + (-0.5) * conv(g)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs) + 1e-300)


def test_convolve_grid_mismatch(small_grid, small_ctx, small_coeffs):
    other = zeros(VelocityGrid(R=5.0, N=16))
    with pytest.raises(GridMismatchError):
        apply_L2(other, small_ctx.engine, small_coeffs)
    # tables must live on the lattice of the engine's grid
    with pytest.raises(ValueError, match="do not end in the grid's lattice"):
        ConvolutionEngine(small_grid, divergence_tables(
            VelocityGrid(R=SMALL_R, N=18), small_coeffs.params))


def test_convolution_gaussian_weight_bound(small_grid, params):
    # int |v-w|^gamma e^{-delta |w|^2} dw stays below a multiple of <v>^gamma,
    # by zero-padded transforms of the pad-2 radial kernel
    table = radial_kernel_table(small_grid, params.gamma, pad=2)
    for delta in (0.5, 1.0):
        density = np.exp(-delta * small_grid.radius_sq)
        ratio = padded_fft_convolution(small_grid, table, density) / \
            small_grid.bracket_weight(params.gamma)
        assert np.isfinite(ratio).all()
        limit = (math.pi / delta) ** 1.5
        assert float(np.max(ratio)) <= 1.35 * limit


def test_apply_L1_zero(small_grid, small_coeffs):
    out = apply_L1(zeros(small_grid), small_coeffs)
    assert np.all(out.values == 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_L1_self_adjoint(small_grid, small_coeffs, seed):
    f = random_field(small_grid, seed, bandlimit=5)
    g = random_field(small_grid, seed + 10, bandlimit=5)
    lhs = inner_product(apply_L1(f, small_coeffs), g)
    rhs = inner_product(f, apply_L1(g, small_coeffs))
    assert lhs == pytest.approx(rhs, rel=1e-10)


# the grid's symmetries on numpy arrays: v_j -> -v_j flips axis 2 - j, and
# exchanging two velocity components swaps their axes
REFLECTIONS = {f"R{'xyz'[j]}": (lambda a, axis=2 - j: np.flip(a, axis))
               for j in range(3)}
SWAPS = {name: (lambda a, axes=axes: np.swapaxes(a, *axes))
         for name, axes in (("Sxy", (2, 1)), ("Sxz", (2, 0)), ("Syz", (1, 0)))}


def symmetry_gap(op, sym, grid):
    """max over three seeded fields of ||op(P f) - P op(f)|| / ||op(f)||."""
    gaps = []
    for seed in (1, 2, 3):
        f = random_field(grid, seed, bandlimit=5)
        lf = op(f).values
        lp = op(ScalarField(grid, np.ascontiguousarray(sym(f.values)))).values
        gaps.append(np.linalg.norm(lp - sym(lf)) / np.linalg.norm(lf))
    return max(gaps)


@pytest.mark.parametrize("name", [*REFLECTIONS, *SWAPS])
def test_L1_commutes_with_grid_symmetries(small_grid, small_coeffs, name):
    # measured at most 1.5e-22 for the reflections and 1.2e-16 for the swaps
    sym = {**REFLECTIONS, **SWAPS}[name]
    assert symmetry_gap(lambda f: apply_L1(f, small_coeffs), sym, small_grid) <= 1e-13


@pytest.mark.parametrize("name", list(SWAPS))
def test_L2_commutes_with_axis_swaps(small_grid, small_ctx, name):
    # measured at most 8.5e-16.  The reflections are left out: on this grid
    # they miss by 5.6e-3 to 1.2e-2, since the odd kernel tables carry
    # nonzero values on their Nyquist planes (ROADMAP item 16)
    eng, coeffs = small_ctx.engine, small_ctx.coeffs
    gap = symmetry_gap(lambda f: apply_L2(f, eng, coeffs), SWAPS[name], small_grid)
    assert gap <= 1e-13


def test_L1_quadratic_form_identity(small_grid, small_coeffs):
    # (L1 f, f) = ||f||_A^2 - (c2 f, f) holds to round-off for the
    # centered flux discretization
    f = random_field(small_grid, 3, bandlimit=5)
    lff = inner_product(apply_L1(f, small_coeffs), f)
    c2ff = float(np.sum(small_coeffs.c2 * f.values ** 2)) * small_grid.cell_volume
    assert lff == pytest.approx(a_norm_sq(f, small_coeffs) - c2ff, rel=1e-12)


def test_L1_analytic_expansion(params, quad):
    # L1 f = -abar:d2 f - (div abar)_k d_k f + (c1 - c2) f on a smooth
    # Gaussian, at second order in h
    errs = []
    for n in (24, 48):
        g = VelocityGrid(R=6.0, N=n)
        coeffs = build_coefficients(g, params, quad)
        f = gaussian_field(g, width=1.2)
        got = apply_L1(f, coeffs).values

        vx, vy, vz = (np.asarray(c) for c in g.coords)
        r2 = g.radius_sq
        w2 = 1.2 ** 2
        grad_exact = [-c / w2 * f.values for c in (vx, vy, vz)]
        hess = {}
        for j, cj in enumerate((vx, vy, vz)):
            for k, ck in enumerate((vx, vy, vz)):
                hess[(j, k)] = (cj * ck / w2 ** 2 - (1.0 if j == k else 0.0) / w2) * f.values
        expect = (coeffs.c1 - coeffs.c2) * f.values
        abar = abar_matrix(coeffs.abar)
        for j in range(3):
            for k in range(3):
                expect -= abar[j, k] * hess[(j, k)]
        # divergence of abar rows by centered differences (exact field is
        # unavailable; use a fine-stencil estimate on the same grid)
        from landau.grid import AXIS_OF_COMPONENT
        for k in range(3):
            div_k = np.zeros(g.shape)
            for j in range(3):
                div_k += np.gradient(abar[j, k], g.h,
                                     axis=AXIS_OF_COMPONENT[j], edge_order=2)
            expect -= div_k * grad_exact[k]
        mask = g.radius <= 4.0
        errs.append(float(np.max(np.abs(got - expect)[mask])))
    assert errs[0] / errs[1] >= 3.0


def test_L2_zero_and_finite(small_grid, small_ctx, small_coeffs):
    out = apply_L2(zeros(small_grid), small_ctx.engine, small_coeffs)
    assert np.all(out.values == 0.0)
    f = random_field(small_grid, 4, bandlimit=5)
    out = apply_L2(f, small_ctx.engine, small_coeffs)
    assert np.isfinite(out.values).all()


def test_L_additivity_and_linearity(small_grid, small_ctx, small_coeffs):
    f = random_field(small_grid, 5, bandlimit=5)
    g = random_field(small_grid, 6, bandlimit=5)
    total = apply_L(f, small_ctx.engine, small_coeffs)
    split = apply_L1(f, small_coeffs) + apply_L2(f, small_ctx.engine, small_coeffs)
    assert np.array_equal(total.values, split.values)
    lin = apply_L(2.0 * f + 3.0 * g, small_ctx.engine, small_coeffs)
    ref = 2.0 * apply_L(f, small_ctx.engine, small_coeffs) \
        + 3.0 * apply_L(g, small_ctx.engine, small_coeffs)
    assert np.max(np.abs(lin.values - ref.values)) <= 1e-10 * np.max(np.abs(ref.values))


# coefficients of a linear combination: zero, or far enough from it that
# alpha * f is not subnormal
_COEF = st.floats(-4.0, 4.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3)


@settings(max_examples=40, deadline=None, database=None)
@given(seeds=st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1)),
       alpha=_COEF, beta=_COEF)
def test_L_linearity_property(small_grid, small_ctx, seeds, alpha, beta):
    # L(alpha f + beta g) = alpha L f + beta L g node by node on unenveloped
    # noise, within round-off of the larger term
    f, g = (ScalarField(small_grid, np.random.default_rng(s).standard_normal(
        small_grid.shape)) for s in seeds)
    lf, lg = small_ctx.apply(f), small_ctx.apply(g)
    lhs = small_ctx.apply(alpha * f + beta * g)
    gap = np.max(np.abs(lhs.values - (alpha * lf + beta * lg).values))
    scale = max(abs(alpha) * np.max(np.abs(lf.values)),
                abs(beta) * np.max(np.abs(lg.values)))
    assert gap <= 1e-12 * scale


def test_L_lower_bound_measured(small_grid, small_ctx, small_coeffs):
    # (L f, f) >= -c ||f||^2_{2, gamma/2} with a finite measured c
    gamma = small_coeffs.params.gamma
    from landau.field import weighted_norm
    worst = 0.0
    for seed in range(8):
        f = random_field(small_grid, seed, bandlimit=5)
        lff = inner_product(apply_L(f, small_ctx.engine, small_coeffs), f)
        s2 = weighted_norm(f, 2, 0.5 * gamma) ** 2
        worst = max(worst, -lff / s2)
    assert math.isfinite(worst)


def test_Q_mass_conservation(small_grid, small_ctx, params):
    G = random_field(small_grid, 7, bandlimit=5)
    F = random_field(small_grid, 8, bandlimit=5)
    Q = apply_Q(G, F, small_ctx.engine)
    total = float(np.sum(Q.values)) * small_grid.cell_volume
    assert abs(total) <= 1e-12 * float(np.sum(np.abs(Q.values))) * small_grid.cell_volume


def test_Q_bilinearity(small_grid, small_ctx):
    G1 = random_field(small_grid, 9, bandlimit=5)
    G2 = random_field(small_grid, 10, bandlimit=5)
    F = random_field(small_grid, 11, bandlimit=5)
    lhs = apply_Q(2.0 * G1 + G2, F, small_ctx.engine)
    rhs = 2.0 * apply_Q(G1, F, small_ctx.engine) + apply_Q(G2, F, small_ctx.engine)
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-11 * np.max(np.abs(rhs.values))
    lhs = apply_Q(F, 2.0 * G1 + G2, small_ctx.engine)
    rhs = 2.0 * apply_Q(F, G1, small_ctx.engine) + apply_Q(F, G2, small_ctx.engine)
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-11 * np.max(np.abs(rhs.values))


def test_Q_equilibrium_residual_refinement(params, quad):
    # Q(mu, mu) = 0 in the continuum; the discrete residual drops at
    # order >= 1.8 from N=16 to N=32 at fixed R=8
    norms = {}
    for n in (16, 32):
        g = VelocityGrid(R=8.0, N=n)
        coeffs = build_coefficients(g, params, quad)
        ctx = make_context(coeffs)
        mu = maxwellian_field(g, params)
        norms[n] = l2_norm(apply_Q(mu, mu, ctx.engine))
    rate = math.log2(norms[16] / norms[32])
    assert rate >= 1.8


def test_L1_matches_Q_route(params, quad):
    # L1 f = -mu^{-1/2} Q(mu, mu^{1/2} f): two independent discrete routes
    # converge to each other under h-halving (the ratio creeps toward 4
    # from below; 2.2 already separates structure bugs, which pin it at 1)
    diffs = []
    for n in (24, 48):
        g = VelocityGrid(R=6.0, N=n)
        coeffs = build_coefficients(g, params, quad)
        ctx = make_context(coeffs)
        mu = maxwellian_field(g, params)
        mh = sqrt_maxwellian_field(g, params)
        f = ScalarField(g, np.exp(-g.radius_sq / 3.0))
        direct = apply_L1(f, coeffs).values
        viaQ = -apply_Q(mu, ScalarField(g, mh.values * f.values), ctx.engine).values \
            / mh.values
        mask = g.radius <= 3.0
        diffs.append(float(np.max(np.abs(direct - viaQ)[mask])))
    assert diffs[0] / diffs[1] >= 2.2


def test_L2_matches_Q_route(params, quad):
    # L2 f = -mu^{-1/2} Q(mu^{1/2} f, mu), same two-route comparison
    diffs = []
    for n in (24, 48):
        g = VelocityGrid(R=6.0, N=n)
        coeffs = build_coefficients(g, params, quad)
        ctx = make_context(coeffs)
        mu = maxwellian_field(g, params)
        mh = sqrt_maxwellian_field(g, params)
        f = ScalarField(g, np.exp(-g.radius_sq / 3.0))
        direct = apply_L2(f, ctx.engine, coeffs).values
        viaQ = -apply_Q(ScalarField(g, mh.values * f.values), mu, ctx.engine).values \
            / mh.values
        mask = g.radius <= 3.0
        diffs.append(float(np.max(np.abs(direct - viaQ)[mask])))
    assert diffs[0] / diffs[1] >= 3.0


def test_arnoldi_matches_dense_eigenvalues(monkeypatch):
    # non-normal matrices with a dense spectrum on [low, 10], like L's: a
    # real one, and one with 340 complex eigenvalues reaching below zero
    rng = np.random.default_rng(3)
    n = 400
    for low, noise in ((0.0, 0.05), (-1.0, 1.0)):
        a = (np.diag(np.linspace(low, 10.0, n))
             + noise * rng.standard_normal((n, n)) / np.sqrt(n))
        lam = np.linalg.eigvals(a)
        rho = np.max(np.abs(lam))
        reach = np.max(np.abs(rho - lam))
        measured = arnoldi_edges(lambda x: a @ x, rng.standard_normal(n))
        assert measured.rho == pytest.approx(rho, rel=operator.ARNOLDI_TOL)
        assert measured.edge == pytest.approx(
            rho - reach, abs=operator.LOWER_EDGE_TOL * reach)
        # a thick restart keeps k vectors and applies the map m - k times
        # per later cycle, so the run costs fewer than m per cycle
        assert (measured.applications
                < operator.ARNOLDI_KRYLOV_DIM * measured.cycles)
    monkeypatch.setattr(operator, "ARNOLDI_KRYLOV_DIM", 4)
    monkeypatch.setattr(operator, "ARNOLDI_MAX_RESTARTS", 2)
    with pytest.raises(EigenvalueError):
        arnoldi_edges(lambda x: a @ x, rng.standard_normal(n))


def test_one_arnoldi_run_measures_both_edges(small_coeffs):
    # rho and the lower edge come from one run: reading the edge after rho
    # applies L no more times
    ctx = make_context(small_coeffs)
    calls, apply = [], ctx.apply

    def counted(f):
        calls.append(1)
        return apply(f)

    ctx.apply = counted
    rho = ctx.spectrum.rho
    first = len(calls)
    edge = ctx.spectrum.edge
    assert edge < 0.0 < rho
    assert first > 0
    assert len(calls) == first == ctx.spectrum.applications


def test_spectral_radius_bit_identical(small_coeffs):
    rho = make_context(small_coeffs).spectrum.rho
    assert rho > 0
    assert make_context(small_coeffs).spectrum.rho == rho


def test_spectral_radius_brackets_chebyshev_interval(small_grid, small_ctx):
    # white noise, so the datum carries the top eigenmodes of L, over a
    # segment of length 140 / rho, against a series on a much wider
    # interval: hi = 1.02 rho keeps 12 digits, a rho measured 2% low loses
    # five and one measured 10% low blows up (8e-13, 7e-8 and 1.9e3)
    f0 = ScalarField(small_grid,
                     np.random.default_rng(1).standard_normal(small_grid.shape))
    model = SourceModel.zero(small_grid)
    rho, edge = small_ctx.spectrum.rho, small_ctx.spectrum.edge
    span = 140.0 / rho

    def end(hi, lo=edge):
        # the true L, whose spectrum is taken to have been measured as [lo, hi]
        measured = SimpleNamespace(apply=small_ctx.apply,
                                   spectrum=SpectrumEdges(hi, lo, 0, 0))
        samples, _ = step(f0, 0.0, span, PropagatedSystem(measured, model),
                          (lo, hi))
        return samples[-1]

    ref = end(2.0 * rho, edge - 1.0)

    def drift(factor):
        return l2_norm(end(factor * rho) - ref) / l2_norm(ref)

    assert drift(1.02) < 1e-11
    assert drift(0.98) > 1e-8
    assert drift(0.9) > 1.0
