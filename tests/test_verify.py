import math

import numpy as np
import pytest

from landau.config import parse_config_text
from landau.errors import DegenerateRatioError, FitDegenerateError
from landau.evolution import (DerivativeLadder, SourceModel, TimePolicy,
                              derivative_ladder, evolve)
from landau.field import l2_norm, random_field, zeros
from landau.verify import (check_coefficient_bounds, check_convolution_bound,
                           check_kernel_identities, check_l3_embedding,
                           coercivity_quotient, energy_identity_convergence,
                           check_energy, estimate_bilinear_constants,
                           estimate_coercivity, make_ensemble,
                           recheck_bilinear, smoothing_fit, smoothing_report)
from landau.kernel import KernelParams, tabulate_fft_kernels
from landau.operator import ConvolutionEngine
from landau.suites import RunResources, energy_ladder_steps, run_suite
from tests.conftest import gaussian_field


@pytest.fixture(scope="module")
def ensemble(small_grid):
    return make_ensemble(small_grid, 64, seed=42, bandlimit=5,
                         envelope_width=1.0)


def test_ensemble_size_floor(small_grid):
    with pytest.raises(ValueError):
        make_ensemble(small_grid, 32, seed=0, bandlimit=5)


def test_kernel_identity_suite(params):
    rep = check_kernel_identities(params, sample_count=1000, seed=5)
    assert rep.passed
    names = {c.id for c in rep.checks}
    assert {"quadratic_null", "row_null", "divergence_closed_form"} <= names
    for c in rep.checks:
        assert c.value <= 1e-12


def test_kernel_identity_suite_other_gammas():
    for gamma in (-0.5, -2.5):
        rep = check_kernel_identities(KernelParams(gamma), sample_count=500)
        assert rep.passed


def test_coefficient_bounds_suite(small_coeffs):
    rep = check_coefficient_bounds(small_coeffs)
    assert rep.passed
    k_coef = {c.name: c.value for c in rep.constants}["K_coef"]
    assert math.isfinite(k_coef) and k_coef > 0


def test_convolution_bound_suite(small_grid, params):
    engine = ConvolutionEngine(tabulate_fft_kernels(small_grid, params, pad=2))
    rep = check_convolution_bound(engine, params, deltas=(0.5, 1.0))
    assert rep.passed, [c for c in rep.checks if not c.verdict]
    k_conv = {c.name: c.value for c in rep.constants}["K_conv"]
    assert math.isfinite(k_conv)


def test_coercivity_estimate(small_coeffs, ensemble):
    rep = estimate_coercivity(small_coeffs, ensemble, descent_steps=12)
    assert rep.passed
    consts = {c.name: c.value for c in rep.constants}
    assert consts["C1"] > 0
    # descent never reports a minimum above any sampled quotient
    assert consts["C1"] <= consts["C1_sample_min"] + 1e-15


def test_coercivity_quotient_radial_probe(small_grid, small_coeffs):
    # radial fields make the parallel projection carry the whole gradient
    f = gaussian_field(small_grid, width=1.2)
    f = (1.0 / l2_norm(f)) * f
    q = coercivity_quotient(f, small_coeffs)
    assert q > 0


def test_coercivity_degenerate_zero_field(small_grid, small_coeffs):
    with pytest.raises(DegenerateRatioError):
        coercivity_quotient(zeros(small_grid), small_coeffs)


def test_bilinear_constants(small_ctx, ensemble):
    rep = estimate_bilinear_constants(small_ctx, ensemble)
    assert rep.passed
    consts = {c.name: c.value for c in rep.constants}
    for name in ("C2", "C3", "C4"):
        assert math.isfinite(consts[name]) and consts[name] > 0
    assert consts["K_gradform"] <= 1.0 + 1e-9
    assert consts["C_eps1"] >= 0.0 and consts["C_eps2"] >= 0.0

    fresh = make_ensemble(small_ctx.coeffs.grid, 64, seed=7777, bandlimit=5,
                          envelope_width=1.0)
    recheck = recheck_bilinear(small_ctx, fresh, consts, slack=1.1)
    assert recheck.passed, [c for c in recheck.checks if not c.verdict]


def test_l3_embedding(small_coeffs, ensemble):
    rep = check_l3_embedding(ensemble, small_coeffs)
    assert rep.passed
    k = {c.name: c.value for c in rep.constants}["K_L3"]
    assert math.isfinite(k) and k > 0


def _unit_gaussian(grid):
    f = gaussian_field(grid, 1.5)
    return (1.0 / l2_norm(f)) * f


def test_energy_suite(small_grid, small_ctx):
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(_unit_gaussian(small_grid), tau_kind="exp", amplitude=0.5)
    res = evolve(f0, model, 0.5, small_ctx, TimePolicy(),
                 snapshot_times=(0.25, 0.5))
    lads = [derivative_ladder(res.snapshots[t], t, 2, model, small_ctx)
            for t in (0.25, 0.5)]
    _, slope = energy_identity_convergence(f0, model, 0.5, small_ctx,
                                           steps=(24, 48, 96))
    rep = check_energy(res, lads, slope=slope)
    assert rep.passed, [c for c in rep.checks if not c.verdict]
    consts = {c.name: c.value for c in rep.constants}
    assert consts["C5"] > 0 and math.isfinite(consts["C6"])


ENERGY_CFG = """
grid.R = 8.0
grid.N = 16
f0.bandlimit = 5
f0.envelope_width = 1.0
source.amplitude = 0.5
time.T = 0.5
time.snapshot_times = 0.25, 0.5
ladder.kmax = 2
ladder.eval_times = 0.25, 0.5
verify.ensemble_size = 64
"""


def test_energy_suite_dt_rho_check(tmp_path):
    res = RunResources(parse_config_text(ENERGY_CFG), cache_dir=str(tmp_path),
                       log=None)
    [rep] = run_suite("energy", res)
    checks = {c.id: c for c in rep.checks}
    assert all(c.verdict for c in rep.checks), rep.checks
    rho = res.ctx.spectral_radius
    n0 = energy_ladder_steps(0.5, res.ctx)
    assert n0 % 2 == 0
    assert 1.2 < 0.5 / n0 * rho <= 2.4
    assert checks["trajectory_dt_rho"].value == pytest.approx(
        res.trajectory.dt_max * rho)
    assert checks["trajectory_dt_rho"].tol == 2.785


def test_energy_zero_run(small_grid, small_ctx):
    model = SourceModel.zero(small_grid)
    res = evolve(zeros(small_grid), model, 0.25, small_ctx)
    rep = check_energy(res, [])
    consts = {c.name: c.value for c in rep.constants}
    assert consts["C5"] == 0.0


def _scalar_ladder(grid, t, kmax, norm0, phi_norm):
    # closed-form ladder for f' = g, L = 0, tau = e^{-t}
    entries = [None] * (kmax + 1)
    norms = [norm0] + [math.exp(-t) * phi_norm for _ in range(kmax)]
    ks = np.arange(kmax + 1, dtype=float)
    facts = np.array([math.factorial(k) for k in range(kmax + 1)])
    a_k = t ** ks * np.array(norms) / facts
    return DerivativeLadder(t, entries, np.array(norms), np.zeros(kmax + 1),
                            a_k, a_k ** (1.0 / (ks + 1.0)))


def test_smoothing_fit_scalar_oracle(small_grid):
    # the fitting pipeline reproduces a closed-form scalar C to 1e-6
    phi = _unit_gaussian(small_grid)
    model = SourceModel(phi, tau_kind="exp", rate=1.0)
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    times = (0.5, 1.0, 2.0)
    res = evolve(f0, model, 2.0, None, TimePolicy(dt_override=1.0 / 128.0),
                 snapshot_times=times)
    ladders = [derivative_ladder(res.snapshots[t], t, 6, model, None)
               for t in times]
    fit = smoothing_fit(ladders)

    # independent scalar oracle: ||f(t)|| from the exact solution
    # f(t) = f0 + (1 - e^{-t}) phi, ||d_t^k f|| = e^{-t} ||phi||
    f0_phi = float(np.sum(f0.values * phi.values)) * small_grid.cell_volume
    xs, ys = [], []
    for t in times:
        c = 1.0 - math.exp(-t)
        norm0 = math.sqrt(1.0 + 2.0 * c * f0_phi + c * c)
        lad = _scalar_ladder(small_grid, t, 6, norm0, 1.0)
        for k, ak in enumerate(lad.a_k):
            xs.append(k + 1.0)
            ys.append(math.log(ak))
    oracle_c = math.exp(float(np.sum(np.array(xs) * np.array(ys))
                              / np.sum(np.array(xs) ** 2)))
    assert fit.C == pytest.approx(oracle_c, rel=1e-6)


def test_smoothing_fit_degenerate(small_grid):
    model = SourceModel.zero(small_grid)
    lad = derivative_ladder(_unit_gaussian(small_grid), 1.0, 3, model, None)
    # L = 0 and g = 0 make every rung above 0 vanish
    with pytest.raises(FitDegenerateError):
        smoothing_fit([lad])


def test_smoothing_report_checks(small_grid, small_ctx):
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(_unit_gaussian(small_grid), tau_kind="exp", amplitude=0.5)
    res = evolve(f0, model, 1.0, small_ctx, TimePolicy(),
                 snapshot_times=(0.5, 1.0))
    lads = [derivative_ladder(res.snapshots[t], t, 4, model, small_ctx)
            for t in (0.5, 1.0)]
    rep, fit = smoothing_report(lads, grid=small_grid)
    ids = {c.id for c in rep.checks}
    assert "fit_max_positive_residual" in ids
    assert math.isfinite(fit.C) and fit.C > 0


def test_report_constants_reproducible(small_coeffs, small_ctx):
    # same seed, same ensemble, bit-identical constants
    e1 = make_ensemble(small_coeffs.grid, 64, seed=3, bandlimit=5)
    e2 = make_ensemble(small_coeffs.grid, 64, seed=3, bandlimit=5)
    r1 = estimate_bilinear_constants(small_ctx, e1)
    r2 = estimate_bilinear_constants(small_ctx, e2)
    v1 = {c.name: c.value for c in r1.constants}
    v2 = {c.name: c.value for c in r2.constants}
    assert v1 == v2
