import dataclasses
import gc
import math
import os
import sys
import weakref

import numpy as np
import pytest

from landau.config import load_config, parse_config_text
from landau.errors import ConfigError, DegenerateRatioError, FitDegenerateError
from landau.evolution import (SEGMENT_SAMPLES, DerivativeLadder, SourceModel,
                              derivative_ladder, evolve)
from landau.field import (VectorField, a_norm_sq, divergence, gradient,
                          inner_product, l2_norm, random_field, weighted_norm,
                          zeros)
from landau.operator import apply_L1, apply_L2
from landau.persist import report_to_dict
from landau.verify import (check_coefficient_bounds, check_convolution_bound,
                           check_kernel_identities, check_l3_embedding,
                           coercivity_quotient, energy_identity_convergence,
                           check_energy, estimate_bilinear_constants,
                           estimate_coercivity, make_ensemble, member_pass,
                           recheck_bilinear, smoothing_fit, smoothing_report)
from landau import kernel, suites, verify
from landau.grid import VelocityGrid
from landau.kernel import KernelParams, UniaxialField
from landau.suites import RunResources, run_suite
from tests.conftest import abar_matrix, gaussian_field


@pytest.fixture(scope="module")
def ensemble(small_grid):
    return make_ensemble(small_grid, 64, seed=42, bandlimit=5,
                         envelope_width=1.0)


@pytest.fixture(scope="module")
def members(small_ctx, ensemble):
    return member_pass(small_ctx, ensemble)


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


def test_kernel_identity_suite_catches_wrong_derivatives(params, monkeypatch):
    # the divergence checks read the analytic first derivatives, so a
    # relative error of 1e-9 in them fails both
    exact = verify.kernel_first_derivatives
    monkeypatch.setattr(verify, "kernel_first_derivatives",
                        lambda pts, g: (1.0 + 1e-9) * exact(pts, g))
    rep = check_kernel_identities(params, sample_count=1000, seed=5)
    failed = {c.id for c in rep.checks if not c.verdict}
    assert failed == {"divergence_closed_form", "divergence_odd"}


def test_coefficient_bounds_suite(small_coeffs):
    rep = check_coefficient_bounds(small_coeffs)
    assert rep.passed
    k_coef = {c.name: c.value for c in rep.constants}["K_coef"]
    assert math.isfinite(k_coef) and k_coef > 0


def test_coefficient_suite_catches_b_table_error(small_coeffs):
    # a 1e-9 relative error in the b_y table fails the b-table check alone
    tables = small_coeffs.tables
    comps = tables.comps.copy()
    comps[1] *= 1.0 + 1e-9                     # b_y
    bad = dataclasses.replace(
        small_coeffs, tables=dataclasses.replace(tables, comps=comps))
    rep = check_coefficient_bounds(bad)
    assert [c.id for c in rep.checks if not c.verdict] == [
        "b_table_vs_kernel_derivatives"]


def test_convolution_bound_suite(small_grid, params):
    rep = check_convolution_bound(small_grid, params, deltas=(0.5, 1.0))
    assert rep.passed, [c for c in rep.checks if not c.verdict]
    k_conv = {c.name: c.value for c in rep.constants}["K_conv"]
    assert math.isfinite(k_conv)


def test_coercivity_estimate(small_coeffs, members):
    rep = estimate_coercivity(small_coeffs, members, descent_steps=12)
    assert rep.passed
    consts = {c.name: c.value for c in rep.constants}
    assert consts["C1"] > 0
    # descent never reports a minimum above any sampled quotient
    assert consts["C1"] <= consts["C1_sample_min"] + 1e-15
    assert {c.id for c in rep.checks} == {"all_quotients_positive", "C1_positive"}


def test_coercivity_report_fails_on_nonpositive_descent_iterate(
        small_coeffs, members, monkeypatch):
    # every sampled quotient is positive, but the descent's iterates read
    # negated quotients: only C1_positive sees the final iterate
    quotient = verify.coercivity_quotient
    monkeypatch.setattr(verify, "coercivity_quotient",
                        lambda f, coeffs, grad=None: -quotient(f, coeffs, grad))
    rep = estimate_coercivity(small_coeffs, members, descent_steps=3)
    verdicts = {c.id: c.verdict for c in rep.checks}
    assert verdicts == {"all_quotients_positive": True, "C1_positive": False}
    assert not rep.passed


def _split_form_by_projector(f, grad, gamma):
    """The split form and its operator from the explicit projector
    P_v G = (G . vhat) vhat, with the weights <v>^g on P_v G and <v>^{g+2}
    on (I - P_v) G and on f."""
    grid = f.grid
    vhat = np.stack([np.asarray(c) for c in grid.coords]) / grid.radius
    par = np.sum(grad.comps * vhat, axis=0) * vhat
    perp = grad.comps - par
    w_par = (1.0 + grid.radius_sq) ** (0.5 * gamma)
    w_perp = (1.0 + grid.radius_sq) ** (0.5 * gamma + 1.0)
    dens = (w_par * np.sum(par * par, axis=0)
            + w_perp * (np.sum(perp * perp, axis=0) + f.values ** 2))
    flux = VectorField(grid, w_par * par + w_perp * perp)
    op = -divergence(flux).values + w_perp * f.values
    return float(np.sum(dens)) * grid.cell_volume, op


@pytest.mark.parametrize("seed", [7, 8])
def test_split_form_matches_projector_formulas(small_coeffs, seed):
    f = random_field(small_coeffs.grid, seed, bandlimit=5)
    grad = gradient(f)
    energy, op = _split_form_by_projector(f, grad, small_coeffs.params.gamma)
    assert verify._split_energy(f, small_coeffs) == pytest.approx(energy,
                                                                  rel=1e-14)
    got = verify._split_energy_operator(f, small_coeffs, grad).values
    assert np.max(np.abs(got - op)) <= 1e-14 * np.max(np.abs(op))


def test_a_form_operator_matches_assembled_abar(small_coeffs):
    # -div(abar grad f) + c1 f with abar assembled component by component
    f = random_field(small_coeffs.grid, 9, bandlimit=5)
    grad = gradient(f)
    flux = np.einsum("jk...,k...->j...", abar_matrix(small_coeffs.abar),
                     grad.comps)
    want = (-divergence(VectorField(f.grid, flux)).values
            + small_coeffs.c1 * f.values)
    got = verify._a_form_operator(f, small_coeffs, grad).values
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("profile", ["along", "across"])
def test_coefficient_suite_catches_negative_abar_profile(small_coeffs, profile):
    # one negative node of either profile fails abar_psd
    abar = small_coeffs.abar
    along, across = abar.along.copy(), abar.across.copy()
    bad = {"along": along, "across": across}[profile]
    bad.reshape(-1)[17] *= -1.0
    coeffs = dataclasses.replace(
        small_coeffs, abar=UniaxialField(abar.grid, along, across))
    rep = check_coefficient_bounds(coeffs)
    assert [c.id for c in rep.checks if not c.verdict] == ["abar_psd"]
    assert rep.checks[[c.id for c in rep.checks].index("abar_psd")].value < 0


def test_coercivity_quotient_radial_probe(small_grid, small_coeffs):
    # radial fields make the parallel projection carry the whole gradient
    f = gaussian_field(small_grid, width=1.2)
    f = (1.0 / l2_norm(f)) * f
    q = coercivity_quotient(f, small_coeffs)
    assert q > 0


def test_coercivity_degenerate_zero_field(small_grid, small_coeffs):
    with pytest.raises(DegenerateRatioError):
        coercivity_quotient(zeros(small_grid), small_coeffs)


def test_bilinear_constants(small_ctx, members):
    rep = estimate_bilinear_constants(members)
    assert rep.passed
    consts = {c.name: c.value for c in rep.constants}
    for name in ("C2", "C3", "C4"):
        assert math.isfinite(consts[name]) and consts[name] > 0
    assert consts["K_gradform"] <= 1.0 + 1e-9
    assert consts["C_eps1"] >= 0.0 and consts["C_eps2"] >= 0.0

    fresh = make_ensemble(small_ctx.coeffs.grid, 64, seed=7777, bandlimit=5,
                          envelope_width=1.0)
    recheck = recheck_bilinear(member_pass(small_ctx, fresh), consts, slack=1.1)
    assert recheck.passed, [c for c in recheck.checks if not c.verdict]


def test_member_pass_matches_public_functions(small_ctx, ensemble, members):
    # every scalar of the pass, bit for bit against the public functions
    # on each member, with every gradient computed afresh; the cross terms,
    # taken by summation by parts from (L1 f, f_j), to round-off against
    # the gradient form itself
    coeffs = small_ctx.coeffs
    g = coeffs.params.gamma
    vol = coeffs.grid.cell_volume
    assert members.partners == verify._pairing(len(ensemble))
    a = members.a_norm
    for i, f in enumerate(ensemble):
        l1 = apply_L1(f, coeffs)
        l2 = apply_L2(f, small_ctx.engine, coeffs)
        assert members.a_sq[i] == a_norm_sq(f, coeffs)
        assert members.s[i] == weighted_norm(f, 2, 0.5 * g)
        assert members.s3[i] == weighted_norm(f, 3, 0.5 * g)
        assert members.den[i] == verify._split_energy(f, coeffs)
        assert members.l1ff[i] == inner_product(l1, f)
        assert members.l2ff[i] == inner_product(l2, f)
        flux = coeffs.abar.apply(gradient(f))
        for c, j in enumerate(members.partners[i]):
            assert members.l1_pair[i][c] == inner_product(l1, ensemble[j])
            assert members.l2_pair[i][c] == inner_product(l2, ensemble[j])
            form = float(np.sum(flux.comps * gradient(ensemble[j]).comps)) * vol
            assert abs(members.grad_pair[i][c] - form) <= 1e-13 * a[i] * a[j]


def test_member_pass_one_gradient_per_member(small_ctx, ensemble, monkeypatch):
    # the pass takes one gradient per member and none for its partners
    from landau import field
    calls = []
    gradient_of = field.gradient

    def counted(f):
        calls.append(id(f))
        return gradient_of(f)

    for module in (field, verify):
        monkeypatch.setattr(module, "gradient", counted)
    member_pass(small_ctx, ensemble)
    assert len(calls) == len(ensemble)
    assert set(calls) == {id(f) for f in ensemble}


def test_member_pass_under_thread_contention(small_ctx, members, monkeypatch):
    # eight threads on a fresh, equal grid whose lazily computed arrays
    # (radii, bracket weights) they fill concurrently, switching every
    # 10 us: the same scalars as the pass on the warm grid
    grid = VelocityGrid(R=small_ctx.coeffs.grid.R, N=small_ctx.coeffs.grid.N)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        again = member_pass(small_ctx, make_ensemble(grid, 64, seed=42, bandlimit=5,
                                                     envelope_width=1.0))
    finally:
        sys.setswitchinterval(interval)
    for fld in dataclasses.fields(members):
        if fld.name != "ensemble":
            assert getattr(again, fld.name) == getattr(members, fld.name), fld.name


def test_coercivity_descent_one_gradient_per_iterate(small_coeffs, members,
                                                     monkeypatch):
    # the descent takes one gradient per iterate it evaluates and hands it
    # to every form of that iterate
    from landau import field
    calls = {"gradient": 0, "quotient": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    grad = counted("gradient", field.gradient)
    for module in (field, verify):
        monkeypatch.setattr(module, "gradient", grad)
    monkeypatch.setattr(verify, "coercivity_quotient",
                        counted("quotient", verify.coercivity_quotient))
    estimate_coercivity(small_coeffs, members, descent_steps=12)
    assert calls["quotient"] > 1
    assert calls["gradient"] == calls["quotient"]


def test_coercivity_descent_equals_fresh_gradients(small_coeffs, members,
                                                   monkeypatch):
    # the shared gradient changes no bit: every form of every iterate
    # recomputing its own gives the same report
    shared = estimate_coercivity(small_coeffs, members, descent_steps=12)
    consts = {c.name: c.value for c in shared.constants}
    assert consts["C1"] < consts["C1_sample_min"]  # the descent moved
    for name in ("_a_form_operator", "_split_energy_operator",
                 "_split_energy", "coercivity_quotient"):
        monkeypatch.setattr(verify, name, lambda f, coeffs, grad=None,
                            fn=getattr(verify, name): fn(f, coeffs, gradient(f)))
    fresh = estimate_coercivity(small_coeffs, members, descent_steps=12)
    assert report_to_dict(fresh) == report_to_dict(shared)


def test_inequalities_suite_reports_identical():
    # two runs, each with its own ensembles and threaded member passes
    docs = []
    for _ in range(2):
        res = RunResources(parse_config_text(ENERGY_CFG), log=None)
        docs.append([report_to_dict(r) for r in run_suite("inequalities", res)])
    assert [d["suite"] for d in docs[0]] == [
        "coercivity", "bilinear", "l3_embedding", "bilinear_recheck"]
    assert docs[0] == docs[1]


def test_inequalities_suite_frees_each_ensemble(monkeypatch):
    # the first ensemble is gone before the fresh one is drawn, and
    # neither outlives the suite
    drawn = []

    def tracked(*args, **kwargs):
        gc.collect()
        assert all(ref() is None for ref in drawn)
        fields = make_ensemble(*args, **kwargs)
        drawn.extend(weakref.ref(f) for f in fields)
        return fields

    monkeypatch.setattr(verify, "make_ensemble", tracked)
    res = RunResources(parse_config_text(ENERGY_CFG), log=None)
    run_suite("inequalities", res)
    gc.collect()
    assert len(drawn) == 2 * 74 and all(ref() is None for ref in drawn)


def test_l3_embedding(small_coeffs, members):
    rep = check_l3_embedding(members, small_coeffs)
    assert rep.passed
    k = {c.name: c.value for c in rep.constants}["K_L3"]
    assert math.isfinite(k) and k > 0


def _unit_gaussian(grid):
    f = gaussian_field(grid, 1.5)
    return (1.0 / l2_norm(f)) * f


def test_energy_suite(small_grid, small_ctx):
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(_unit_gaussian(small_grid), amplitude=0.5)
    res = evolve(f0, model, 0.5, small_ctx, snapshot_times=(0.25, 0.5))
    lads = [derivative_ladder(res.snapshots[t], t, 2, model, small_ctx)
            for t in (0.25, 0.5)]
    rep = check_energy(res, lads)
    assert rep.passed, [c for c in rep.checks if not c.verdict]
    consts = {c.name: c.value for c in rep.constants}
    assert consts["C5"] > 0 and math.isfinite(consts["C6"])
    # the rungs are the log's subsamples; the finest is the full log
    residuals, slope = energy_identity_convergence(res)
    checks = {c.id: c.value for c in rep.checks}
    assert checks["residual_dt_slope"] == slope
    assert checks["energy_identity_residual"] == residuals[-1]
    assert residuals[0] > residuals[1] > residuals[2] > 0.0


REFERENCE_CFG = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs", "reference.cfg")

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


def test_energy_suite_dt_rho_check(monkeypatch):
    # one propagation gives the trajectory and the rungs: one random field
    # and one boundary-shell warning per energy run (the wide envelope
    # reaches the shell), and the first octave of the log has dt*rho(L) in
    # (0.5, 1]
    draws, logged = [], []
    monkeypatch.setattr(suites, "random_field",
                        lambda *a: draws.append(a) or random_field(*a))
    wide = ENERGY_CFG.replace("f0.envelope_width = 1.0", "f0.envelope_width = 2.0")
    res = RunResources(parse_config_text(wide), log=logged.append)
    [rep] = run_suite("energy", res)
    assert all(c.verdict for c in rep.checks), rep.checks
    assert len(draws) == 1
    assert sum("boundary shell" in line for line in logged) == 1
    rho = res.ctx.spectral_radius
    edge = res.ctx.spectrum_lower_edge
    consts = {c.name: c.value for c in rep.constants}
    assert consts["spectral_radius"] == rho
    assert consts["spectrum_lower_edge"] == edge < 0.0
    log = res.trajectory.energy_log
    segments = math.ceil(math.log2(0.5 * rho)) + 1
    assert res.trajectory.state.step_index == segments
    assert len(log) == 1 + SEGMENT_SAMPLES * segments
    assert sum(line.startswith("evolve: segment") for line in logged) == segments
    assert 0.5 < log[SEGMENT_SAMPLES, 0] * rho <= 1.0


@pytest.mark.parametrize("N", [24, 32])
def test_boundary_shell_warning_against_invariants(N):
    # the collision invariants reach the outer shell (ratio 9.0e-6 at
    # N=24, 6.2e-6 at 32); the reference datum stays below them and logs
    # nothing, a datum under a width-2 envelope reaches past them and warns
    for width, warnings in ((1.25, 0), (2.0, 1)):
        cfg = dataclasses.replace(load_config(REFERENCE_CFG), grid_N=N,
                                  f0_envelope_width=width)
        logged = []
        RunResources(cfg, log=logged.append).initial_datum()
        assert sum("boundary shell" in line for line in logged) == warnings


def test_run_resources_validate_their_config():
    # a config built by replace skips load_config; the resources refuse it
    # rather than draw a datum of another bandlimit than it names
    ref = load_config(REFERENCE_CFG)
    assert ref.f0_bandlimit == 10
    with pytest.raises(ConfigError, match="bandlimit"):
        RunResources(dataclasses.replace(ref, grid_N=16), log=None)


def test_run_resources_tabulate_each_pad_once(monkeypatch):
    # the operator reads the full pad-1 tables, the c2 cross-check only the
    # pad-2 b tables, and the convolution suite builds its own radial
    # kernel, so the full tables are built once, at pad 1
    pads = {"tabulate_fft_kernels": [], "tabulate_divergence_kernels": []}

    def counting(fn_name):
        original = getattr(kernel, fn_name)

        def counted(grid, params, pad=1, **kwargs):
            pads[fn_name].append(pad)
            return original(grid, params, pad=pad, **kwargs)
        return original, counted

    # every module that imported a function by name calls the counter
    for fn_name in pads:
        original, counted = counting(fn_name)
        for name, module in list(sys.modules.items()):
            if (name.startswith("landau")
                    and getattr(module, fn_name, None) is original):
                monkeypatch.setattr(module, fn_name, counted)
    res = RunResources(parse_config_text(ENERGY_CFG), log=None)
    for suite in ("coefficients", "convolution"):
        run_suite(suite, res)
    assert res.ctx.engine.hats.shape[0] == 9
    assert pads["tabulate_fft_kernels"] == [1]
    # the pad-1 b tables inside the full tabulation, then the cross-check's
    assert pads["tabulate_divergence_kernels"] == [1, 2]


def test_run_resources_without_cache_dir_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a relative path would land
    res = RunResources(parse_config_text(ENERGY_CFG), log=None)
    assert res.coeffs.c2_crosscheck > 0
    assert os.listdir(tmp_path) == []


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


def test_smoothing_fit_scalar_oracle(small_grid, small_zero_ctx):
    # the fitting pipeline reproduces a closed-form scalar C to 1e-6
    phi = _unit_gaussian(small_grid)
    model = SourceModel(phi, rate=1.0)
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    times = (0.5, 1.0, 2.0)
    res = evolve(f0, model, 2.0, small_zero_ctx, snapshot_times=times)
    ladders = [derivative_ladder(res.snapshots[t], t, 6, model, small_zero_ctx)
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


def test_smoothing_fit_degenerate(small_grid, small_zero_ctx):
    model = SourceModel.zero(small_grid)
    lad = derivative_ladder(_unit_gaussian(small_grid), 1.0, 3, model,
                            small_zero_ctx)
    # L = 0 and g = 0 make every rung above 0 vanish
    with pytest.raises(FitDegenerateError):
        smoothing_fit([lad])


def test_smoothing_report_checks(small_grid, small_ctx):
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(_unit_gaussian(small_grid), amplitude=0.5)
    res = evolve(f0, model, 1.0, small_ctx, snapshot_times=(0.5, 1.0))
    lads = [derivative_ladder(res.snapshots[t], t, 4, model, small_ctx)
            for t in (0.5, 1.0)]
    rep, fit = smoothing_report(lads, small_grid)
    ids = {c.id for c in rep.checks}
    assert "fit_max_positive_residual" in ids
    assert math.isfinite(fit.C) and fit.C > 0


def test_report_constants_reproducible(small_coeffs, small_ctx):
    # same seed, same ensemble, bit-identical constants
    e1 = make_ensemble(small_coeffs.grid, 64, seed=3, bandlimit=5)
    e2 = make_ensemble(small_coeffs.grid, 64, seed=3, bandlimit=5)
    r1 = estimate_bilinear_constants(member_pass(small_ctx, e1))
    r2 = estimate_bilinear_constants(member_pass(small_ctx, e2))
    v1 = {c.name: c.value for c in r1.constants}
    v2 = {c.name: c.value for c in r2.constants}
    assert v1 == v2
