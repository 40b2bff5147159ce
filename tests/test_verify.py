import dataclasses
import functools
import gc
import itertools
import json
import math
import os
import re
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from landau.config import load_config, parse_config_text
from landau.errors import ConfigError, DegenerateRatioError, FitDegenerateError
from landau.evolution import (SEGMENT_SAMPLES, DerivativeLadder, PropagatedSystem,
                              SourceModel, derivative_ladder, evolve)
from landau.field import (EnergyForm, ScalarField, VectorField, a_norm_sq, divergence,
                          gradient, inner_product, l2_norm, normalized, random_field, synthesize,
                          weighted_norm, zeros)
from landau.operator import apply_L1, apply_L2, make_context
from landau.persist import write_report_json
from landau.verify import (check_coefficient_bounds, check_convolution_bound,
                           check_kernel_identities, check_l3_embedding,
                           coercivity_quotient, energy_identity_convergence,
                           check_energy, estimate_bilinear_constants,
                           estimate_coercivity, make_ensemble, member_pass,
                           recheck_bilinear, smoothing_fit, smoothing_report)
from landau import kernel, suites, verify
from landau.grid import VelocityGrid
from landau.kernel import KernelParams, QuadratureSpec, UniaxialField, build_coefficients
from landau.suites import RunResources, run_suite
from tests import gradient_oracle
from tests.conftest import abar_matrix, gaussian_field


def deterministic_probes(grid):
    """The 10 probes in their closed form, the oracle of `verify.deterministic_probe`."""
    probes = []
    r2 = grid.radius_sq
    vx = np.asarray(grid.component(0))
    vy = np.asarray(grid.component(1))
    vz = np.asarray(grid.component(2))
    for w in (1.0, 2.0):
        probes.append(normalized(ScalarField(grid, np.exp(-r2 / (2.0 * w * w)))))
    for (cx, cy, cz), k in (((0.0, 0.0, 0.0), 2.0), ((2.0, 0.0, 0.0), 3.0),
                            ((0.0, 3.0, 0.0), 5.0), ((3.0, 3.0, 0.0), 4.0)):
        bump = np.exp(-((vx - cx) ** 2 + (vy - cy) ** 2 + (vz - cz) ** 2) / 2.0)
        probes.append(normalized(ScalarField(grid, np.cos(k * vx) * bump)))
        probes.append(normalized(ScalarField(grid, np.sin(k * (vx + vy) / math.sqrt(2.0)) * bump)))
    return probes


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
    rep = check_kernel_identities(params, seed=5)
    assert rep.passed
    names = {c["id"] for c in rep.checks}
    assert {"quadratic_null", "row_null", "divergence_closed_form"} <= names
    for c in rep.checks:
        assert c["value"] <= 1e-12


def test_kernel_identity_suite_other_gammas():
    for gamma in (-0.5, -1.5, -2.0, -2.5, -2.9):
        rep = check_kernel_identities(KernelParams(gamma))
        assert rep.passed


def test_kernel_identity_suite_catches_wrong_derivatives(params, monkeypatch):
    # both derivative checks read the first derivatives, so a relative
    # error of 1e-9 in them fails both
    exact = verify.kernel_first_derivatives
    monkeypatch.setattr(verify, "kernel_first_derivatives",
                        lambda pts, g: (1.0 + 1e-9) * exact(pts, g))
    rep = check_kernel_identities(params, seed=5)
    failed = {c["id"] for c in rep.checks if c["verdict"] == "fail"}
    assert failed == {"divergence_closed_form", "first_derivative_homogeneity"}


def test_kernel_identity_suite_reads_the_kernel_degree(monkeypatch):
    # a_jk of degree gamma + 2 + 1e-6 in the evaluator, b untouched: the
    # null identities still hold, Euler's identity is off by 1e-6 a, and
    # the trace by (|v|^1e-6 - 1) b
    entries = kernel.kernel_entries
    monkeypatch.setattr(kernel, "kernel_entries", lambda u, g: itertools.chain(
        itertools.islice(entries(u, g), 3), itertools.islice(entries(u, g + 1e-6), 3, None)))
    rep = check_kernel_identities(KernelParams(-2.9), seed=5)
    failed = {c["id"]: c["value"] for c in rep.checks if c["verdict"] == "fail"}
    assert set(failed) == {"divergence_closed_form", "first_derivative_homogeneity"}
    assert min(failed.values()) > 1e-7


def test_kernel_identity_suite_reads_the_table_formula(params, monkeypatch):
    # the a_jk that fill the operator's tables are the ones the null
    # identities check, and the derivatives are taken from them: a sign
    # error in a_xy there fails the null identities and the divergence,
    # while Euler's identity holds for the flipped kernel too
    entries = kernel.kernel_entries
    xy = kernel._SYM_INDEX[(0, 1)]
    monkeypatch.setattr(kernel, "kernel_entries", lambda u, g: (
        -a if i == 3 + xy else a for i, a in enumerate(entries(u, g))))
    table = kernel.tabulate_fft_kernels(VelocityGrid(R=8.0, N=16), params)
    # a_xy = -|u|^gamma u_x u_y < 0 at u = (h, h, h): the flip reaches the table
    assert table.a_comps[xy, 1, 1, 1] > 0.0
    rep = check_kernel_identities(params, seed=5)
    failed = {c["id"] for c in rep.checks if c["verdict"] == "fail"}
    assert failed == {"quadratic_null", "row_null", "divergence_closed_form"}


def test_kernel_identity_suite_reads_the_table_divergence(params, monkeypatch):
    # the b_j that fill the operator's tables are the ones the divergence
    # check compares with the derivatives' trace: a sign error in b_y there
    # fails that check alone
    entries = kernel.kernel_entries

    def flipped(u, g):
        return (-b if i == 1 else b for i, b in enumerate(entries(u, g)))

    for module in (kernel, verify):
        monkeypatch.setattr(module, "kernel_entries", flipped)
    table = kernel.tabulate_fft_kernels(VelocityGrid(R=8.0, N=16), params)
    # b_y = -2 |u|^gamma u_y < 0 at u = (h, h, h): the flip reaches the table
    assert table.b_comps[1, 1, 1, 1] > 0.0
    rep = check_kernel_identities(params, seed=5)
    failed = {c["id"]: c["value"] for c in rep.checks if c["verdict"] == "fail"}
    assert set(failed) == {"divergence_closed_form"}
    assert min(failed.values()) > 0.5


def test_coefficient_bounds_suite(small_coeffs):
    rep = check_coefficient_bounds(small_coeffs)
    assert rep.passed
    k_coef = {c["name"]: c["value"] for c in rep.constants}["K_coef"]
    assert math.isfinite(k_coef) and k_coef > 0


def test_coefficient_suite_catches_b_table_error(small_coeffs, monkeypatch):
    # a 1e-9 relative error in the b_y table that the suite samples, as
    # kernel.KernelTableStream yields it, fails the b-table check alone
    exact = kernel.KernelTableStream.__iter__

    def perturbed(stream):
        for j, table in enumerate(exact(stream)):
            yield table * (1.0 + 1e-9) if j == 1 else table

    monkeypatch.setattr(kernel.KernelTableStream, "__iter__", perturbed)
    rep = check_coefficient_bounds(small_coeffs)
    assert [c["id"] for c in rep.checks if c["verdict"] == "fail"] == [
        "b_table_vs_kernel_derivatives"]


def test_coefficient_suite_drops_its_table_stream(monkeypatch):
    # once its three b tables are sampled the suite drops the stream, which
    # holds |u|^gamma and b_z: beside the K_coef scan, its traced peak at
    # N=48 is 2.93 N^3 doubles, 4.87 while the stream is held to the end
    grid = VelocityGrid(R=8.0, N=48)
    coeffs = build_coefficients(grid, KernelParams(-1.0), QuadratureSpec())
    ratios = verify.abar_derivative_ratios(coeffs.abar, grid.bracket_weight(0.0), grid.h)
    monkeypatch.setattr(verify, "abar_derivative_ratios", lambda *args: ratios)
    tracemalloc.start()
    try:
        assert check_coefficient_bounds(coeffs).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = peak / (8 * grid.N ** 3)
    assert held < 4.0, held


def test_convolution_bound_suite(small_grid, params):
    rep = check_convolution_bound(small_grid, params)
    assert rep.passed, [c for c in rep.checks if c["verdict"] == "fail"]
    k_conv = {c["name"]: c["value"] for c in rep.constants}["K_conv"]
    assert math.isfinite(k_conv)


def test_coercivity_estimate(small_coeffs, members, monkeypatch):
    monkeypatch.setattr(verify, "DESCENT_STEPS", 12)
    rep = estimate_coercivity(small_coeffs, members)
    assert rep.passed
    consts = {c["name"]: c["value"] for c in rep.constants}
    assert consts["C1"] > 0
    # descent never reports a minimum above any sampled quotient
    assert consts["C1"] <= consts["C1_sample_min"] + 1e-15
    assert {c["id"] for c in rep.checks} == {"C1_positive"}


def test_coercivity_report_fails_on_nonpositive_descent_iterate(
        small_coeffs, members, monkeypatch):
    # every sampled quotient is positive, but the descent's iterates read
    # negated quotients: C1_positive sees the final iterate
    quotient = verify.coercivity_quotient
    monkeypatch.setattr(verify, "coercivity_quotient",
                        lambda f, coeffs, grad=None: -quotient(f, coeffs, grad))
    monkeypatch.setattr(verify, "DESCENT_STEPS", 3)
    rep = estimate_coercivity(small_coeffs, members)
    verdicts = {c["id"]: c["verdict"] for c in rep.checks}
    assert verdicts == {"C1_positive": "fail"}
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
    split = small_coeffs.split_form
    assert split.energy(f) == pytest.approx(energy, rel=1e-14)
    got = split.apply(f, grad).values
    assert np.max(np.abs(got - op)) <= 1e-14 * np.max(np.abs(op))


def test_a_form_operator_matches_assembled_abar(small_coeffs):
    # -div(abar grad f) + c1 f with abar assembled component by component
    f = random_field(small_coeffs.grid, 9, bandlimit=5)
    grad = gradient(f)
    flux = np.einsum("jk...,k...->j...", abar_matrix(small_coeffs.abar),
                     grad.comps)
    want = (-divergence(VectorField(f.grid, flux)).values
            + small_coeffs.c1 * f.values)
    got = small_coeffs.a_form.apply(f, grad).values
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
    assert [c["id"] for c in rep.checks if c["verdict"] == "fail"] == ["abar_psd"]
    assert rep.checks[[c["id"] for c in rep.checks].index("abar_psd")]["value"] < 0


@functools.lru_cache(maxsize=None)
def _reference_abar(n, gamma):
    """abar on the reference box (R = 8) at N nodes per axis."""
    return kernel.compute_abar_field(VelocityGrid(R=8.0, N=n), KernelParams(gamma))


def _on_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("gamma", [-0.5, -1.0, -2.0, -2.9])
@pytest.mark.parametrize("n", [16, 24, 48])
def test_abar_derivative_ratios_match_gradient_oracle(n, gamma, cores, monkeypatch):
    # the slab scan gives np.gradient's 54 ratios bit for bit: one short
    # slab at N=16, a short last slab at N=24 and 48, on one core and on two
    abar = _reference_abar(n, gamma)
    grid = abar.grid
    wgt = grid.bracket_weight(gamma + 1.0)
    _on_cores(monkeypatch, cores)
    got = verify.abar_derivative_ratios(abar, wgt, grid.h)
    want = np.array(gradient_oracle.abar_derivative_ratios(abar, wgt, grid.h))
    assert want.shape == (54,)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cores", [1, 2, 8])
def test_map_on_cores_takes_the_first_item_on_the_calling_thread(cores, monkeypatch):
    # results come back in item order, and the first item runs on the
    # calling thread whatever the core count
    _on_cores(monkeypatch, cores)
    caller = threading.get_ident()

    def work(x):
        time.sleep(0.002 * (x % 3))
        return x * x, threading.get_ident()

    got = verify.map_on_cores(work, range(20))
    assert [value for value, _ in got] == [x * x for x in range(20)]
    assert got[0][1] == caller
    assert all(ident != caller for _, ident in got[1:]) == (cores > 1)


def test_map_on_cores_makes_no_pool_on_one_core(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool on one core")

    _on_cores(monkeypatch, 1)
    monkeypatch.setattr(verify, "ThreadPoolExecutor", no_pool)
    assert verify.map_on_cores(lambda x: x + 1, range(5)) == [1, 2, 3, 4, 5]
    assert verify.map_on_cores(lambda x: x, []) == []


def test_map_on_cores_raises_the_first_item_after_every_call(monkeypatch):
    # the first item raises at once and a later one raises after a while:
    # the first item's exception surfaces, once the later call has returned
    _on_cores(monkeypatch, 2)
    returned = []

    def work(x):
        if x == 0:
            raise KeyError("first")
        time.sleep(0.2)
        returned.append(x)
        raise ValueError("later")

    with pytest.raises(KeyError, match="first"):
        verify.map_on_cores(work, range(2))
    assert returned == [1]


def test_make_ensemble_blocks_equal_on_any_core_count(small_grid, monkeypatch):
    spectra = []
    for cores in (1, 2, 3):
        _on_cores(monkeypatch, cores)
        ens = make_ensemble(small_grid, 64, seed=5, bandlimit=5)
        spectra.append(b"".join(block.tobytes() for block in ens.spectra))
    assert spectra[0] == spectra[1] == spectra[2]
    assert len(ens.spectra) == 64


def _seam_planes(n):
    """The z-planes on either side of each seam between two scan slabs."""
    seams = range(2 + verify._SLAB_PLANES, n - 2, verify._SLAB_PLANES)
    return [z + side for z in seams for side in (-1, 0)]


@pytest.fixture(scope="module")
def coeffs_n48():
    return kernel.build_coefficients(VelocityGrid(R=8.0, N=48), KernelParams(-1.0))


@pytest.mark.parametrize("plane", [0, 1, 46, 47] + _seam_planes(48))
def test_nan_in_abar_reaches_k_coef(coeffs_n48, plane, monkeypatch):
    # a NaN in l_par on any z-plane, a ghost plane of the scan's first or
    # last slab or a plane beside a seam between slabs, fails abar_psd and
    # leaves K_coef NaN, on two cores
    abar = coeffs_n48.abar
    along = abar.along.copy()
    along[plane, 24, 24] = math.nan
    coeffs = dataclasses.replace(
        coeffs_n48, abar=UniaxialField(abar.grid, along, abar.across))
    _on_cores(monkeypatch, 2)
    assert check_coefficient_bounds(coeffs).failures == (["abar_psd"], ["K_coef"])


def test_abar_derivative_scan_memory(monkeypatch):
    # at N=48 on two cores the slab scan allocates at most 3.5 N^3 doubles
    # at its peak (3.0 measured); the full-grid np.gradient loop, 5.7
    import tracemalloc

    abar = _reference_abar(48, -1.0)
    grid = abar.grid
    wgt = grid.bracket_weight(0.0)
    _on_cores(monkeypatch, 2)
    bound = 3.5 * 8 * grid.N ** 3
    peaks = []
    for scan in (verify.abar_derivative_ratios, gradient_oracle.abar_derivative_ratios):
        tracemalloc.start()
        try:
            scan(abar, wgt, grid.h)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < bound < peaks[1], [p / (8 * grid.N ** 3) for p in peaks]


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
    consts = {c["name"]: c["value"] for c in rep.constants}
    for name in ("C2", "C3", "C4"):
        assert math.isfinite(consts[name]) and consts[name] > 0
    assert consts["K_gradform"] <= 1.0 + 1e-9
    assert consts["C_eps1"] >= 0.0 and consts["C_eps2"] >= 0.0

    fresh = make_ensemble(small_ctx.coeffs.grid, 64, seed=7777, bandlimit=5,
                          envelope_width=1.0)
    recheck = recheck_bilinear(member_pass(small_ctx, fresh), consts)
    assert recheck.passed, [c for c in recheck.checks if c["verdict"] == "fail"]


def test_member_pass_matches_public_functions(small_ctx, ensemble, members):
    # every scalar of the pass, bit for bit against the public functions
    # on each member, with every gradient computed afresh, over the pairs
    # (i, i) and (i, i + 1 mod n); the cross terms, taken by summation by
    # parts from (L1 f, f_j), to round-off against the gradient form itself
    coeffs = small_ctx.coeffs
    g = coeffs.params.gamma
    vol = coeffs.grid.cell_volume
    n = len(ensemble)
    a = members.a_norm
    for fld in ("l1_pair", "l2_pair", "grad_pair"):
        assert [len(row) for row in getattr(members, fld)] == [2] * n, fld
    for i, f in enumerate(ensemble):
        l1 = apply_L1(f, coeffs)
        l2 = apply_L2(f, small_ctx.engine, coeffs)
        assert members.a_sq[i] == a_norm_sq(f, coeffs)
        assert members.s[i] == weighted_norm(f, 2, 0.5 * g)
        assert members.s3[i] == weighted_norm(f, 3, 0.5 * g)
        assert members.den[i] == coeffs.split_form.energy(f)
        assert members.l1ff[i] == inner_product(l1, f)
        assert members.l2ff[i] == inner_product(l2, f)
        flux = coeffs.abar.apply(gradient(f))
        for c, j in enumerate((i, (i + 1) % n)):
            assert members.l1_pair[i][c] == inner_product(l1, ensemble[j])
            assert members.l2_pair[i][c] == inner_product(l2, ensemble[j])
            form = float(np.sum(flux.comps * gradient(ensemble[j]).comps)) * vol
            assert abs(members.grad_pair[i][c] - form) <= 1e-13 * a[i] * a[j]


def test_member_pass_builds_each_member_once(small_ctx, ensemble, monkeypatch):
    # each field is built once, the next member's field is the partner, and
    # only the member after each run's end is built a second time: at most
    # n + (number of runs) builds, not one more per member (2n)
    built = []

    def counted(build):
        return lambda *args: built.append(args) or build(*args)

    for name in ("synthesize", "deterministic_probe"):
        monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
    n = len(ensemble)
    member_pass(small_ctx, ensemble)
    assert n <= len(built) <= n + len(verify.runs_on_cores(n)), len(built)


def test_member_pass_one_gradient_per_member(small_ctx, ensemble, monkeypatch):
    # the pass takes one gradient per member and none for its partners:
    # the fields it takes gradients of are the members, each once (the
    # members are built afresh on each read, so they are told apart by
    # their bytes, which differ from member to member)
    from landau import field
    calls = []
    gradient_of = field.gradient

    def counted(f):
        calls.append(f.values.tobytes())
        return gradient_of(f)

    for module in (field, verify):
        monkeypatch.setattr(module, "gradient", counted)
    member_pass(small_ctx, ensemble)
    members = [f.values.tobytes() for f in ensemble]
    assert len(set(members)) == len(ensemble)
    assert sorted(calls) == sorted(members)


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
    monkeypatch.setattr(verify, "DESCENT_STEPS", 12)
    estimate_coercivity(small_coeffs, members)
    assert calls["quotient"] > 1
    assert calls["gradient"] == calls["quotient"]


def test_coercivity_descent_equals_fresh_gradients(small_coeffs, members,
                                                   monkeypatch):
    # the shared gradient changes no bit: every form of every iterate
    # recomputing its own gives the same report
    monkeypatch.setattr(verify, "DESCENT_STEPS", 12)
    shared = estimate_coercivity(small_coeffs, members)
    consts = {c["name"]: c["value"] for c in shared.constants}
    assert consts["C1"] < consts["C1_sample_min"]  # the descent moved
    for name in ("energy", "apply"):
        monkeypatch.setattr(EnergyForm, name, lambda form, f, grad=None,
                            fn=getattr(EnergyForm, name): fn(form, f, gradient(f)))
    monkeypatch.setattr(verify, "coercivity_quotient",
                        lambda f, coeffs, grad=None, fn=verify.coercivity_quotient:
                        fn(f, coeffs, gradient(f)))
    fresh = estimate_coercivity(small_coeffs, members)
    assert fresh == shared


def test_inequalities_suite_reports_identical():
    # two runs, each with its own ensembles and threaded member passes
    docs = []
    for _ in range(2):
        res = RunResources(parse_config_text(ENERGY_CFG), log=None)
        docs.append(run_suite("inequalities", res))
    assert [d.suite for d in docs[0]] == [
        "coercivity", "bilinear", "l3_embedding", "bilinear_recheck"]
    assert docs[0] == docs[1]


def test_inequalities_suite_logs_its_progress(monkeypatch, capsys):
    # one line per member pass with its member count, core count and time,
    # one for the descent with its steps and C1 before and after, and one
    # for where the constants are attained; the same reports with a log as
    # without, and no output without one
    _on_cores(monkeypatch, 2)
    logged = []
    res = RunResources(parse_config_text(ENERGY_CFG), log=logged.append)
    reports = run_suite("inequalities", res)
    quiet = run_suite("inequalities", RunResources(parse_config_text(ENERGY_CFG), log=None))
    assert reports == quiet and capsys.readouterr().out == ""
    consts = {c["name"]: c["value"] for c in reports[0].constants}
    assert len(logged) == 4, logged
    for line in (logged[0], logged[3]):
        assert line.startswith("inequalities: member pass over 74 members on 2 cores, ")
        assert line.endswith(" s")
    steps = reports[0].descent_steps
    assert 0 <= steps <= verify.DESCENT_STEPS
    assert logged[1] == (f"inequalities: coercivity descent took {steps} steps, "
                         f"C1 {consts['C1_sample_min']:.6g} -> {consts['C1']:.6g}")
    assert logged[2].startswith("inequalities: attained at C1_sample_min (")


def test_inequalities_suite_logs_where_each_constant_is_attained():
    # each logged member is named random or probe k by its place in the
    # ensemble, each pair is (i, i) or (i, i + 1 mod n), and the ratio at
    # each logged pair, taken from the public functions on the logged
    # members, is the reported constant
    logged = []
    res = RunResources(parse_config_text(ENERGY_CFG), log=logged.append)
    consts = {c["name"]: c["value"] for rep in run_suite("inequalities", res)
              for c in rep.constants}
    [line] = [x for x in logged if x.startswith("inequalities: attained at ")]
    named = dict(re.findall(r"(\w+) \(([^)]*)\)", line))
    assert list(named) == ["C1_sample_min", "C2", "C3", "C3_one_sided", "C4", "K_gradform"]
    ens, coeffs = res.ensemble(), res.coeffs
    n, k, g = len(ens), len(ens.spectra), coeffs.params.gamma
    at = {}
    for name, members in named.items():
        at[name] = [int(label.split()[0]) for label in members.split(", ")]
        for i, label in zip(at[name], members.split(", ")):
            assert label == (f"{i} random" if i < k else f"{i} probe {i - k}")
    [i] = at["C1_sample_min"]
    f = ens[i]
    assert (a_norm_sq(f, coeffs) / coeffs.split_form.energy(f)) == consts["C1_sample_min"]
    for name in ("C2", "C3", "C3_one_sided", "C4", "K_gradform"):
        i, j = at[name]
        assert j in (i, (i + 1) % n), (name, i, j)
        f, f_j = ens[i], ens[j]
        a_i, a_j = (math.sqrt(a_norm_sq(x, coeffs)) for x in (f, f_j))
        s_i, s_j = (weighted_norm(x, 2, 0.5 * g) for x in (f, f_j))
        l2 = abs(inner_product(apply_L2(f, res.ctx.engine, coeffs), f_j))
        if name == "K_gradform":
            form = float(np.sum(coeffs.abar.apply(gradient(f)).comps
                                * gradient(f_j).comps)) * coeffs.grid.cell_volume
            assert abs(abs(form) / (a_i * a_j) - consts[name]) <= 1e-13, name
            continue
        ratio = {"C2": abs(inner_product(apply_L1(f, coeffs), f_j)) / (a_i * a_j),
                 "C3": l2 / (s_i * a_j + a_i * s_j),
                 "C3_one_sided": l2 / (s_i * a_j),
                 "C4": l2 / (a_i * a_j)}[name]
        assert ratio == consts[name], (name, ratio, consts[name])


def test_inequalities_suite_frees_each_ensemble(monkeypatch):
    # the first ensemble and every member and probe field built from it
    # are gone before the fresh one is drawn, and nothing of either
    # outlives the suite
    drawn, built, probes = [], [], []

    def tracked(*args, **kwargs):
        gc.collect()
        assert all(ref() is None for ref in drawn + built + probes)
        ens = make_ensemble(*args, **kwargs)
        drawn.append(weakref.ref(ens))
        return ens

    def tracked_build(*args):
        f = synthesize(*args)
        built.append(weakref.ref(f))
        return f

    def tracked_probe(*args):
        f = deterministic_probe(*args)
        probes.append(weakref.ref(f))
        return f

    deterministic_probe = verify.deterministic_probe
    monkeypatch.setattr(verify, "make_ensemble", tracked)
    monkeypatch.setattr(verify, "synthesize", tracked_build)
    monkeypatch.setattr(verify, "deterministic_probe", tracked_probe)
    res = RunResources(parse_config_text(ENERGY_CFG), log=None)
    run_suite("inequalities", res)
    gc.collect()
    assert len(drawn) == 2 and len(built) >= 2 * 64 and len(probes) >= 2 * 10
    assert all(ref() is None for ref in drawn + built + probes)


def test_ensemble_members_are_the_random_fields(small_grid):
    # member i of an ensemble is random_field(seed + i) bit for bit, the
    # probes follow it, and the random members are held as band blocks
    ens = make_ensemble(small_grid, 64, seed=42, bandlimit=5, envelope_width=1.0)
    assert len(ens) == 64 + len(deterministic_probes(small_grid)) == 64 + verify.PROBES == 74
    for i in range(64):
        want = random_field(small_grid, 42 + i, bandlimit=5, envelope_width=1.0)
        assert np.array_equal(ens[i].values, want.values)
    for probe, want in zip([ens[i] for i in range(64, 74)],
                           deterministic_probes(small_grid)):
        assert probe.values.tobytes() == want.values.tobytes()
    assert all(block.shape == (11, 11, 6) for block in ens.spectra)
    assert np.array_equal(ens[-1].values, ens[73].values)
    with pytest.raises(IndexError):
        ens[74]
    assert len(list(ens)) == 74


@pytest.mark.parametrize("n", [24, 48])
def test_deterministic_probe_is_the_closed_form(n):
    # each probe, built alone from 1-d and 2-d factors, is the oracle's
    # N^3 evaluation bit for bit
    grid = VelocityGrid(R=8.0, N=n)
    for k, want in enumerate(deterministic_probes(grid)):
        assert verify.deterministic_probe(grid, k).values.tobytes() == want.values.tobytes()


def test_make_ensemble_holds_no_field_but_the_envelope():
    # at N=32 a drawn ensemble adds at most its band blocks and 1.5 N^3
    # doubles to the traced memory: the envelope is N^3, and probes held as
    # fields would add 10 N^3 more
    grid = VelocityGrid(R=8.0, N=32)
    grid.radius_sq  # the grid's own node arrays, built before tracing
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ens = make_ensemble(grid, 64, seed=42, bandlimit=8)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    blocks = sum(block.nbytes for block in ens.spectra)
    assert held <= blocks + 1.5 * 8 * grid.N ** 3, (held - blocks) / (8 * grid.N ** 3)


def test_member_pass_holds_nothing_grid_sized_afterwards(monkeypatch):
    # at N=24 on two cores, with the coefficient forms built and the
    # ensemble drawn first, the pass leaves its scalars and no working
    # array (1.3 N^3 doubles measured) and peaks at 33.7 N^3; a per-thread
    # L2 workspace kept on the calling thread leaves 9.8 N^3 and takes
    # the peak to 41.5
    grid = VelocityGrid(R=8.0, N=24)
    ctx = make_context(kernel.build_coefficients(
        grid, KernelParams(-1.0), kernel.QuadratureSpec(32, 64, 1e-6)))
    coeffs = ctx.coeffs
    coeffs.a_form, coeffs.l1_form, coeffs.split_form, coeffs.mu_half
    ens = make_ensemble(grid, 64, seed=42, bandlimit=8)
    _on_cores(monkeypatch, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scalars = member_pass(ctx, ens)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(scalars.l2_pair) == len(ens)
    cube = 8 * grid.N ** 3
    assert held < 3.0 * cube, held / cube
    assert peak < 38.0 * cube, peak / cube


def test_member_pass_memory_stays_below_a_held_ensemble(monkeypatch):
    # at N=32 an ensemble held as fields is 74 N^3 doubles, 18.5 MiB; the
    # streamed ensemble, its band blocks (5 MiB at bandlimit 10) and its
    # member pass on one thread peak at 12.6 MiB, where the same pass over
    # the fields held as a list peaked at 22.8 MiB
    import tracemalloc

    grid = VelocityGrid(R=8.0, N=32)
    ctx = make_context(kernel.build_coefficients(
        grid, KernelParams(-1.0), kernel.QuadratureSpec(32, 64, 1e-6)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    # one pass first builds the forms and weights that every pass reads
    member_pass(ctx, make_ensemble(grid, 64, seed=1, bandlimit=10))
    tracemalloc.start()
    try:
        member_pass(ctx, make_ensemble(grid, 64, seed=42, bandlimit=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = 74 * grid.N ** 3 * 8
    assert peak < 0.8 * held, peak / 2 ** 20


def test_l3_embedding(members):
    rep = check_l3_embedding(members)
    assert rep.passed
    k = {c["name"]: c["value"] for c in rep.constants}["K_L3"]
    assert math.isfinite(k) and k > 0


def _unit_gaussian(grid):
    f = gaussian_field(grid, 1.5)
    return (1.0 / l2_norm(f)) * f


def test_energy_suite(small_grid, small_ctx):
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(_unit_gaussian(small_grid), amplitude=0.5)
    system = PropagatedSystem(small_ctx, model)
    res = evolve(f0, system, 0.5, snapshot_times=(0.25, 0.5))
    lads = [derivative_ladder(res.snapshots[t], t, 2, system) for t in (0.25, 0.5)]
    rep = check_energy(res, lads)
    assert rep.passed, [c for c in rep.checks if c["verdict"] == "fail"]
    consts = {c["name"]: c["value"] for c in rep.constants}
    assert consts["C5"] > 0 and math.isfinite(consts["C6"])
    # the rungs are the log's subsamples; the finest is the full log
    residuals, slope = energy_identity_convergence(res)
    checks = {c["id"]: c["value"] for c in rep.checks}
    assert checks["residual_dt_slope"] == slope
    assert consts["energy_identity_residual"] == residuals[-1]
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
    assert rep.passed, rep.checks
    assert len(draws) == 1
    assert sum("boundary shell" in line for line in logged) == 1
    rho = res.ctx.spectrum.rho
    edge = res.ctx.spectrum.edge
    consts = {c["name"]: c["value"] for c in rep.constants}
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


def test_run_resources_build_the_invariants_once(monkeypatch):
    # the datum and both parts of the blend forcing are projected off one
    # basis: Gram-Schmidt normalizes its five vectors once per resources,
    # nothing keeps the basis once they are built, and what it projected
    # is orthogonal to it
    cfg = dataclasses.replace(load_config(REFERENCE_CFG), grid_N=16,
                              f0_bandlimit=5)
    assert cfg.source_profile == "blend"
    norms, used = [], []
    normalize = kernel.normalized
    monkeypatch.setattr(kernel, "normalized",
                        lambda f: norms.append(f) or normalize(f))
    project = suites.project_off_invariants
    monkeypatch.setattr(suites, "project_off_invariants", lambda f, basis: (
        used.extend(weakref.ref(b) for b in basis) or project(f, basis)))
    res = RunResources(cfg, log=None)
    fields = (res.initial_datum(), res.source_model().phi)
    assert len(norms) == 5
    assert len(used) == 3 * 5
    gc.collect()
    assert all(ref() is None for ref in used)
    basis = res.coeffs.invariants
    assert len(basis) == 5
    for f in fields:
        for b in basis:
            assert abs(inner_product(f, b)) <= 1e-13 * l2_norm(f)
    for i, b in enumerate(basis):
        for j, c in enumerate(basis):
            assert inner_product(b, c) == pytest.approx(float(i == j), abs=1e-13)


def test_run_resources_validate_their_config():
    # a config built by replace skips load_config; the resources refuse it
    # rather than draw a datum of another bandlimit than it names
    ref = load_config(REFERENCE_CFG)
    assert ref.f0_bandlimit == 10
    with pytest.raises(ConfigError, match="bandlimit"):
        RunResources(dataclasses.replace(ref, grid_N=16), log=None)


def test_run_resources_tabulate_each_pad_once(monkeypatch):
    # make_context streams the operator's nine pad-1 tables
    # (kernel.KernelTableStream), stacks none of them, and each is gone
    # once transformed; the build forms no pad-2 table, as the c2
    # cross-check streams |u|^gamma; the coefficient suite samples the
    # first three tables of one more pad-1 stream, the b tables, and the
    # convolution suite forms none
    pads = {"tabulate_fft_kernels": [], "KernelTableStream": []}
    streamed = []
    stream_iter = kernel.KernelTableStream.__iter__

    def tracked(stream):
        for table in stream_iter(stream):
            streamed.append(weakref.ref(table))
            yield table
            del table

    monkeypatch.setattr(kernel.KernelTableStream, "__iter__", tracked)

    def counting(fn_name):
        original = getattr(kernel, fn_name)

        def counted(grid, params, pad=1, **kwargs):
            pads[fn_name].append(pad)
            return original(grid, params, pad=pad, **kwargs)
        return original, counted

    # every module that imported the name calls the counter
    for fn_name in pads:
        original, counted = counting(fn_name)
        for name, module in list(sys.modules.items()):
            if (name.startswith("landau")
                    and getattr(module, fn_name, None) is original):
                monkeypatch.setattr(module, fn_name, counted)
    res = RunResources(parse_config_text(ENERGY_CFG), log=None)
    assert res.ctx.engine.hats.shape[0] == 9
    assert pads == {"tabulate_fft_kernels": [], "KernelTableStream": [1]}
    gc.collect()
    assert len(streamed) == 9 and all(ref() is None for ref in streamed)
    for suite in ("coefficients", "convolution"):
        run_suite(suite, res)
    assert pads == {"tabulate_fft_kernels": [], "KernelTableStream": [1, 1]}
    assert len(streamed) == 12


def test_run_suite_stamps_fingerprint_and_grid():
    # the builders leave the provenance blank; run_suite stamps every report
    # with the run's fingerprint and every constant with the run's grid
    res = RunResources(parse_config_text(ENERGY_CFG), log=None)
    stamped = 0
    for suite in ("kernel", "coefficients", "inequalities", "energy"):
        for rep in run_suite(suite, res):
            assert rep.config_fingerprint == res.fingerprint
            for const in rep.constants:
                assert const["grid_params"] == {"N": 16, "R": 8.0}
                stamped += 1
    # K_coef; coercivity, bilinear and l3_embedding; energy
    assert stamped == 1 + (2 + 7 + 1) + 6
    assert verify.check_kernel_identities(res.params).config_fingerprint == ""


def test_report_json_is_the_record(tmp_path):
    # the file holds the report's records in their key order, every
    # non-finite float as null, and the meta block after them
    rep = verify.VerificationReport("demo", "f00d")
    rep.add_check("unbounded", 1.5, math.inf, True)
    rep.add_check("bounded", 2.0, 1.0, False)
    rep.add_constant("K", math.nan, 3)
    rep.constants[0]["grid_params"] = {"N": 16, "R": 8.0}
    path = tmp_path / "report_demo.json"
    write_report_json(rep, str(path), "2026-01-01")
    with open(path) as fh:
        doc = json.load(fh)
    want = dataclasses.asdict(rep)
    want["checks"][0]["tol"] = None
    want["constants"][0]["value"] = None
    want["meta"] = {"created": "2026-01-01"}
    assert doc == want
    assert list(doc) == ["suite", "config_fingerprint", "checks", "constants",
                         "meta"]
    assert [list(c) for c in doc["checks"]] == [["id", "value", "tol", "verdict"]] * 2
    assert list(doc["constants"][0]) == ["name", "value", "ensemble_size",
                                         "grid_params", "stability"]
    assert [c["verdict"] for c in doc["checks"]] == ["pass", "fail"]
    assert not rep.passed


def test_report_fails_on_every_non_finite_value():
    # a check whose value is not finite fails whatever its verdict, and a
    # report fails while it holds a non-finite constant
    rep = verify.VerificationReport("demo")
    rep.add_check("bounded", 0.5, 1.0, True)
    rep.add_constant("K", 2.0, 0)
    assert rep.passed and rep.failures == ([], [])
    for value in (math.nan, math.inf, -math.inf):
        rep.add_check("unbounded", value, math.inf, True)
        assert rep.checks[-1]["verdict"] == "fail"
    rep.checks = rep.checks[:1]
    rep.add_constant("K_nan", math.nan, 0)
    rep.add_constant("K_inf", -math.inf, 0)
    assert not rep.passed
    assert rep.failures == ([], ["K_nan", "K_inf"])


def test_nan_reaches_the_constant(small_coeffs, small_grid):
    # the maxima that form K_coef and B keep a NaN in their last term,
    # which Python's max drops when it is not the first argument
    c2 = small_coeffs.c2.copy()
    c2[4, 4, 4] = math.nan  # the divergence field's ratio is K_coef's last
    rep = check_coefficient_bounds(dataclasses.replace(small_coeffs, c2=c2))
    assert rep.failures == ([], ["K_coef"])
    lads = [_scalar_ladder(small_grid, t, 2, 1.0, 1.0) for t in (0.5, 1.0, 2.0)]
    lads[-1].norms_a[2] = math.nan  # in B's last envelope, k = 2, only
    assert smoothing_report(lads).failures[1] == ["B"]


def test_run_resources_without_cache_dir_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a relative path would land
    res = RunResources(parse_config_text(ENERGY_CFG), log=None)
    coeffs = res.coeffs
    assert kernel.crosscheck_c2(coeffs.c2, coeffs.grid, coeffs.params) > 0
    assert os.listdir(tmp_path) == []


def test_energy_zero_run(small_grid, small_ctx):
    model = SourceModel.zero(small_grid)
    res = evolve(zeros(small_grid), PropagatedSystem(small_ctx, model), 0.25)
    rep = check_energy(res, [])
    consts = {c["name"]: c["value"] for c in rep.constants}
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
    system = PropagatedSystem(small_zero_ctx, model)
    res = evolve(f0, system, 2.0, snapshot_times=times)
    ladders = [derivative_ladder(res.snapshots[t], t, 6, system) for t in times]
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
    lad = derivative_ladder(_unit_gaussian(small_grid), 1.0, 3,
                            PropagatedSystem(small_zero_ctx, model))
    # L = 0 and g = 0 make every rung above 0 vanish
    with pytest.raises(FitDegenerateError):
        smoothing_fit([lad])


def test_smoothing_report_checks(small_grid, small_ctx):
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(_unit_gaussian(small_grid), amplitude=0.5)
    system = PropagatedSystem(small_ctx, model)
    res = evolve(f0, system, 1.0, snapshot_times=(0.5, 1.0))
    lads = [derivative_ladder(res.snapshots[t], t, 4, system) for t in (0.5, 1.0)]
    rep = smoothing_report(lads)
    fit = smoothing_fit(lads)
    ids = {c["id"] for c in rep.checks}
    assert "fit_max_positive_residual" in ids
    assert math.isfinite(fit.C) and fit.C > 0


def test_report_constants_reproducible(small_coeffs, small_ctx):
    # same seed, same ensemble, bit-identical constants
    e1 = make_ensemble(small_coeffs.grid, 64, seed=3, bandlimit=5)
    e2 = make_ensemble(small_coeffs.grid, 64, seed=3, bandlimit=5)
    r1 = estimate_bilinear_constants(member_pass(small_ctx, e1))
    r2 = estimate_bilinear_constants(member_pass(small_ctx, e2))
    v1 = {c["name"]: c["value"] for c in r1.constants}
    v2 = {c["name"]: c["value"] for c in r2.constants}
    assert v1 == v2
