import math
import os
import re
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import landau
from landau import evolution
from landau.evolution import (SEGMENT_SAMPLES, PropagatedSystem, SourceModel,
                              chebyshev_coefficients, derivative_ladder,
                              evolve, measure_source_bound, scaled_bessel_i,
                              step)
from landau.field import ScalarField, inner_product, l2_norm, random_field, zeros
from landau.grid import VelocityGrid
from landau.kernel import KernelParams, QuadratureSpec, build_coefficients
from landau.operator import SpectrumEdges, apply_L1, make_context
from landau.verify import check_energy, smoothing_report
from tests import diagonal_twin
from tests.conftest import gaussian_field


def unit_gaussian(grid, width=1.5):
    f = gaussian_field(grid, width)
    return (1.0 / l2_norm(f)) * f


def test_source_bound_finite(small_grid):
    model = SourceModel(unit_gaussian(small_grid), rate=1.0)
    a_g = measure_source_bound(model, T=2.0)
    assert 0.0 < a_g < 10.0


def test_step_zero_stays_zero(small_grid, small_ctx):
    system = PropagatedSystem(small_ctx, SourceModel.zero(small_grid))
    samples, lfs = step(zeros(small_grid), 0.25, 0.35, system)
    assert len(samples) == len(lfs) == SEGMENT_SAMPLES
    assert all(np.all(f.values == 0.0) for f in samples + lfs)


def test_scaled_bessel_matches_scipy():
    # e^{-z} I_k(z) against scipy's ive, from z = 0 to the widest segment
    # of an N=64 run (z about 260)
    from scipy.special import ive

    z = np.array([0.0, 1e-9, 1e-3, 0.5, 3.0, 34.5, 260.0])
    got = scaled_bessel_i(z)
    exact = ive(np.arange(len(got))[:, None], z[None, :])
    assert np.max(np.abs(got - exact)) <= 1e-15
    big = exact > 1e-20
    assert np.max(np.abs(got - exact)[big] / exact[big]) <= 1e-12


def test_chebyshev_series_reproduces_exponential():
    # sum_k c_k T_k(X(x)) = e^{-s x} on [lo, hi], for an interval reaching
    # below zero like the measured spectrum of L
    lo, hi = -0.5, 70.0
    offsets = np.array([1e-4, 0.01, 0.1, 0.5])
    coef = chebyshev_coefficients(offsets, (lo, hi))
    x = np.linspace(lo, hi, 1001)
    cheb = np.polynomial.chebyshev.chebval((2.0 * x - hi - lo) / (hi - lo), coef)
    exact = np.exp(-np.multiply.outer(offsets, x))
    assert np.max(np.abs(cheb - exact) / np.exp(-lo * offsets)[:, None]) <= 1e-14


def test_step_without_operator_matches_quadrature(small_grid, small_zero_ctx):
    # with L = 0 and g = amplitude e^{-rate t} phi the solution is
    # f0 + amplitude (1 - e^{-rate t}) / rate phi; the operator stand-in
    # carries the measured edges 0 of L = 0, so G's tau row sets the top
    # of the interval.  At rate 0.7, (-rate)^m is not exact.
    phi = unit_gaussian(small_grid)
    f0 = random_field(small_grid, 5, bandlimit=5, envelope_width=1.0)
    scale = float(np.max(np.abs(f0.values)))
    for rate in (1.0, 0.7):
        system = PropagatedSystem(small_zero_ctx,
                                  SourceModel(phi, rate=rate, amplitude=0.7))

        def exact(t):
            return f0.values + 0.7 * (1.0 - math.exp(-rate * t)) / rate * phi.values

        assert system.interval == (0.0, rate)
        samples, _ = step(f0, 0.0, 0.4, system)
        for i, f in enumerate(samples, 1):
            err = np.max(np.abs(f.values - exact(0.4 * i / SEGMENT_SAMPLES)))
            assert err <= 1e-12 * scale
        res = evolve(f0, system, 2.0, snapshot_times=(0.5, 1.0))
        assert sorted(res.snapshots) == [0.5, 1.0, 2.0]
        for t, f in res.snapshots.items():
            assert np.max(np.abs(f.values - exact(t))) <= 1e-12 * scale


def test_evolve_zero_data_zero_source(small_grid, small_ctx):
    model = SourceModel.zero(small_grid)
    res = evolve(zeros(small_grid), PropagatedSystem(small_ctx, model), 0.5)
    assert l2_norm(res.state.f) == 0.0
    assert res.energy_log[-1, 0] == 0.5


def test_evolve_snapshots_and_log(small_grid, small_ctx):
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    lines = []
    res = evolve(f0, PropagatedSystem(small_ctx, model), 0.2,
                 snapshot_times=(0.1, 0.2), log=lines.append)
    assert set(res.snapshots) == {0.1, 0.2}
    t = res.energy_log[:, 0]
    assert np.all(np.diff(t) > 0)
    assert np.isfinite(res.energy_log).all()
    # log rows are (t, l2sq, asq, gf, lff); the first row is the datum,
    # then SEGMENT_SAMPLES rows per segment, the snapshot times among them
    assert res.energy_log[0, 1] == pytest.approx(l2_norm(f0) ** 2, rel=1e-12)
    segments = res.state.step_index
    assert len(res.energy_log) == 1 + SEGMENT_SAMPLES * segments
    assert {0.1, 0.2} <= set(t)
    # one line with the measured spectrum, then one progress line per
    # segment, counting the applications of L
    measured = small_ctx.spectrum
    assert len(lines) == 1 + segments
    assert lines[0] == (
        f"evolve: spectrum of L measured, rho = {measured.rho:.6g}, lower "
        f"edge = {measured.edge:.6g}, by {measured.applications} "
        f"applications of L in {measured.cycles} Arnoldi cycles")
    assert lines[-1].startswith(f"evolve: segment {segments}/{segments}, t = 0.2")
    assert "applications of L" in lines[-1]


def test_default_step_from_spectral_radius(small_grid, small_ctx):
    # octave segments [0, T/2^K], ..., [T/2, T] with K = ceil(log2(rho T)),
    # the snapshot time 0.1 splitting one of them, SEGMENT_SAMPLES uniform
    # rows each
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    rho = small_ctx.spectrum.rho
    T = 0.25
    res = evolve(f0, PropagatedSystem(small_ctx, model), T, snapshot_times=(0.1,))
    octaves = math.ceil(math.log2(rho * T))
    assert res.state.step_index == octaves + 2
    t = res.energy_log[:, 0]
    edges = t[::SEGMENT_SAMPLES]
    assert 0.1 in edges and T in edges
    assert 0.5 < edges[1] * rho <= 1.0       # the first octave
    for a, b in zip(edges[:-1], edges[1:]):
        seg = t[(t >= a) & (t <= b)]
        assert np.allclose(np.diff(seg), (b - a) / SEGMENT_SAMPLES, rtol=1e-12)


def test_default_step_accuracy(small_grid, small_ctx):
    # the measured interval against a much wider one, whose series has
    # other coefficients and more terms, at every sample of a segment of
    # length 8/rho; the wide series propagates the true L on a stand-in
    # whose measured edges reach past (lo - 5, 2 hi)
    f0 = random_field(small_grid, 7, bandlimit=5, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    t0, t1 = 0.1, 0.1 + 8.0 / small_ctx.spectrum.rho
    system = PropagatedSystem(small_ctx, model)
    lo, hi = system.interval
    stand_in = SimpleNamespace(apply=small_ctx.apply, coeffs=small_ctx.coeffs,
                               spectrum=SpectrumEdges(2.0 * hi, lo - 5.0, 0, 0))
    wide_system = PropagatedSystem(stand_in, model)
    wide_lo, wide_hi = wide_system.interval
    assert wide_lo <= lo - 5.0 and wide_hi >= 2.0 * hi
    measured, lfs = step(f0, t0, t1, system)
    wide, _ = step(f0, t0, t1, wide_system)
    for f, g in zip(measured, wide):
        assert l2_norm(f - g) <= 1e-12 * l2_norm(g)
    # L f at each sample, summed from the recurrence's own applications of
    # L, is L applied to the sample
    for f, lf in zip(measured, lfs):
        direct = small_ctx.apply(f)
        assert l2_norm(lf - direct) <= 1e-12 * l2_norm(direct)


def _traced_peak(run, rho):
    """The traced peak of `run(system, f0)` in N^3 doubles, the system and
    `run`'s result, at N=32, R=6, on a fresh context whose measured edges
    (rho, -1) are stood in, so that no Arnoldi run is needed.  One
    application of L first builds the coefficient set's cached fields
    (mu_half, l1_form), which would count otherwise (2 N^3 in one step)."""
    grid = VelocityGrid(R=6.0, N=32)
    ctx = make_context(build_coefficients(grid, KernelParams(-1.0), QuadratureSpec()))
    stand_in = SimpleNamespace(coeffs=ctx.coeffs, apply=ctx.apply,
                               spectrum=SpectrumEdges(rho, -1.0, 0, 0))
    system = PropagatedSystem(stand_in, SourceModel(unit_gaussian(grid), amplitude=0.5))
    f0 = random_field(grid, 7, bandlimit=5, envelope_width=1.0)
    ctx.apply(f0)
    tracemalloc.start()
    try:
        out = run(system, f0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * grid.N ** 3), system, out


def test_step_memory_holds_no_product_block():
    # one step at N=32 allocates its samples and terms (48 N^3 doubles)
    # and temporaries of about 14 N^3 (61.7 measured); a (16, N^3)
    # product block on top of them would pass 64 N^3 (75.0)
    held, system, (samples, _) = _traced_peak(
        lambda system, f0: step(f0, 0.0, 0.05, system), rho=200.0)
    assert len(chebyshev_coefficients([0.05], system.interval)) > 16
    assert all(np.isfinite(f.values).all() for f in samples)
    assert held < 64.0, held


def test_evolve_holds_one_segment_of_blocks():
    # each step makes its own blocks, and evolve drops a segment's before
    # the next step: 7 segments at N=32 peak at 63.8 N^3 doubles, where
    # keeping each segment's samples into the next step reads 95.8
    held, _, res = _traced_peak(lambda system, f0: evolve(f0, system, 0.5), rho=120.0)
    assert len(res.energy_log) == 1 + 7 * SEGMENT_SAMPLES
    assert np.isfinite(res.energy_log).all()
    assert held < 75.0, held


def test_propagator_top_ritz_vector(small_grid, small_ctx):
    # with g = 0 the top Ritz vector v of L, Lv = theta v up to a residual
    # of 1.5e-12 theta (scipy's ARPACK, in the test only), propagates to
    # e^{-s theta} v at every sample
    from scipy.sparse.linalg import LinearOperator, eigs

    grid = small_grid

    def matvec(x):
        return small_ctx.apply(ScalarField(grid, x.reshape(grid.shape))).values.ravel()

    n = grid.N ** 3
    theta, vec = eigs(LinearOperator((n, n), matvec=matvec, dtype=float), k=1,
                      which="LM", v0=np.random.default_rng(0).standard_normal(n),
                      tol=1e-10)
    theta, vec = theta[0], vec[:, 0]
    assert abs(theta.imag) <= 1e-12 * abs(theta)
    v = ScalarField(grid, (vec / vec[np.argmax(np.abs(vec))]).real.reshape(grid.shape))
    system = PropagatedSystem(small_ctx, SourceModel.zero(grid))
    span = 1.0 / small_ctx.spectrum.rho
    samples, lfs = step(v, 0.0, span, system)
    for i, (f, lf) in enumerate(zip(samples, lfs), 1):
        exact = math.exp(-theta.real * span * i / SEGMENT_SAMPLES) * v
        assert l2_norm(f - exact) <= 1e-10 * l2_norm(exact)
        assert l2_norm(lf - theta.real * exact) <= 1e-10 * theta.real * l2_norm(exact)


class CountingContext:
    """The operator context of `ctx`, counting its applications of L."""

    def __init__(self, ctx, apply=None):
        self.coeffs = ctx.coeffs
        self.spectrum = ctx.spectrum
        self._apply = apply or ctx.apply
        self.calls = 0

    def apply(self, f):
        self.calls += 1
        return self._apply(f)


def test_evolve_counts_its_applications_of_L(small_grid, small_ctx):
    # the last progress line's "k of planned applications of L" is the
    # number evolve made, and all that it planned
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    ctx = CountingContext(small_ctx)
    lines = []
    evolve(f0, PropagatedSystem(ctx, model), 0.5, snapshot_times=(0.25,),
           log=lines.append)
    applied, planned = map(int, re.search(
        r"(\d+) of (\d+) applications of L", lines[-1]).groups())
    assert ctx.calls == applied == planned


def test_evolve_applies_L_once_per_field(small_grid, small_ctx):
    # L f0 of the first log row and each segment's direct check serve as
    # the image of the next segment's first term, so no field meets L
    # twice: one application for f0 and, per segment, one per term of its
    # series, which is what the progress log plans
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    seen = []
    ctx = CountingContext(small_ctx, lambda f: seen.append(f.values.tobytes())
                          or small_ctx.apply(f))
    system = PropagatedSystem(ctx, model)
    lines = []
    evolve(f0, system, 0.5, snapshot_times=(0.25,), log=lines.append)
    edges = evolution.segment_edges(0.5, ctx.spectrum.rho, (0.25,))
    terms = [len(chebyshev_coefficients([t1 - t0], system.interval))
             for t0, t1 in zip(edges[:-1], edges[1:])]
    planned = int(re.search(r"of (\d+) applications of L", lines[-1]).group(1))
    assert len(edges) > 3
    assert len(seen) == len(set(seen)) == 1 + sum(terms) == planned


def test_step_takes_the_first_image_it_is_handed(small_grid, small_ctx):
    # a step handed L f applies L once less and gives the same bytes
    system = PropagatedSystem(
        small_ctx, SourceModel(unit_gaussian(small_grid), amplitude=0.5))
    f0 = random_field(small_grid, 7, bandlimit=5, envelope_width=1.0)
    counted = CountingContext(small_ctx)
    counting = PropagatedSystem(counted, system.model)
    fresh = step(f0, 0.1, 0.2, counting)
    calls = counted.calls
    handed = step(f0, 0.1, 0.2, counting, lf0=small_ctx.apply(f0))
    assert counted.calls == 2 * calls - 1
    for got, want in zip(handed, fresh):
        for g, w in zip(got, want):
            assert np.array_equal(g.values, w.values)


def test_energy_log_lff_is_direct(small_grid, small_ctx):
    # the log's (Lf, f), taken from the recurrence, is (Lf, f) with L
    # applied to the snapshot itself
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    res = evolve(f0, PropagatedSystem(small_ctx, model), 0.5,
                 snapshot_times=(0.1, 0.25))
    log = res.energy_log
    for t, f in res.snapshots.items():
        [row] = log[log[:, 0] == t]
        assert row[4] == pytest.approx(inner_product(small_ctx.apply(f), f),
                                       rel=1e-12)
    assert res.lf_gap <= 1e-13


def test_propagator_with_L1_fails_lf_gap(small_grid, small_ctx, monkeypatch):
    # the log's L f comes from the propagator, so a propagator that drops
    # L2 keeps its own energy identity; the gap to L applied directly to
    # the last sample of each segment catches it
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    system = PropagatedSystem(small_ctx, model)

    def checks(res):
        return {c["id"]: c for c in check_energy(res, []).checks}

    true = checks(evolve(f0, system, 0.5))
    assert true["energy_log_lf_gap"]["verdict"] == "pass"
    assert abs(true["residual_dt_slope"]["value"] - 4.0) <= 0.5

    # propagates with L1 on the interval measured for L
    l1_only = CountingContext(small_ctx, lambda f: apply_L1(f, small_ctx.coeffs))
    l1_system = PropagatedSystem(l1_only, model)
    original = evolution.step
    monkeypatch.setattr(evolution, "step",
                        lambda f, t0, t1, _, *a: original(f, t0, t1, l1_system, *a))
    wrong = checks(evolve(f0, system, 0.5))
    assert wrong["energy_log_lf_gap"]["verdict"] == "fail"
    assert wrong["energy_log_lf_gap"]["value"] > 0.1


def test_propagator_and_ladder_share_G(small_grid, small_ctx, monkeypatch):
    # one patch of G, dropping the forcing from PropagatedSystem.apply,
    # reaches both the propagated snapshot and a ladder rung: each then
    # equals its unforced counterpart
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    forced = PropagatedSystem(
        small_ctx, SourceModel(unit_gaussian(small_grid), amplitude=0.5))
    unforced = PropagatedSystem(small_ctx, SourceModel.zero(small_grid))

    def outputs(system):
        snapshot = evolve(f0, system, 0.2, snapshot_times=(0.1,)).snapshots[0.1]
        return snapshot.values, derivative_ladder(f0, 0.1, 2, system).entries[1].values

    true, free = outputs(forced), outputs(unforced)
    assert all(l2_norm(ScalarField(small_grid, a - b)) > 1e-3 * l2_norm(
        ScalarField(small_grid, b)) for a, b in zip(true, free))
    original = PropagatedSystem.apply
    monkeypatch.setattr(PropagatedSystem, "apply",
                        lambda self, f, tau, lf=None: original(self, f, 0.0, lf))
    for got, want in zip(outputs(forced), free):
        assert np.array_equal(got, want)


def test_ladder_base_case(small_grid, small_ctx):
    # with g = 0, the first rung is -L f
    f = random_field(small_grid, 9, bandlimit=5, envelope_width=1.0)
    model = SourceModel.zero(small_grid)
    lad = derivative_ladder(f, 1.0, 1, PropagatedSystem(small_ctx, model))
    lf = small_ctx.apply(f)
    assert np.allclose(lad.entries[1].values, -lf.values, rtol=1e-13)
    assert lad.norms_l2[1] == pytest.approx(l2_norm(lf), rel=1e-12)


def test_ladder_closed_form_without_operator(small_grid, small_zero_ctx):
    # with L = 0 the rungs, which iterate G's tau row, are the source's
    # time derivatives in closed form; at rate 0.7, (-rate)^m is not exact
    phi = unit_gaussian(small_grid)
    f_t = 0.5 * phi
    t = 0.8
    for rate in (1.0, 0.7):
        model = SourceModel(phi, rate=rate)
        lad = derivative_ladder(f_t, t, 5, PropagatedSystem(small_zero_ctx, model))
        for m in range(1, 6):
            expected = model.tau_derivative(m - 1, t) * phi.values
            assert np.allclose(lad.entries[m].values, expected, rtol=1e-13, atol=0.0)
        # the third derivative of the forcing flips its sign
        assert np.all(lad.entries[4].values * phi.values <= 0.0)
        # a_k matches the scalar closed form
        for k in range(1, 6):
            expected = t ** k * rate ** (k - 1) * math.exp(-rate * t) / math.factorial(k)
            assert lad.a_k[k] == pytest.approx(expected, rel=1e-12)


def test_ladder_linearity(small_grid, small_ctx):
    system = PropagatedSystem(small_ctx, SourceModel.zero(small_grid))
    f1 = random_field(small_grid, 20, bandlimit=5, envelope_width=1.0)
    f2 = random_field(small_grid, 21, bandlimit=5, envelope_width=1.0)
    mix = 2.0 * f1 + (-3.0) * f2
    lad_mix = derivative_ladder(mix, 1.0, 3, system)
    lad1 = derivative_ladder(f1, 1.0, 3, system)
    lad2 = derivative_ladder(f2, 1.0, 3, system)
    for m in range(4):
        combo = 2.0 * lad1.entries[m].values - 3.0 * lad2.entries[m].values
        scale = np.max(np.abs(combo)) + 1e-300
        assert np.max(np.abs(lad_mix.entries[m].values - combo)) <= 1e-11 * scale


def test_ladder_requires_positive_time(small_grid, small_ctx):
    system = PropagatedSystem(small_ctx, SourceModel.zero(small_grid))
    f = random_field(small_grid, 22, bandlimit=5)
    with pytest.raises(ValueError):
        derivative_ladder(f, 0.0, 2, system)
    with pytest.raises(ValueError):
        derivative_ladder(f, 1.0, 11, system)


def test_exploding_ladder_fails_smoothing_report(small_grid, small_ctx):
    # the ladder has no guard of its own: an exploding operator's rungs
    # overflow to inf, and the smoothing report is what fails them
    class Exploding:
        coeffs = small_ctx.coeffs

        def apply(self, f):
            return 1e60 * f

    model = SourceModel.zero(small_grid)
    f = random_field(small_grid, 23, bandlimit=5)
    with np.errstate(all="ignore"):  # the overflow is the point
        lad = derivative_ladder(f, 1.0, 6, PropagatedSystem(Exploding(), model))
        rep = smoothing_report([lad])
    assert lad.a_k[1] / lad.a_k[0] == pytest.approx(1e60)
    assert lad.a_k[2] / lad.a_k[0] == pytest.approx(5e119)
    assert np.all(np.isinf(lad.a_k[3:]))
    assert rep.failures[1] == ["C", "B"]


def test_non_finite_ladder_entry_fails_smoothing_report(small_grid, small_ctx):
    # a NaN node in the first rung makes every a_k from k = 1 on NaN; the
    # ladder returns it, and the smoothing report fails with C and B
    # non-finite
    class Faulty:
        coeffs = small_ctx.coeffs

        def apply(self, f):
            out = small_ctx.apply(f)
            out.values[3, 4, 5] = math.nan
            return out

    model = SourceModel.zero(small_grid)
    f = random_field(small_grid, 23, bandlimit=5)
    lad = derivative_ladder(f, 1.0, 4, PropagatedSystem(Faulty(), model))
    assert math.isfinite(lad.a_k[0]) and np.all(np.isnan(lad.a_k[1:]))
    rep = smoothing_report([lad])
    # one ladder has no doubled time, so the root variation compares
    # nothing and reads NaN
    assert rep.failures == (["fit_max_positive_residual",
                             "root_variation_under_time_doubling"], ["C", "B"])


def test_ladder_matches_time_differencing(small_grid, small_ctx):
    # (f(t+d) - f(t-d)) / 2d approaches the first rung as d shrinks
    f0 = random_field(small_grid, 30, bandlimit=4, envelope_width=1.0)
    system = PropagatedSystem(
        small_ctx, SourceModel(unit_gaussian(small_grid), amplitude=0.5))
    t0 = 0.3
    deltas = (0.1, 0.05)
    errs = []
    for d in deltas:
        marks = (t0 - d, t0, t0 + d)
        res = evolve(f0, system, t0 + d, snapshot_times=marks)
        lad = derivative_ladder(res.snapshots[t0], t0, 1, system)
        fd = (res.snapshots[t0 + d].values - res.snapshots[t0 - d].values) / (2 * d)
        errs.append(float(np.max(np.abs(fd - lad.entries[1].values))))
    ratio = errs[0] / errs[1]
    assert 2.5 <= ratio <= 6.0  # second order in the offset


def test_propagation_interval_contains_spectrum(small_grid, small_ctx):
    # the interval holds the measured spectrum [lower edge, rho] of L,
    # padded by 2% of rho at both ends, and the forcing's rate, which is an
    # eigenvalue of the propagated system too
    rho, edge = small_ctx.spectrum.rho, small_ctx.spectrum.edge
    assert edge < 0.0 < rho
    system = PropagatedSystem(small_ctx, SourceModel.zero(small_grid))
    assert system.interval == pytest.approx(
        (edge - 0.02 * rho, 1.02 * rho), rel=1e-15, abs=1e-15 * rho)
    fast = PropagatedSystem(
        small_ctx, SourceModel(unit_gaussian(small_grid), rate=2.0 * rho))
    assert fast.interval[0] == system.interval[0]
    assert fast.interval[1] == 2.0 * rho


# rho, the lower edge, the energy log and the snapshots of a short run, the
# c2 convolution route and the convolution suite's two convolutions, at
# N=24, R=8, where OpenBLAS splits a dot product of N^3 terms and the
# routes' Toeplitz products over threads
BLAS_THREADS_RUN = """
import hashlib
import numpy as np
from landau.evolution import PropagatedSystem, SourceModel, evolve
from landau.field import ScalarField, l2_norm, random_field
from landau.grid import VelocityGrid
from landau.kernel import (KernelParams, QuadratureSpec, build_coefficients,
                           c2_by_convolution)
from landau.operator import make_context
from landau.verify import gaussian_convolutions

grid = VelocityGrid(R=8.0, N=24)
ctx = make_context(build_coefficients(grid, KernelParams(-1.0), QuadratureSpec()))
phi = ScalarField(grid, np.exp(-grid.radius_sq / 2.0))
model = SourceModel((1.0 / l2_norm(phi)) * phi, amplitude=0.5)
f0 = random_field(grid, 42, bandlimit=8, envelope_width=1.25)
res = evolve(f0, PropagatedSystem(ctx, model), 0.1, snapshot_times=(0.05,))
print(repr(ctx.spectrum.rho), repr(ctx.spectrum.edge))
print(hashlib.sha256(res.energy_log.tobytes()).hexdigest())
for t, f in sorted(res.snapshots.items()):
    print(t, hashlib.sha256(f.values.tobytes()).hexdigest())
print(hashlib.sha256(c2_by_convolution(grid, KernelParams(-1.0)).tobytes()).hexdigest())
for conv in gaussian_convolutions(grid, -1.0):
    print(hashlib.sha256(conv.tobytes()).hexdigest())
"""


def test_outputs_independent_of_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(landau.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", BLAS_THREADS_RUN], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert len(outputs[0].splitlines()) == 7
    assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def twin_resources():
    """The reference resources at each N that a twin test reads, built once."""
    built = {}

    def at(n):
        if n not in built:
            built[n] = diagonal_twin.reference_resources(n)
        return built[n]
    return at


@pytest.mark.parametrize("n", [24, 32])
def test_diagonal_twin_propagation(twin_resources, n):
    # evolve on L~ = F^-1 lambda F, which spans the real L's measured edges,
    # against the closed-form solution per Fourier mode.  Measured: snapshots
    # 5.7e-15 (N=24) and 9.7e-15 (N=32); the log's ||f||^2 6.7e-15 and
    # 2.1e-14; its (Lf, f) 2.0e-14 and 3.6e-13
    errors = diagonal_twin.twin_errors(twin_resources(n))
    assert errors.snapshot <= 1e-12
    assert errors.l2sq <= 1e-11
    assert errors.lff <= 1e-11


def test_diagonal_twin_sees_chebyshev_cut(twin_resources, monkeypatch):
    # the fault matrix's row chebyshev-cut-1e-8, which no product verdict
    # sees: the series cut at 1e-8 misses the snapshots by up to 3.3e-8,
    # the log's ||f||^2 by 2.1e-8 and its (Lf, f) by 2.4e-6, while the
    # run's own lf_gap stays at 1.6e-14
    monkeypatch.setattr(evolution, "CHEBYSHEV_TOL", 1e-8)
    errors = diagonal_twin.twin_errors(twin_resources(24))
    assert errors.snapshot > 1e-12
    assert errors.l2sq > 1e-11
    assert errors.lff > 1e-11
    assert errors.lf_gap <= 1e-12
