import math

import numpy as np
import pytest

from landau.errors import InstabilityError, LadderOverflowError
from landau.evolution import (RK4_STABILITY_LIMIT, SourceModel,
                              derivative_ladder, evolve, measure_source_bound,
                              source_eval, step)
from landau.field import l2_norm, random_field, zeros
from tests.conftest import gaussian_field


def unit_gaussian(grid, width=1.5):
    f = gaussian_field(grid, width)
    return (1.0 / l2_norm(f)) * f


def test_source_eval_exp(small_grid):
    phi = unit_gaussian(small_grid)
    model = SourceModel(phi, rate=1.0)
    # third derivative of e^{-t} at t=0 flips the sign
    out = source_eval(model, 3, 0.0)
    assert np.allclose(out.values, -phi.values, rtol=1e-14)


def test_source_bound_finite(small_grid):
    model = SourceModel(unit_gaussian(small_grid), rate=1.0)
    a_g = measure_source_bound(model, T=2.0, kmax=8)
    assert 0.0 < a_g < 10.0


def test_step_zero_stays_zero(small_grid, small_ctx):
    model = SourceModel.zero(small_grid)
    out, row = step(zeros(small_grid), 0.25, 0.01, small_ctx, model)
    assert np.all(out.values == 0.0)
    # the energy-log row of the step start
    assert row == (0.25, 0.0, 0.0, 0.0, 0.0)


def test_step_without_operator_matches_quadrature(small_grid, small_zero_ctx):
    # with L = 0 and g = phi e^{-t}, a single RK4 step reproduces the
    # exact integral of tau to O(dt^5)
    phi = unit_gaussian(small_grid)
    model = SourceModel(phi, rate=1.0)
    errs = []
    for dt in (0.2, 0.1):
        out, _ = step(zeros(small_grid), 0.0, dt, small_zero_ctx, model)
        exact = (1.0 - math.exp(-dt)) * phi.values
        errs.append(float(np.max(np.abs(out.values - exact))))
    assert 24.0 <= errs[0] / errs[1] <= 40.0  # fifth-order local error


def test_evolve_zero_data_zero_source(small_grid, small_ctx):
    model = SourceModel.zero(small_grid)
    res = evolve(zeros(small_grid), model, 0.5, small_ctx)
    assert l2_norm(res.state.f) == 0.0
    assert res.energy_log[-1, 0] == pytest.approx(0.5)


def test_evolve_snapshots_and_log(small_grid, small_ctx):
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    res = evolve(f0, model, 0.2, small_ctx, snapshot_times=(0.1, 0.2))
    assert set(res.snapshots) == {0.1, 0.2}
    t = res.energy_log[:, 0]
    assert np.all(np.diff(t) > 0)
    assert np.isfinite(res.energy_log).all()
    # log rows are (t, l2sq, asq, gf, lff); the first row is the datum
    assert res.energy_log[0, 1] == pytest.approx(l2_norm(f0) ** 2, rel=1e-12)


def test_default_step_from_spectral_radius(small_grid, small_ctx):
    # each segment between marks takes ceil(span * rho / 0.3) equal steps
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    rho = small_ctx.spectral_radius
    res = evolve(f0, model, 0.25, small_ctx, snapshot_times=(0.1,))
    steps = math.ceil(0.1 * rho / 0.3) + math.ceil(0.15 * rho / 0.3)
    assert res.state.step_index == steps
    assert len(res.energy_log) == steps + 1
    dt = np.diff(res.energy_log[:, 0])
    assert 0.25 < dt.max() * rho <= 0.3 * (1 + 1e-12)


def test_default_step_accuracy(small_grid, small_ctx):
    # the default step against a run at half of it, to T = 0.5: measured
    # 6.9e-9 relative; the step doubled gives 1.2e-7, and the ladder's
    # coarsest rule dt*rho = 2.4 gives 4.0e-5
    f0 = random_field(small_grid, 7, bandlimit=5, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    T = 0.5
    res = evolve(f0, model, T, small_ctx)
    n = res.state.step_index
    half = evolve(f0, model, T, small_ctx, dt=T / (2 * n))
    assert half.state.step_index == 2 * n
    err = l2_norm(res.state.f - half.state.f) / l2_norm(half.state.f)
    assert err < 2e-8


def test_rk4_self_convergence(small_grid, small_ctx):
    # fixed problem, halving dt: fourth-order trajectory error
    f0 = random_field(small_grid, 7, bandlimit=5, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=1.0)
    T = 0.08
    sols = {}
    for n in (4, 8, 16):
        res = evolve(f0, model, T, small_ctx, dt=T / n)
        sols[n] = res.state.f.values
    e1 = float(np.max(np.abs(sols[4] - sols[16])))
    e2 = float(np.max(np.abs(sols[8] - sols[16])))
    # Richardson: e1/e2 ~ (16 + ...) for a 4th-order method against a
    # finer reference; accept a broad band around 16
    assert 10.0 <= e1 / e2 <= 24.0


def test_ladder_base_case(small_grid, small_ctx):
    # with g = 0, the first rung is -L f
    f = random_field(small_grid, 9, bandlimit=5, envelope_width=1.0)
    model = SourceModel.zero(small_grid)
    lad = derivative_ladder(f, 1.0, 1, model, small_ctx)
    lf = small_ctx.apply(f)
    assert np.allclose(lad.entries[1].values, -lf.values, rtol=1e-13)
    assert lad.norms_l2[1] == pytest.approx(l2_norm(lf), rel=1e-12)


def test_ladder_closed_form_without_operator(small_grid, small_zero_ctx):
    # with L = 0 the rungs are the source's time derivatives
    phi = unit_gaussian(small_grid)
    model = SourceModel(phi, rate=1.0)
    f_t = 0.5 * phi
    t = 0.8
    lad = derivative_ladder(f_t, t, 5, model, small_zero_ctx)
    for m in range(1, 6):
        expected = model.tau_derivative(m - 1, t) * phi.values
        assert np.allclose(lad.entries[m].values, expected, rtol=1e-13)
    # a_k matches the scalar closed form
    for k in range(1, 6):
        expected = t ** k * math.exp(-t) / math.factorial(k)
        assert lad.a_k[k] == pytest.approx(expected, rel=1e-12)


def test_ladder_linearity(small_grid, small_ctx):
    model = SourceModel.zero(small_grid)
    f1 = random_field(small_grid, 20, bandlimit=5, envelope_width=1.0)
    f2 = random_field(small_grid, 21, bandlimit=5, envelope_width=1.0)
    mix = 2.0 * f1 + (-3.0) * f2
    lad_mix = derivative_ladder(mix, 1.0, 3, model, small_ctx)
    lad1 = derivative_ladder(f1, 1.0, 3, model, small_ctx)
    lad2 = derivative_ladder(f2, 1.0, 3, model, small_ctx)
    for m in range(4):
        combo = 2.0 * lad1.entries[m].values - 3.0 * lad2.entries[m].values
        scale = np.max(np.abs(combo)) + 1e-300
        assert np.max(np.abs(lad_mix.entries[m].values - combo)) <= 1e-11 * scale


def test_ladder_requires_positive_time(small_grid, small_ctx):
    model = SourceModel.zero(small_grid)
    f = random_field(small_grid, 22, bandlimit=5)
    with pytest.raises(ValueError):
        derivative_ladder(f, 0.0, 2, model, small_ctx)
    with pytest.raises(ValueError):
        derivative_ladder(f, 1.0, 11, model, small_ctx)


def test_ladder_overflow_guard(small_grid):
    # an artificial exploding operator trips the overflow error with depth
    class Exploding:
        coeffs = None

        def apply(self, f):
            return 1e60 * f

    model = SourceModel.zero(small_grid)
    f = random_field(small_grid, 23, bandlimit=5)
    with pytest.raises(LadderOverflowError) as err:
        derivative_ladder(f, 1.0, 4, model, Exploding())
    assert err.value.depth == 2


def test_ladder_matches_time_differencing(small_grid, small_ctx):
    # (f(t+d) - f(t-d)) / 2d approaches the first rung as d shrinks
    f0 = random_field(small_grid, 30, bandlimit=4, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    t0 = 0.3
    deltas = (0.1, 0.05)
    errs = []
    for d in deltas:
        marks = (t0 - d, t0, t0 + d)
        res = evolve(f0, model, t0 + d, small_ctx, snapshot_times=marks)
        lad = derivative_ladder(res.snapshots[t0], t0, 1, model, small_ctx)
        fd = (res.snapshots[t0 + d].values - res.snapshots[t0 - d].values) / (2 * d)
        errs.append(float(np.max(np.abs(fd - lad.entries[1].values))))
    ratio = errs[0] / errs[1]
    assert 2.5 <= ratio <= 6.0  # second order in the offset


def test_instability_guard(small_grid, small_ctx):
    # a step at or beyond the real-axis RK4 limit, or not positive, is
    # refused before L is applied even once; just inside the limit the run
    # goes ahead
    class Counting:
        coeffs = small_ctx.coeffs
        spectral_radius = small_ctx.spectral_radius
        calls = 0

        def apply(self, f):
            self.calls += 1
            return small_ctx.apply(f)

    ctx = Counting()
    limit = RK4_STABILITY_LIMIT / ctx.spectral_radius
    f0 = random_field(small_grid, 31, bandlimit=5)
    model = SourceModel.zero(small_grid)
    for dt in (limit, 1.02 * limit, math.inf, math.nan, 0.0, -0.5 * limit):
        with pytest.raises(InstabilityError, match="dt\\*rho"):
            evolve(f0, model, 3.0 * limit, ctx, dt=dt)
    assert ctx.calls == 0
    res = evolve(f0, model, 3.0 * 0.98 * limit, ctx, dt=0.98 * limit)
    # four stages per step, the first shared with the log row, plus the
    # final log row
    assert res.state.step_index == 3
    assert ctx.calls == 4 * 3 + 1
