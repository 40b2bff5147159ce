import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import landau
from landau import evolution
from landau.errors import InstabilityError, LadderOverflowError
from landau.evolution import (SEGMENT_SAMPLES, SourceModel,
                              chebyshev_coefficients, derivative_ladder,
                              evolve, measure_source_bound, scaled_bessel_i,
                              source_eval, spectral_interval, step,
                              step_buffers)
from landau.field import ScalarField, inner_product, l2_norm, random_field, zeros
from landau.operator import apply_L1
from landau.verify import check_energy
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
    interval = spectral_interval(small_ctx, model)[1]
    samples, lfs = step(zeros(small_grid), 0.25, 0.35, small_ctx, model, interval)
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
    # with L = 0 and g = amplitude e^{-t} phi the solution is
    # f0 + amplitude (1 - e^{-t}) phi; the operator stand-in carries the
    # measured edges 0 of L = 0
    phi = unit_gaussian(small_grid)
    model = SourceModel(phi, rate=1.0, amplitude=0.7)
    f0 = random_field(small_grid, 5, bandlimit=5, envelope_width=1.0)

    def exact(t):
        return f0.values + 0.7 * (1.0 - math.exp(-t)) * phi.values

    scale = float(np.max(np.abs(f0.values)))
    interval = spectral_interval(small_zero_ctx, model)[1]
    samples, _ = step(f0, 0.0, 0.4, small_zero_ctx, model, interval)
    for i, f in enumerate(samples, 1):
        err = np.max(np.abs(f.values - exact(0.4 * i / SEGMENT_SAMPLES)))
        assert err <= 1e-12 * scale
    res = evolve(f0, model, 2.0, small_zero_ctx, snapshot_times=(0.5, 1.0))
    assert sorted(res.snapshots) == [0.5, 1.0, 2.0]
    for t, f in res.snapshots.items():
        assert np.max(np.abs(f.values - exact(t))) <= 1e-12 * scale


def test_evolve_zero_data_zero_source(small_grid, small_ctx):
    model = SourceModel.zero(small_grid)
    res = evolve(zeros(small_grid), model, 0.5, small_ctx)
    assert l2_norm(res.state.f) == 0.0
    assert res.energy_log[-1, 0] == 0.5


def test_evolve_snapshots_and_log(small_grid, small_ctx):
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    lines = []
    res = evolve(f0, model, 0.2, small_ctx, snapshot_times=(0.1, 0.2),
                 log=lines.append)
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
    # one progress line per segment, counting the applications of L
    assert len(lines) == segments
    assert lines[-1].startswith(f"evolve: segment {segments}/{segments}, t = 0.2")
    assert "applications of L" in lines[-1]


def test_default_step_from_spectral_radius(small_grid, small_ctx):
    # octave segments [0, T/2^K], ..., [T/2, T] with K = ceil(log2(rho T)),
    # the snapshot time 0.1 splitting one of them, SEGMENT_SAMPLES uniform
    # rows each
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    rho = small_ctx.spectral_radius
    T = 0.25
    res = evolve(f0, model, T, small_ctx, snapshot_times=(0.1,))
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
    # length 8/rho
    f0 = random_field(small_grid, 7, bandlimit=5, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    t0, t1 = 0.1, 0.1 + 8.0 / small_ctx.spectral_radius
    lo, hi = spectral_interval(small_ctx, model)[1]
    measured, lfs = step(f0, t0, t1, small_ctx, model, (lo, hi))
    wide, _ = step(f0, t0, t1, small_ctx, model, (lo - 5.0, 2.0 * hi))
    for f, g in zip(measured, wide):
        assert l2_norm(f - g) <= 1e-12 * l2_norm(g)
    # L f at each sample, summed from the recurrence's own applications of
    # L, is L applied to the sample
    for f, lf in zip(measured, lfs):
        direct = small_ctx.apply(f)
        assert l2_norm(lf - direct) <= 1e-12 * l2_norm(direct)


def test_step_on_reused_buffers_is_bit_identical(small_grid, small_ctx):
    # evolve hands every segment the same blocks: a step on blocks that
    # another step has filled gives the bytes of a step on fresh blocks
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    interval = spectral_interval(small_ctx, model)[1]
    t0, t1 = 0.1, 0.1 + 8.0 / small_ctx.spectral_radius
    buffers = step_buffers(small_grid.N ** 3)
    step(random_field(small_grid, 8, bandlimit=5), 0.0, 0.2, small_ctx, model,
         interval, buffers)
    f0 = random_field(small_grid, 7, bandlimit=5, envelope_width=1.0)
    reused = step(f0, t0, t1, small_ctx, model, interval, buffers)
    fresh = step(f0, t0, t1, small_ctx, model, interval)
    for got, want in zip(reused, fresh):
        for g, w in zip(got, want):
            assert np.array_equal(g.values, w.values)
    # the fields returned are views of the blocks
    assert np.shares_memory(reused[0][-1].values, buffers[0])


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
    model = SourceModel.zero(grid)
    span = 1.0 / small_ctx.spectral_radius
    samples, lfs = step(v, 0.0, span, small_ctx, model,
                        spectral_interval(small_ctx, model)[1])
    for i, (f, lf) in enumerate(zip(samples, lfs), 1):
        exact = math.exp(-theta.real * span * i / SEGMENT_SAMPLES) * v
        assert l2_norm(f - exact) <= 1e-10 * l2_norm(exact)
        assert l2_norm(lf - theta.real * exact) <= 1e-10 * theta.real * l2_norm(exact)


class CountingContext:
    """The operator context of `ctx`, counting its applications of L."""

    def __init__(self, ctx, apply=None):
        self.coeffs = ctx.coeffs
        self.spectral_radius = ctx.spectral_radius
        self.spectrum_lower_edge = ctx.spectrum_lower_edge
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
    evolve(f0, model, 0.5, ctx, snapshot_times=(0.25,), log=lines.append)
    applied, planned = map(int, re.search(
        r"(\d+) of (\d+) applications of L", lines[-1]).groups())
    assert ctx.calls == applied == planned


def test_energy_log_lff_is_direct(small_grid, small_ctx):
    # the log's (Lf, f), taken from the recurrence, is (Lf, f) with L
    # applied to the snapshot itself
    f0 = random_field(small_grid, 42, bandlimit=5, envelope_width=1.0)
    model = SourceModel(unit_gaussian(small_grid), amplitude=0.5)
    res = evolve(f0, model, 0.5, small_ctx, snapshot_times=(0.1, 0.25))
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

    def checks(res):
        return {c.id: c for c in check_energy(res, []).checks}

    true = checks(evolve(f0, model, 0.5, small_ctx))
    assert true["energy_log_lf_gap"].verdict
    assert abs(true["residual_dt_slope"].value - 4.0) <= 0.5

    # propagates with L1 on the interval measured for L
    l1_only = CountingContext(small_ctx, lambda f: apply_L1(f, small_ctx.coeffs))
    original = evolution.step
    monkeypatch.setattr(evolution, "step",
                        lambda f, t0, t1, ctx, *a: original(f, t0, t1, l1_only, *a))
    wrong = checks(evolve(f0, model, 0.5, small_ctx))
    assert not wrong["energy_log_lf_gap"].verdict
    assert wrong["energy_log_lf_gap"].value > 0.1


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
    # an interval that does not contain the measured spectrum, [lower edge,
    # rho] of L, is refused before L is applied even once; an interval that
    # contains it goes ahead
    ctx = CountingContext(small_ctx)
    rho, edge = ctx.spectral_radius, ctx.spectrum_lower_edge
    assert edge < 0.0 < rho
    f0 = random_field(small_grid, 31, bandlimit=5)
    model = SourceModel.zero(small_grid)
    for interval in ((edge, 0.99 * rho), (edge + 0.01, 1.02 * rho),
                     (0.0, 1.02 * rho), (edge, math.inf), (math.nan, rho),
                     (1.02 * rho, edge)):
        with pytest.raises(InstabilityError, match="does not contain"):
            step(f0, 0.0, 0.1, ctx, model, interval)
    # the forcing's rate is an eigenvalue of the propagated system too
    fast = SourceModel(unit_gaussian(small_grid), rate=2.0 * rho)
    with pytest.raises(InstabilityError, match="does not contain"):
        step(f0, 0.0, 0.1, ctx, fast, (edge, 1.02 * rho))
    assert ctx.calls == 0
    samples, _ = step(f0, 0.0, 0.1, ctx, model, (edge, rho))
    assert ctx.calls > 0
    assert all(np.isfinite(f.values).all() for f in samples)


# rho, the lower edge, the energy log and the snapshots of a short run at
# N=24, R=8, where OpenBLAS splits a dot product of N^3 terms over threads
BLAS_THREADS_RUN = """
import hashlib
import numpy as np
from landau.evolution import SourceModel, evolve
from landau.field import ScalarField, l2_norm, random_field
from landau.grid import VelocityGrid
from landau.kernel import KernelParams, QuadratureSpec, build_coefficients
from landau.operator import make_context

grid = VelocityGrid(R=8.0, N=24)
ctx = make_context(build_coefficients(grid, KernelParams(-1.0), QuadratureSpec()))
phi = ScalarField(grid, np.exp(-grid.radius_sq / 2.0))
model = SourceModel((1.0 / l2_norm(phi)) * phi, amplitude=0.5)
f0 = random_field(grid, 42, bandlimit=8, envelope_width=1.25)
res = evolve(f0, model, 0.1, ctx, snapshot_times=(0.05,))
print(repr(ctx.spectral_radius), repr(ctx.spectrum_lower_edge))
print(hashlib.sha256(res.energy_log.tobytes()).hexdigest())
for t, f in sorted(res.snapshots.items()):
    print(t, hashlib.sha256(f.values.tobytes()).hexdigest())
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
    assert len(outputs[0].splitlines()) == 4
    assert outputs[0] == outputs[1]
