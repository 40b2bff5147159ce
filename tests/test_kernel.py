import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from landau import kernel
from landau.errors import QuadratureError
from landau.field import VectorField
from landau.grid import AXIS_OF_COMPONENT, VelocityGrid
from landau.kernel import (KernelParams, QuadratureSpec, _lattice_offsets,
                           _radial_rule, abar_profiles_at, c2_by_convolution,
                           cell_average_radial_power, compute_abar_field,
                           compute_scalar_weights, kernel_first_derivatives,
                           kernel_matrix_batch, maxwellian_field, polar_integrals,
                           radial_power_convolutions, serial_matmul,
                           tabulate_fft_kernels, toeplitz_factor)
from landau.verify import check_convolution_bound
from tests.conftest import (abar_matrix, divergence_tables, padded_fft_convolution,
                            radial_kernel_table, separable_density)


def test_gamma_range_enforced():
    with pytest.raises(ValueError):
        KernelParams(0.0)
    with pytest.raises(ValueError):
        KernelParams(-3.0)
    KernelParams(-2.9999)


def _divergence(v, gamma):
    """b_j = sum_k d_k a_jk, the trace of the first derivatives."""
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


@pytest.mark.parametrize("which", [0, 1])
def test_abar_quadrature_rejects_a_nan_profile(monkeypatch, which):
    # a NaN at one radius of l_par (0) or l_perp (1), at both radial
    # orders, fails the order-doubling gate, in either place of the pair
    exact = kernel._abar_profiles

    def faulty(s_values, params, radial_order, r_max):
        profiles = exact(s_values, params, radial_order, r_max)
        profiles[which][1] = math.nan
        return profiles

    monkeypatch.setattr(kernel, "_abar_profiles", faulty)
    with pytest.raises(QuadratureError):
        abar_profiles_at(np.array([0.5, 1.0, 2.0]), KernelParams(-1.0), QuadratureSpec())


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


def test_abar_profiles_blocks_leave_the_bytes(monkeypatch):
    # the quadrature taken in blocks of radii gives the bytes of one
    # evaluation over all of them; the radii span the series switch
    s = np.linspace(0.0, 8.0 * math.sqrt(3.0), 600)
    args = (s, KernelParams(-1.0), 32, s.max() + 8.0)
    blocked = kernel._abar_profiles(*args)
    monkeypatch.setattr(kernel, "_ABAR_BLOCK", s.size)
    for got, want in zip(blocked, kernel._abar_profiles(*args)):
        assert np.array_equal(got, want)


# (a shape, b shape, a in column order): products above OpenBLAS's serial
# bounds, most with a ragged last block: the abar gemv at N=64 (1192 radii),
# one with a last row to join (1201 = 75 * 16 + 1), one too long for 16
# rows a call, the z contraction at N=64 and N=80, one with a last column
# to join (2017 = 2 * 1008 + 1), and the x and y passes of N=100 planes.
# Each wide product has a multiple of 8 columns, or few enough that the
# one-call product goes to the same OpenBLAS kernel as the blocks
SERIAL_SHAPES = [
    ((1192, 384), (384,), False),
    ((1201, 384), (384,), False),
    ((300, 1000), (1000,), False),
    ((64, 64), (64, 4096), True),
    ((80, 80), (80, 6400), True),
    ((16, 16), (16, 2017), True),
    ((5, 100, 100), (100, 100), False),
    ((100, 100), (5, 100, 100), True),
]

# the one-call products of the operands saved in argv[1], on the BLAS
# thread count of the environment
SERIAL_REFERENCE_RUN = """
import hashlib, sys
import numpy as np
operands = np.load(sys.argv[1])
for i in range(len(operands.files) // 2):
    product = np.matmul(operands[f"a{i}"], operands[f"b{i}"])
    print(hashlib.sha256(product.tobytes()).hexdigest())
"""


def _serial_operands(shapes):
    """Seeded operands (a, b) of `shapes`."""
    rng = np.random.default_rng(7)
    return [(rng.standard_normal(a[::-1]).T if transposed else rng.standard_normal(a),
             rng.standard_normal(b)) for a, b, transposed in shapes]


def test_serial_matmul_gives_the_one_call_bytes(tmp_path):
    # against the one-call product on one BLAS thread, in a child process:
    # with more threads OpenBLAS may split a matrix-vector product at a row
    # that no tile boundary matches, and its bytes change
    operands = _serial_operands(SERIAL_SHAPES)
    path = tmp_path / "operands.npz"
    np.savez(path, **{f"{name}{i}": x for i, pair in enumerate(operands)
                      for name, x in zip("ab", pair)})
    run = subprocess.run([sys.executable, "-c", SERIAL_REFERENCE_RUN, str(path)],
                         env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    got = [hashlib.sha256(serial_matmul(a, b).tobytes()).hexdigest()
           for a, b in operands]
    assert got == run.stdout.split()


def test_serial_matmul_calls_stay_within_the_bounds(monkeypatch):
    # every BLAS call is within its serial bound and two rows (columns)
    # wide, and the calls write each entry of the product once
    calls = []
    matmul = np.matmul

    def spy(a, b, out):
        calls.append((a.shape, b.shape, out.size))
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    # and two whose bound a whole number of tiles fills, 32 rows of 287
    # and 64 columns of 64 x 64, each with a last row (column) to join
    full = [((65, 287), (287,), False), ((64, 64), (64, 129), True)]
    for a, b in _serial_operands(SERIAL_SHAPES + full):
        calls.clear()
        product = serial_matmul(a, b)
        assert len(calls) > 1
        for a_shape, b_shape, _ in calls:
            m, k = a_shape[-2:]
            if len(b_shape) == 1:
                assert 2 <= m and m * k < kernel.SERIAL_GEMV_BELOW
            else:
                assert 2 <= b_shape[-1] and m * k * b_shape[-1] <= kernel.SERIAL_GEMM_MAX
        assert sum(size for _, _, size in calls) == product.size


def _blas_threads_from_environment():
    """OpenBLAS's thread count as the environment sets it, its first
    positive setting, or None."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return None


# the CPU ticks of every thread but the caller's over a cold coefficient
# build and the convolution suite's bound at N=32 and at N=48, R=8,
# gamma = -1, and the c2 route at N=112, whose x and y passes are over the
# bound per plane; each reading after a pause in which OpenBLAS's workers,
# woken or new, finish busy-waiting
WORKER_TICKS_RUN = """
import os, time
from landau.grid import VelocityGrid
from landau.kernel import KernelParams, build_coefficients, c2_by_convolution
from landau.verify import check_convolution_bound

def worker_ticks():
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if tid != str(os.getpid()):
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks

params = KernelParams(-1.0)
time.sleep(0.5)
before = worker_ticks()
for n in (32, 48):
    grid = VelocityGrid(R=8.0, N=n)
    build_coefficients(grid, params)
    check_convolution_bound(grid, params)
c2_by_convolution(VelocityGrid(R=8.0, N=112), params)
time.sleep(0.5)
print(worker_ticks() - before)
"""


def test_build_wakes_no_blas_worker():
    # every product of a build and of the convolution suite runs on the
    # calling thread, so no OpenBLAS worker spends CPU on it
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to read the threads' CPU time from")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable core: OpenBLAS starts no worker")
    if _blas_threads_from_environment() == 1:
        pytest.skip("the environment pins OpenBLAS to one thread")
    src = os.path.dirname(os.path.dirname(os.path.abspath(kernel.__file__)))
    run = subprocess.run([sys.executable, "-c", WORKER_TICKS_RUN],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) <= 1


def _block_sizes(grid):
    """Kernel elements per block of `radial_power_convolutions`: 3 z-planes
    of the folded kernel, N^2 values each, so that the last of its N planes
    is in a short block at N = 16, and its own."""
    return 3 * grid.N ** 2, kernel._STREAM_ELEMENTS


@pytest.mark.parametrize("kind", ["b_x", "radial"])
def test_radial_power_convolutions_match_padded_fft(small_grid, params, kind,
                                                    monkeypatch):
    # the streamed kernel's Toeplitz passes against zero-padded transforms
    # of the whole pad-2 table, three distinct factors: on the odd
    # b_x = -2 |u|^gamma u_x, with -2 u_x folded into the x matrix, and on
    # the even radial kernel; in blocks of 3 z-planes (the last one short)
    # and in the default blocks
    ax = small_grid.axis
    factors = [np.exp(-0.3 * ax * ax), ax * np.exp(-0.5 * ax * ax),
               np.cos(ax) * np.exp(-0.2 * ax * ax)]
    wz, wy, wx = (toeplitz_factor(small_grid, f) for f in factors)
    if kind == "b_x":
        table = divergence_tables(small_grid, params, pad=2)[0]
        wx = -2.0 * _lattice_offsets(small_grid, 2)[:, None] * wx
    else:
        table = radial_kernel_table(small_grid, params.gamma, pad=2)
    want = padded_fft_convolution(small_grid, table, separable_density(factors))
    for elements in _block_sizes(small_grid):
        monkeypatch.setattr(kernel, "_STREAM_ELEMENTS", elements)
        (got,) = radial_power_convolutions(small_grid, params.gamma,
                                           [(wz, [(wy, wx)])])
        assert got.shape == small_grid.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [16, 18])
def test_radial_power_convolutions_need_no_parity(params, n, monkeypatch):
    # the fold reads the kernel's symmetry alone: against densities with no
    # parity along any axis (factors centred off the origin, one with an
    # odd part), two groups, one of them with two terms, equal the
    # zero-padded transforms of the whole pad-2 table; in blocks of 3
    # planes the last block holds 1 of the N planes at N=16 and 3 at N=18
    grid = VelocityGrid(R=6.0, N=n)
    ax = grid.axis
    f = [np.exp(-0.3 * (ax - 0.7) ** 2), np.exp(-0.5 * (ax + 1.1) ** 2),
         (1.0 + 0.4 * ax) * np.exp(-0.2 * (ax - 0.3) ** 2)]
    w = [toeplitz_factor(grid, g) for g in f]
    table = radial_kernel_table(grid, params.gamma, pad=2)
    want = [padded_fft_convolution(grid, table, separable_density(f)),
            padded_fft_convolution(grid, table, separable_density([f[1], f[0], f[2]]))
            + padded_fft_convolution(grid, table, separable_density([f[1], f[2], f[0]]))]
    for elements in _block_sizes(grid):
        monkeypatch.setattr(kernel, "_STREAM_ELEMENTS", elements)
        got = radial_power_convolutions(
            grid, params.gamma, [(w[0], [(w[1], w[2])]),
                                 (w[1], [(w[0], w[2]), (w[2], w[0])])])
        for g, v in zip(got, want):
            assert np.max(np.abs(g - v)) <= 1e-13 * np.max(np.abs(v))


@pytest.mark.parametrize("n", [16, 18])
def test_radial_power_convolutions_are_the_lattice_sum(params, n, monkeypatch):
    # on general M x N matrices, row M/2 zero as in every Toeplitz factor,
    # each group is h^3 sum_s K[s] wz wy wx over every shift of the whole
    # pad-2 table
    grid = VelocityGrid(R=6.0, N=n)
    wz, wy, wx = np.random.default_rng(5).uniform(0.5, 1.5, (3, 2 * n, n))
    wz[n] = wy[n] = wx[n] = 0.0
    table = radial_kernel_table(grid, params.gamma, pad=2)
    want = grid.cell_volume * np.einsum("zyx,za,yb,xc->abc", table, wz, wy, wx,
                                        optimize=True)
    for elements in _block_sizes(grid):
        monkeypatch.setattr(kernel, "_STREAM_ELEMENTS", elements)
        (got,) = radial_power_convolutions(grid, params.gamma, [(wz, [(wy, wx)])])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_radial_power_convolutions_refuse_a_row_at_half_the_lattice(small_grid, params,
                                                                    axis):
    # the folded sums leave out the shift -N h, so a factor matrix that
    # carries a value there, on any axis, is refused
    w = toeplitz_factor(small_grid, np.exp(-0.5 * small_grid.axis ** 2))
    factors = [w, w, w]
    factors[axis] = w.copy()
    factors[axis][small_grid.N, 3] = 1e-300
    wz, wy, wx = factors
    with pytest.raises(ValueError, match="row M/2"):
        radial_power_convolutions(small_grid, params.gamma, [(wz, [(wy, wx)])])


def test_c2_by_convolution_matches_padded_fft(small_grid, params, monkeypatch):
    # (1/2) sum_k b_k * (v_k mu), each term by zero-padded transforms of
    # the pad-2 b_k table and of v_k mu; in blocks of 3 z-planes and in
    # the default blocks
    b = divergence_tables(small_grid, params, pad=2)
    gauss = np.exp(-0.5 * small_grid.axis ** 2)
    want = np.zeros(small_grid.shape)
    for k in range(3):
        factors = [gauss, gauss, gauss]
        factors[AXIS_OF_COMPONENT[k]] = small_grid.axis * gauss
        want += padded_fft_convolution(small_grid, b[k], separable_density(factors))
    want *= 0.5 * params.mu_prefactor
    for elements in _block_sizes(small_grid):
        monkeypatch.setattr(kernel, "_STREAM_ELEMENTS", elements)
        got = c2_by_convolution(small_grid, params)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_pad2_routes_peak_below_one_pad2_table(params):
    # the c2 route and the convolution suite each allocate less at their
    # peak than one (2N)^3 float64 table, on a grid whose node arrays the
    # run has already built (N=48: 0.66 and 0.70 of it; forming the pad-2
    # tables, 3.2 and 2.2)
    grid = VelocityGrid(R=8.0, N=48)
    grid.radius, grid.bracket_weight(params.gamma)
    table_bytes = 8 * (2 * grid.N) ** 3
    for route in (c2_by_convolution, check_convolution_bound):
        tracemalloc.start()
        try:
            route(grid, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes, (route.__name__, peak / table_bytes)


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
    assert kernel.crosscheck_c2(c2, small_grid, small_coeffs.params) <= 0.05
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
    iz, iy, ix = (int(round(c / small_grid.h)) % small_grid.N for c in (u[2], u[1], u[0]))
    assert tables.a_comps[3, iz, iy, ix] == pytest.approx(a[0, 1], rel=1e-13)
    assert tables.a_comps[0, iz, iy, ix] == pytest.approx(a[0, 0], rel=1e-13)


@pytest.mark.parametrize("pad", [1, 2])
@pytest.mark.parametrize("gamma", [-1.0, -2.9])
def test_fft_tables_are_the_batch_kernel_bit_for_bit(gamma, pad):
    # the a-tables and kernel_matrix_batch evaluate one formula, so every
    # nonzero shift of the lattice holds the batch value to the last bit
    grid = VelocityGrid(R=8.0, N=16)
    a = tabulate_fft_kernels(grid, KernelParams(gamma), pad).a_comps
    m = pad * grid.N
    offs = np.fft.fftfreq(m) * m * grid.h
    uz, uy, ux = np.meshgrid(offs, offs, offs, indexing="ij")
    pts = np.stack([ux, uy, uz], axis=-1).reshape(-1, 3)[1:]
    batch = kernel_matrix_batch(pts, gamma)
    for (j, k), i in kernel._SYM_INDEX.items():
        assert np.array_equal(a[i].reshape(-1)[1:], batch[:, j, k])


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
    # central differences of the evaluator judge its complex step
    h = 1e-5
    for gamma in (-0.5, -1.5, -2.9):
        for point in ((1.1, -0.6, 0.9), (0.0, 0.0, 1.3)):  # generic, on axis
            v = np.array([point])
            d1 = kernel_first_derivatives(v, gamma)[0]  # [l, j, k]
            for l in range(3):
                e = np.zeros(3)
                e[l] = h
                fd = (kernel_matrix_batch(v + e, gamma)[0]
                      - kernel_matrix_batch(v - e, gamma)[0]) / (2 * h)
                assert np.allclose(d1[l], fd, atol=1e-8)


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
