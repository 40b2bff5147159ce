"""Time integration of d_t f + L f = g and the exact derivative ladder.

The forcing is separable, g(t, v) = tau(t) phi(v), and its amplitude
tau(t) = amplitude e^{-rate t} solves tau' = -rate tau, so y = (f, tau)
obeys one linear system y' = -G y with G(f, tau) = (L f - tau phi,
rate tau), whose spectrum is that of L and rate.  `PropagatedSystem` is
the one place that writes G.  The ladder's time derivatives d_t^m f are
the f-rows of (-G)^m y, exact: finite differences of trajectories would
destroy the k! scaling.

`evolve` applies the exact propagator e^{-s G} through its Chebyshev
expansion on an interval [lo, hi] that contains that spectrum (Tal-Ezer &
Kosloff, J. Chem. Phys. 81, 1984; augmenting the system with the forcing
follows Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011), so no step size
and no stability region enter.  The time axis is cut into octave segments
[0, T/2^K], ..., [T/2, T] with K = ceil(log2(rho(L) T)), plus every
requested time as an edge; one `step` propagates one segment and its
SEGMENT_SAMPLES uniform sample times by a single three-term recurrence,
and returns f and L f at those times.  The samples form the energy log,
whose nested subsamples are the energy-identity rungs; the log's (Lf, f)
comes from the recurrence's own applications of L, and `evolve` checks it
against L applied directly to the last sample of each segment.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError
from .field import ScalarField, a_norm, inner_product, l2_norm, zeros

LADDER_KMAX_CAP = 10
# p: panels per segment of the coarsest energy-identity rung; the rungs
# take p, 2p and 4p panels per segment.  Measured at N=24 (seed 42): the
# log of p = 4 and that of p = 8 both take 209 applications of L, since a
# sample costs none, and give residual dt-slopes of 3.90 and 3.97; p = 8
# doubles the samples' memory and the log rows' A-norms.
RUNG_PANELS = 4
SEGMENT_SAMPLES = 4 * RUNG_PANELS
# the interval reaches (SPECTRUM_MARGIN - 1) rho(L) beyond the measured
# edges of the spectrum at both ends: room for their measurement errors
SPECTRUM_MARGIN = 1.02
# the Chebyshev series is cut where the coefficients left out sum to at
# most this fraction of the sum of all of them
CHEBYSHEV_TOL = 1e-15
# terms of the series that `step` adds into its samples per matrix
# product, (SEGMENT_SAMPLES x 8) @ (8 x N^3); a product with this few terms
# gives the same bytes for any BLAS thread count
ACCUMULATED_TERMS = 8
# columns per block of that product: a (16 x 8) @ (8 x 2048) product is
# below OpenBLAS's threading threshold, so it runs on the calling thread and
# wakes no worker to spin after it, and its (16 x 2048) result is all that
# is allocated before it is added into the samples
STEP_COLUMNS = 2048
# depth and sample count on [0, T] of the forcing bound A_g
SOURCE_BOUND_KMAX = 8
SOURCE_BOUND_SAMPLES = 65


@dataclass
class SourceModel:
    """Separable analytic forcing g(t, v) = amplitude e^{-rate t} phi(v),
    whose time derivatives of every order are in closed form."""

    phi: ScalarField
    rate: float = 1.0
    amplitude: float = 1.0

    @classmethod
    def zero(cls, grid):
        return cls(zeros(grid), amplitude=0.0)

    def tau_derivative(self, m, t):
        """m-th time derivative of amplitude e^{-rate t} at time t, m >= 0."""
        return self.amplitude * (-self.rate) ** m * math.exp(-self.rate * t)


def measure_source_bound(model, T):
    """A_g = sup_{k<=SOURCE_BOUND_KMAX, t<=T} (t^k ||d_t^k g|| / k!)^{1/(k+1)}."""
    phi_norm = l2_norm(model.phi)
    ts = np.linspace(0.0, T, SOURCE_BOUND_SAMPLES)
    # a numpy maximum, which keeps a NaN that Python's max would drop
    return float(np.max([
        ((t ** k) * abs(model.tau_derivative(k, t)) * phi_norm
         / math.factorial(k)) ** (1.0 / (k + 1))
        for k in range(SOURCE_BOUND_KMAX + 1) for t in ts]))


# ---------------------------------------------------------------------------
# Chebyshev propagation
# ---------------------------------------------------------------------------

@dataclass
class EvolutionState:
    f: ScalarField
    step_index: int = 0


@dataclass
class EvolutionResult:
    state: EvolutionState
    energy_log: np.ndarray            # rows (t, l2sq, asq, gf, lff)
    snapshots: dict                   # time -> ScalarField
    snapshot_steps: dict              # time -> index of the segment ending there
    lf_gap: float                     # largest ||Lf_log - Lf|| / ||Lf|| checked


def scaled_bessel_i(z):
    """e^{-z} I_k(z) for k = 0..M and each z >= 0 of the 1-d array `z`, as
    an (M + 1, len(z)) array, M large enough that the terms left out are
    far below round-off.

    Miller's backward recurrence I_{k-1} = I_{k+1} + (2k/z) I_k, run on
    the ratios r_k = I_k / I_{k-1} = z / (2k + z r_{k+1}) so that nothing
    overflows, and normalized by e^{-z} (I_0 + 2 sum_k I_k) = 1.  Written
    with numpy alone: importing scipy.special would add about 26 MB to the
    resident memory of every run."""
    z = np.asarray(z, dtype=float)
    zmax = float(np.max(z))
    top = int(zmax + 10.0 * math.sqrt(zmax)) + 40
    ratios = np.empty((top + 1,) + z.shape)
    r = np.zeros_like(z)
    for k in range(top, 0, -1):
        r = z / (2.0 * k + z * r)
        ratios[k] = r
    ratios[0] = 1.0
    rel = np.cumprod(ratios, axis=0)          # I_k / I_0
    return rel / (2.0 * np.sum(rel, axis=0) - 1.0)


def chebyshev_coefficients(offsets, interval):
    """Coefficients c[k, i] of e^{-s_i x} = sum_k c[k, i] T_k(X) for the
    offsets s_i >= 0, where x in [lo, hi] = interval and
    X = (2x - hi - lo) / (hi - lo):
    c[k, i] = (2 - delta_k0) (-1)^k e^{-s_i lo} I~_k(s_i (hi - lo) / 2),
    with I~_k the exponentially scaled modified Bessel function.  The
    series is cut where, at the largest offset, the coefficients left out
    sum to at most CHEBYSHEV_TOL of the sum of all of them."""
    lo, hi = interval
    offsets = np.asarray(offsets, dtype=float)
    bessel = scaled_bessel_i(0.5 * (hi - lo) * offsets)
    widest = bessel[:, int(np.argmax(offsets))]
    tail = 2.0 * np.cumsum(widest[::-1])[::-1]     # tail[k] = 2 sum_{j>=k}
    degree = max(1, int(np.argmax(tail <= CHEBYSHEV_TOL)) - 1)
    k = np.arange(degree + 1)
    signs = np.where(k % 2 == 0, 2.0, -2.0)
    signs[0] = 1.0
    return (signs[:, None] * bessel[:degree + 1]) * np.exp(-lo * offsets)


class PropagatedSystem:
    """The system y' = -G y of y = (f, tau), G(f, tau) = (L f - tau phi,
    rate tau), for the operator context `ctx` and the forcing `model`."""

    def __init__(self, ctx, model):
        self.ctx, self.model, self.rate = ctx, model, model.rate

    def apply(self, f, tau, lf=None):
        """L f and the f-row L f - tau phi of G(f, tau), for field values f;
        `lf`, the values of L f when the caller already holds them, spares
        the application of L."""
        phi = self.model.phi
        if lf is None:
            lf = self.ctx.apply(ScalarField(phi.grid, f)).values
        return lf, lf - tau * phi.values

    def spectrum(self, margin=0.0):
        """(lower, upper) of G: rate and L's measured edges, each moved
        margin * rho outwards; SPECTRUM_MARGIN - 1 gives `evolve`'s interval.
        L's lower edge rho - max |rho - lambda| is at most min Re lambda."""
        rho, edge = self.ctx.spectrum.rho, self.ctx.spectrum.edge
        pad = margin * rho
        return min(edge - pad, self.rate), max(rho + pad, self.rate)


def segment_edges(T, rho, marks=()):
    """0, the octaves T/2^K, ..., T/2, T with K = ceil(log2(rho T)) (none
    when rho T <= 1), and every mark in (0, T]."""
    octaves = math.ceil(math.log2(rho * T)) if rho * T > 1.0 else 0
    edges = {T * 2.0 ** -j for j in range(octaves + 1)}
    edges |= {float(m) for m in marks if 0.0 < m <= T}
    return [0.0] + sorted(edges)


def _log_row(f, lf, t, system):
    """The energy-log row (t, ||f||^2, ||f||_A^2, (g, f), (Lf, f)), with
    `lf` = L f as the caller holds it."""
    g = system.model.tau_derivative(0, t) * system.model.phi
    return (t, inner_product(f, f), a_norm(f, system.ctx.coeffs) ** 2,
            inner_product(g, f), inner_product(lf, f))


def step(f, t0, t1, system, interval, lf0=None):
    """Propagate y = (f(t0), tau(t0)) to the SEGMENT_SAMPLES uniform times
    of (t0, t1] by one Chebyshev recurrence T_{k+1}(X) y = 2 X T_k(X) y -
    T_{k-1}(X) y, X = (2 G - hi - lo) / (hi - lo), G that of `system`, whose
    vectors serve every sample time.  Returns the fields f at those times,
    the last at t1, and L f at the same times, sum_k c_k(s_i) L (T_k y)_f:
    `system.apply` gives each term's image under L with the f-row of G
    that builds the next term, so L is applied once per term, and not to
    the first term, f itself, when the caller hands L f in as `lf0`.
    Both sums run as one matrix product per ACCUMULATED_TERMS terms, in
    blocks of STEP_COLUMNS columns added into the samples.  The samples
    and the pending terms are blocks made by this call; the returned
    fields are views of the samples' block, which no later call touches.

    An interval [lo, hi] that does not contain `system.spectrum()`, the
    measured edges of the spectrum of G, raises InstabilityError before L
    is applied: outside [lo, hi] the series grows instead of decaying."""
    lower, upper = system.spectrum()
    lo, hi = interval
    if not (lo <= lower and upper <= hi and lo < hi and math.isfinite(hi - lo)):
        raise InstabilityError(
            f"interval [{lo:.6g}, {hi:.6g}] does not contain the measured "
            f"spectrum [{lower:.6g}, {upper:.6g}] of the propagated system")
    grid = f.grid
    scale, shift = 2.0 / (hi - lo), (hi + lo) / (hi - lo)
    rate_x = scale * system.rate - shift

    offsets = (t1 - t0) * np.arange(1, SEGMENT_SAMPLES + 1) / SEGMENT_SAMPLES
    coef = chebyshev_coefficients(offsets, interval)
    degree = len(coef) - 1
    # samples[0] holds f, samples[1] L f; terms the same for the pending T_k y
    samples = np.zeros((2, SEGMENT_SAMPLES, f.values.size))
    terms = np.empty((2, ACCUMULATED_TERMS, f.values.size))
    prev, cur = None, (f.values, system.model.tau_derivative(0, t0))
    image = None if lf0 is None else lf0.values  # L of the first term, if held
    for k in range(degree + 1):
        lf, xf = system.apply(*cur, lf=image)  # G's f-row, then X's: no third field lives on
        image = None
        j = k % ACCUMULATED_TERMS
        terms[0, j], terms[1, j] = cur[0].ravel(), lf.ravel()
        # formed after the last term too, unused, so G's f-row dies before the sums
        xf = scale * xf - shift * cur[0]
        xt = rate_x * cur[1]
        if prev is not None:
            xf, xt = 2.0 * xf - prev[0], 2.0 * xt - prev[1]
        prev, cur = cur, (xf, xt)
        if j == ACCUMULATED_TERMS - 1 or k == degree:
            block = coef[k - j:k + 1].T
            for part in (0, 1):
                for c in range(0, samples.shape[2], STEP_COLUMNS):
                    cols = slice(c, c + STEP_COLUMNS)
                    samples[part, :, cols] += block @ terms[part, :j + 1, cols]
    fields = samples.reshape((2, SEGMENT_SAMPLES) + grid.shape)
    return ([ScalarField(grid, v) for v in fields[0]],
            [ScalarField(grid, v) for v in fields[1]])


def _relative_gap(got, exact):
    """||got - exact|| / ||exact||, or ||got|| when exact is zero."""
    norm = l2_norm(exact)
    return l2_norm(got - exact) / norm if norm > 0.0 else l2_norm(got)


def evolve(f0, system, T, snapshot_times=(), log=None):
    """Propagate f0 to time T under `system` on its interval
    `system.spectrum(SPECTRUM_MARGIN - 1)`; returns the energy log, with one
    row at 0 and SEGMENT_SAMPLES rows per segment (see `segment_edges`),
    the fields at the snapshot times and at T with the index of the
    segment that ends at each, and `lf_gap`.

    The log's (Lf, f) takes L f from `step`.  L is also applied directly
    to the last sample of every segment; `lf_gap` is the largest relative
    distance between the two, so a propagator that applies another
    operator than the system's cannot pass its own energy identity
    unnoticed.  That direct image, and L f0 of the first log row, is the
    first term's image in the next `step`, so L is applied once to each
    field.  Each segment's samples are dropped once its rows, last sample
    and gap are taken, so one segment's blocks are held at a time.  `log`,
    when given, receives one line with the measured spectrum of L
    (`OperatorContext.spectrum`) and one progress line per segment."""
    if T <= 0:
        raise ValueError("horizon T must be positive")
    ctx = system.ctx
    lo, hi = system.spectrum(SPECTRUM_MARGIN - 1.0)
    if log is not None:
        measured = ctx.spectrum
        log(f"evolve: spectrum of L measured, rho = {measured.rho:.6g}, lower "
            f"edge = {measured.edge:.6g}, by {measured.applications} "
            f"applications of L in {measured.cycles} Arnoldi cycles")
    edges = segment_edges(T, ctx.spectrum.rho, snapshot_times)
    # applications of L per segment: the series' terms but the first,
    # whose image the caller holds, and one for the direct check
    costs = [len(chebyshev_coefficients([t1 - t0], (lo, hi)))
             for t0, t1 in zip(edges[:-1], edges[1:])]
    planned = 1 + sum(costs)

    f, lf = f0, ctx.apply(f0)
    rows = [_log_row(f0, lf, 0.0, system)]
    snapshots, snapshot_steps, gaps = {}, {}, []
    applied, started = 1, time.perf_counter()
    for i, (t0, t1) in enumerate(zip(edges[:-1], edges[1:]), 1):
        samples, lfs = step(f, t0, t1, system, (lo, hi), lf)
        times = [t0 + (t1 - t0) * j / SEGMENT_SAMPLES
                 for j in range(1, SEGMENT_SAMPLES)] + [t1]
        rows += [_log_row(sample, lf, t, system)
                 for sample, lf, t in zip(samples, lfs, times)]
        f = samples[-1].copy()
        lf = ctx.apply(f)
        gaps.append(_relative_gap(lfs[-1], lf))
        del samples, lfs  # freed before the next step makes its own
        if t1 in snapshot_times or t1 == T:
            snapshots[t1], snapshot_steps[t1] = f, i
        applied += costs[i - 1]
        if log is not None:
            left = (time.perf_counter() - started) * (planned - applied) / applied
            log(f"evolve: segment {i}/{len(costs)}, t = {t1:.4g}, "
                f"||f|| = {math.sqrt(rows[-1][1]):.4g}, {applied} of {planned} "
                f"applications of L, about {left:.1f} s left")
    return EvolutionResult(EvolutionState(f, len(costs)), np.array(rows),
                           snapshots, snapshot_steps, float(np.max(gaps)))


# ---------------------------------------------------------------------------
# derivative ladder
# ---------------------------------------------------------------------------

@dataclass
class DerivativeLadder:
    """Exact time derivatives of the solution at a fixed time t > 0.

    entries[m] = d_t^m f(t), the f-row of (-G)^m (f(t), tau(t)); a_k is the
    factorial-normalized magnitude t^k ||d_t^k f|| / k! whose boundedness
    in k expresses time analyticity."""

    t: float
    entries: list
    norms_l2: np.ndarray
    norms_a: np.ndarray
    a_k: np.ndarray
    a_k_root: np.ndarray


def derivative_ladder(f_t, t, kmax, system):
    """d_t^m f(t), m = 0..kmax: the f-rows of (-G)^m (f(t), tau(t)).  A
    rung that overflows or holds a NaN is returned as it is: its non-finite
    a_k fails the smoothing report (`verify.smoothing_report`)."""
    if t <= 0:
        raise ValueError("ladder requires t > 0")
    if kmax > LADDER_KMAX_CAP:
        raise ValueError(f"kmax {kmax} above cap {LADDER_KMAX_CAP}")

    entries, tau = [f_t.copy()], system.model.tau_derivative(0, t)
    for _ in range(kmax):
        _, gf = system.apply(entries[-1].values, tau)
        entries.append(ScalarField(f_t.grid, -gf))
        tau = -system.rate * tau

    norms_l2 = np.array([l2_norm(d) for d in entries])
    norms_a = np.array([a_norm(d, system.ctx.coeffs) for d in entries])
    ks = np.arange(kmax + 1, dtype=float)
    facts = np.array([math.factorial(k) for k in range(kmax + 1)], dtype=float)
    a_k = t ** ks * norms_l2 / facts
    a_k_root = a_k ** (1.0 / (ks + 1.0))
    return DerivativeLadder(t, entries, norms_l2, norms_a, a_k, a_k_root)
