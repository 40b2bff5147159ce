"""Time integration of d_t f + L f = g and the exact derivative ladder.

Two rules keep the factorial-scale quantities trustworthy:

* the forcing is separable, g(t, v) = amplitude e^{-rate t} phi(v), with
  every time derivative available in closed form, and
* time derivatives of the solution are obtained by the exact operator
  recursion  d_t^m f = -L d_t^{m-1} f + d_t^{m-1} g,  never by finite
  differencing of trajectories, which would destroy the k! scaling.

The forcing's amplitude tau(t) = amplitude e^{-rate t} solves
tau' = -rate tau, so y = (f, tau) obeys one linear system y' = -G y with
G(f, tau) = (L f - tau phi, rate tau), whose spectrum is that of L and
rate.  `evolve` applies the exact propagator e^{-s G} through its
Chebyshev expansion on an interval [lo, hi] that contains that spectrum
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 1984; augmenting the system with
the forcing follows Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011), so
no step size and no stability region enter.  The time axis is cut into
octave segments [0, T/2^K], ..., [T/2, T] with K = ceil(log2(rho(L) T)),
plus every requested time as an edge; one `step` propagates one segment
and its SEGMENT_SAMPLES uniform sample times by a single three-term
recurrence, and returns f and L f at those times.  The samples form the
energy log, whose nested subsamples are the energy-identity rungs; the
log's (Lf, f) comes from the recurrence's own applications of L, and
`evolve` checks it against L applied directly to the last sample of each
segment.  `evolve` propagates on the interval that `spectral_interval`
builds from the measured spectral radius and lower edge of L; `step`
refuses, before it applies L, an interval that does not contain them.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, LadderOverflowError
from .field import ScalarField, a_norm, inner_product, l2_norm, zeros

LADDER_KMAX_CAP = 10
LADDER_OVERFLOW = 1e100
# p: panels per segment of the coarsest energy-identity rung; the rungs
# take p, 2p and 4p panels per segment.  Measured at N=24 (seed 42): the
# log of p = 4 and that of p = 8 both take 218 applications of L, since a
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
        """m-th time derivative of amplitude e^{-rate t} at time t."""
        if m < 0:
            raise ValueError("derivative order must be >= 0")
        if self.amplitude == 0.0:
            return 0.0  # +0.0, where 0.0 * (-rate) ** m gives -0.0 for odd m
        return self.amplitude * (-self.rate) ** m * math.exp(-self.rate * t)


def source_eval(model, m, t):
    """d_t^m g(t) as a field: d_t^m (amplitude e^{-rate t}) phi."""
    return model.tau_derivative(m, t) * model.phi


def measure_source_bound(model, T, kmax=8, samples=65):
    """A_g = sup_{k<=kmax, t<=T} (t^k ||d_t^k g|| / k!)^{1/(k+1)}."""
    phi_norm = l2_norm(model.phi)
    ts = np.linspace(0.0, T, samples)
    best = 0.0
    for k in range(kmax + 1):
        fk = math.factorial(k)
        for t in ts:
            val = (t ** k) * abs(model.tau_derivative(k, t)) * phi_norm / fk
            best = max(best, val ** (1.0 / (k + 1)))
    return best


# ---------------------------------------------------------------------------
# Chebyshev propagation
# ---------------------------------------------------------------------------

@dataclass
class EvolutionState:
    f: ScalarField
    t: float = 0.0
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


def spectral_interval(ctx, model):
    """The measured edges (lower, upper) of the spectrum of G, and the
    propagation interval of `evolve`, which reaches (SPECTRUM_MARGIN - 1)
    rho beyond the edges of L.

    upper = max(rho(L), rate) and lower = min(lower edge of L, rate); the
    lower edge rho - max |rho - lambda(L)| is at most min Re lambda(L)."""
    rho, edge, rate = ctx.spectral_radius, ctx.spectrum_lower_edge, model.rate
    margin = (SPECTRUM_MARGIN - 1.0) * rho
    return ((min(edge, rate), max(rho, rate)),
            (min(edge - margin, rate), max(rho + margin, rate)))


def segment_edges(T, rho, marks=()):
    """0, the octaves T/2^K, ..., T/2, T with K = ceil(log2(rho T)) (none
    when rho T <= 1), and every mark in (0, T]."""
    octaves = math.ceil(math.log2(rho * T)) if rho * T > 1.0 else 0
    edges = {T * 2.0 ** -j for j in range(octaves + 1)}
    edges |= {float(m) for m in marks if 0.0 < m <= T}
    return [0.0] + sorted(edges)


def _log_row(f, lf, t, ctx, model):
    """The energy-log row (t, ||f||^2, ||f||_A^2, (g, f), (Lf, f)), with
    `lf` = L f as the caller holds it."""
    return (t, inner_product(f, f), a_norm(f, ctx.coeffs) ** 2,
            inner_product(source_eval(model, 0, t), f), inner_product(lf, f))


def step_buffers(n):
    """The blocks `step` works in for fields of n values: the samples and
    their L f, the pending terms and their L (T_k y), and one product."""
    return (np.empty((2, SEGMENT_SAMPLES, n)),
            np.empty((2, ACCUMULATED_TERMS, n)),
            np.empty((SEGMENT_SAMPLES, n)))


def step(f, t0, t1, ctx, model, interval, buffers=None):
    """Propagate f(t0) to the SEGMENT_SAMPLES uniform times of (t0, t1] by
    one Chebyshev recurrence T_{k+1}(X) y = 2 X T_k(X) y - T_{k-1}(X) y,
    X = (2 G - hi - lo) / (hi - lo), whose vectors serve every sample time.
    Returns the fields f at those times, the last at t1, and L f at the
    same times, sum_k c_k(s_i) L (T_k y)_f: every term's image under L is
    the one the recurrence takes to build the next term, and the last
    term's is one more, so L is applied len(chebyshev_coefficients) times.
    Both sums run as one matrix product per ACCUMULATED_TERMS terms.  The
    returned fields are views of `buffers` (see `step_buffers`, allocated
    afresh when None), which the next step on the same buffers overwrites.

    An interval [lo, hi] that does not contain the measured edges of the
    spectrum of G (see `spectral_interval`) raises InstabilityError before
    L is applied: outside [lo, hi] the series grows instead of decaying."""
    (lower, upper), _ = spectral_interval(ctx, model)
    lo, hi = interval
    if not (lo <= lower and upper <= hi and lo < hi and math.isfinite(hi - lo)):
        raise InstabilityError(
            f"interval [{lo:.6g}, {hi:.6g}] does not contain the measured "
            f"spectrum [{lower:.6g}, {upper:.6g}] of the propagated system")
    grid = f.grid
    phi = model.phi.values
    scale, shift = 2.0 / (hi - lo), (hi + lo) / (hi - lo)
    rate_x = scale * model.rate - shift

    offsets = (t1 - t0) * np.arange(1, SEGMENT_SAMPLES + 1) / SEGMENT_SAMPLES
    coef = chebyshev_coefficients(offsets, interval)
    degree = len(coef) - 1
    # samples[0] holds f, samples[1] L f; terms the same for the pending T_k y
    samples, terms, product = buffers or step_buffers(f.values.size)
    samples.fill(0.0)
    prev, cur = None, (f.values, model.tau_derivative(0, t0))
    for k in range(degree + 1):
        lf = ctx.apply(ScalarField(grid, cur[0])).values
        j = k % ACCUMULATED_TERMS
        terms[0, j], terms[1, j] = cur[0].ravel(), lf.ravel()
        if j == ACCUMULATED_TERMS - 1 or k == degree:
            block = coef[k - j:k + 1].T
            for part in (0, 1):
                np.matmul(block, terms[part, :j + 1], out=product)
                samples[part] += product
        if k < degree:
            xf = scale * (lf - cur[1] * phi) - shift * cur[0]
            xt = rate_x * cur[1]
            if prev is not None:
                xf, xt = 2.0 * xf - prev[0], 2.0 * xt - prev[1]
            prev, cur = cur, (xf, xt)
    fields = samples.reshape((2, SEGMENT_SAMPLES) + grid.shape)
    return ([ScalarField(grid, v) for v in fields[0]],
            [ScalarField(grid, v) for v in fields[1]])


def _relative_gap(got, exact):
    """||got - exact|| / ||exact||, or ||got|| when exact is zero."""
    norm = l2_norm(exact)
    return l2_norm(got - exact) / norm if norm > 0.0 else l2_norm(got)


def evolve(f0, model, T, ctx, snapshot_times=(), log=None):
    """Propagate f0 to time T on the interval of `spectral_interval`;
    returns the energy log, with one row at 0 and SEGMENT_SAMPLES rows per
    segment (see `segment_edges`), the fields at the snapshot times and at
    T with the index of the segment that ends at each, and `lf_gap`.

    The log's (Lf, f) takes L f from `step`.  L is also applied directly
    to the last sample of every segment; `lf_gap` is the largest relative
    distance between the two, so a propagator that applies another
    operator than ctx's cannot pass its own energy identity unnoticed.
    `log`, when given, receives one progress line per segment."""
    if T <= 0:
        raise ValueError("horizon T must be positive")
    lo, hi = spectral_interval(ctx, model)[1]
    edges = segment_edges(T, ctx.spectral_radius, snapshot_times)
    # applications of L per segment: the series' terms but the last, one
    # for the last term and one for the direct check
    costs = [len(chebyshev_coefficients([t1 - t0], (lo, hi))) + 1
             for t0, t1 in zip(edges[:-1], edges[1:])]
    planned = 1 + sum(costs)

    f, rows = f0, [_log_row(f0, ctx.apply(f0), 0.0, ctx, model)]
    snapshots, snapshot_steps, gaps = {}, {}, []
    applied, started = 1, time.perf_counter()
    # one set of blocks for every segment: each segment's rows, last
    # sample and gap are taken before the next one overwrites them
    buffers = step_buffers(f0.values.size)
    for i, (t0, t1) in enumerate(zip(edges[:-1], edges[1:]), 1):
        samples, lfs = step(f, t0, t1, ctx, model, (lo, hi), buffers)
        times = [t0 + (t1 - t0) * j / SEGMENT_SAMPLES
                 for j in range(1, SEGMENT_SAMPLES)] + [t1]
        rows += [_log_row(sample, lf, t, ctx, model)
                 for sample, lf, t in zip(samples, lfs, times)]
        f = samples[-1].copy()
        gaps.append(_relative_gap(lfs[-1], ctx.apply(f)))
        if t1 in snapshot_times or t1 == T:
            snapshots[t1], snapshot_steps[t1] = f, i
        applied += costs[i - 1]
        if log is not None:
            left = (time.perf_counter() - started) * (planned - applied) / applied
            log(f"evolve: segment {i}/{len(costs)}, t = {t1:.4g}, "
                f"||f|| = {math.sqrt(rows[-1][1]):.4g}, {applied} of {planned} "
                f"applications of L, about {left:.1f} s left")
    return EvolutionResult(EvolutionState(f, T, len(costs)), np.array(rows),
                           snapshots, snapshot_steps, float(np.max(gaps)))


# ---------------------------------------------------------------------------
# derivative ladder
# ---------------------------------------------------------------------------

@dataclass
class DerivativeLadder:
    """Exact time derivatives of the solution at a fixed time t > 0.

    entries[m] = d_t^m f(t) via the operator recursion; a_k is the
    factorial-normalized magnitude t^k ||d_t^k f|| / k! whose boundedness
    in k expresses time analyticity."""

    t: float
    entries: list
    norms_l2: np.ndarray
    norms_a: np.ndarray
    a_k: np.ndarray
    a_k_root: np.ndarray


def derivative_ladder(f_t, t, kmax, model, ctx):
    """Build d_t^m f for m = 0..kmax by  D^m = -L D^{m-1} + d_t^{m-1} g."""
    if t <= 0:
        raise ValueError("ladder requires t > 0")
    if kmax > LADDER_KMAX_CAP:
        raise ValueError(f"kmax {kmax} above cap {LADDER_KMAX_CAP}")

    entries = [f_t.copy()]
    for m in range(1, kmax + 1):
        nxt = source_eval(model, m - 1, t) - ctx.apply(entries[-1])
        if not np.all(np.abs(nxt.values) < LADDER_OVERFLOW):
            raise LadderOverflowError(f"ladder overflow at depth {m}", depth=m)
        entries.append(nxt)

    norms_l2 = np.array([l2_norm(d) for d in entries])
    norms_a = np.array([a_norm(d, ctx.coeffs) for d in entries])
    ks = np.arange(kmax + 1, dtype=float)
    facts = np.array([math.factorial(k) for k in range(kmax + 1)], dtype=float)
    a_k = t ** ks * norms_l2 / facts
    with np.errstate(divide="ignore"):
        a_k_root = a_k ** (1.0 / (ks + 1.0))
    return DerivativeLadder(t, entries, norms_l2, norms_a, a_k, a_k_root)
