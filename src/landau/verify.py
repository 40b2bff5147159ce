"""Measurement of every constant the estimates assert to exist.

The continuous theory only guarantees existence of the constants, so the
harness measures empirical values over deterministic ensembles and asserts
their bounds and signs, never literal magnitudes.  One rule covers
finiteness: a check whose value is not finite fails, and so does a report
that holds a non-finite constant (`VerificationReport`).  Every maximum
and minimum that forms a constant or a check value is a numpy reduction,
which keeps a NaN where Python's `max` and `min` would drop it.  Ensembles
mix seeded band-limited random fields with deterministic adversarial
probes (oscillatory packets at several radii, where the anisotropic
weights differ most).  An `Ensemble` holds each random member as its band
spectrum, a block whose size does not grow with N, and no probe at all:
the member pass builds a member's or a probe's field when it reads it.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConfigError, DegenerateRatioError, FitDegenerateError
from .evolution import RUNG_PANELS, SEGMENT_SAMPLES
from .field import (ScalarField, a_norm_sq, band_spectrum, gaussian_envelope,
                    gradient, inner_product, l2_norm, normalized, synthesize,
                    weighted_norm)
from .grid import VelocityGrid
from .kernel import (_PAIRS, KernelTableStream, _lattice_offsets, kernel_entries,
                     kernel_first_derivatives, kernel_matrix_batch,
                     radial_power_convolutions, toeplitz_factor)
from .operator import apply_L1, apply_L2

MIN_ENSEMBLE = 64
EPS1 = 0.25
EPS2 = 0.25
# random points of the kernel identity suite, and of the coefficient suite's
# decay and b-table scans with the seed it draws them from
KERNEL_SAMPLES = 1000
COEFFICIENT_SAMPLES = 400
COEFFICIENT_SEED = 77
# rates delta of the convolution suite's densities e^{-delta |v|^2}
CONVOLUTION_DELTAS = (0.5, 1.0)
# projected gradient steps that tighten the coercivity constant
DESCENT_STEPS = 50
# multiplicative slack the fresh ensemble's maxima must stay within
RECHECK_SLACK = 1.1
# largest relative gap between the energy log's L f, taken from the
# propagator's recurrence, and L applied directly (reference.cfg: 2.3e-15 at
# N=24, 4.8e-11 at N=64; a propagator that drops L2: 0.78 at N=16)
LF_GAP_TOL = 1e-10


@dataclass
class VerificationReport:
    """A suite's checks and measured constants, held as the records its
    JSON report is written as: checks {"id", "value", "tol", "verdict":
    "pass" | "fail"}, constants {"name", "value", "ensemble_size",
    "grid_params", "stability"}.  `suites.run_suite` stamps the config
    fingerprint and each constant's grid_params; no suite runs a second
    grid, so stability stays None.

    A check whose value is not finite fails whatever its verdict, and the
    report fails while it holds a non-finite constant."""

    suite: str
    config_fingerprint: str = ""
    checks: list = dataclass_field(default_factory=list)
    constants: list = dataclass_field(default_factory=list)
    descent_steps = None  # not a field: the coercivity descent's steps, for the log

    @property
    def failures(self):
        """(ids of the failed checks, names of the non-finite constants)."""
        return ([c["id"] for c in self.checks if c["verdict"] == "fail"],
                [c["name"] for c in self.constants if not math.isfinite(c["value"])])

    @property
    def passed(self):
        return not any(self.failures)

    def add_check(self, check_id, value, tol, verdict):
        value = float(value)
        self.checks.append({"id": check_id, "value": value, "tol": float(tol),
                            "verdict": "pass" if verdict and math.isfinite(value)
                            else "fail"})

    def add_constant(self, name, value, ensemble_size):
        self.constants.append({"name": name, "value": float(value),
                               "ensemble_size": int(ensemble_size),
                               "grid_params": None, "stability": None})


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

_PACKETS = (((0.0, 0.0, 0.0), 2.0), ((2.0, 0.0, 0.0), 3.0),  # (centre, wavenumber)
            ((0.0, 3.0, 0.0), 5.0), ((3.0, 3.0, 0.0), 4.0))
PROBES = 2 + 2 * len(_PACKETS)  # two radial Gaussians, two per packet


def deterministic_probe(grid, k):
    """Probe k of PROBES, unit-normalized: radial Gaussians of widths 1 and 2,
    then per packet a cosine and a diagonal sine, on the axes, times a unit bump."""
    if k < 2:
        return normalized(ScalarField(grid, np.exp(-grid.radius_sq / (2.0 * (k + 1.0) ** 2))))
    (cx, cy, cz), wave = _PACKETS[k // 2 - 1]
    vx, vy, vz = grid.axis[None, None, :], grid.axis[None, :, None], grid.axis[:, None, None]
    bump = np.exp(-((vx - cx) ** 2 + (vy - cy) ** 2 + (vz - cz) ** 2) / 2.0)
    packet = np.cos(wave * vx) if k % 2 == 0 else np.sin(wave * (vx + vy) / math.sqrt(2.0))
    return normalized(ScalarField(grid, packet * bump))


@dataclass(eq=False)
class Ensemble:
    """The members an inequality estimate is measured over: the seeded
    random members, held as band spectra (`field.band_spectrum`), then the
    PROBES probes, not held.  `ens[i]` builds member i anew on each read:
    bit for bit random_field(grid, seed + i, bandlimit, envelope_width)
    from its block (`field.synthesize`), or a `deterministic_probe`."""

    grid: VelocityGrid
    spectra: list
    envelope: np.ndarray

    def __len__(self):
        return len(self.spectra) + PROBES

    def __getitem__(self, i):
        i = range(len(self))[i]  # IndexError past the end, which ends iteration
        if i < len(self.spectra):
            return synthesize(self.grid, self.spectra[i], self.envelope)
        return deterministic_probe(self.grid, i - len(self.spectra))


def make_ensemble(grid, count, seed, bandlimit=8, envelope_width=1.25):
    """count seeded random members, drawn over one run of seeds per core
    from seed, ..., seed + count - 1, plus the probes, as an `Ensemble`."""
    if count < MIN_ENSEMBLE:
        raise ValueError(f"ensemble needs at least {MIN_ENSEMBLE} random members, got {count}")
    runs = map_on_cores(lambda run: [band_spectrum(grid, seed + i, bandlimit) for i in run],
                        runs_on_cores(count))
    return Ensemble(grid, [block for run in runs for block in run],
                    gaussian_envelope(grid, envelope_width))


# ---------------------------------------------------------------------------
# kernel identity suite
# ---------------------------------------------------------------------------

def check_kernel_identities(params, seed=1234):
    """Null identities of the kernel, the row divergence b_j = sum_k d_k a_jk
    of the first derivatives against the table formula's b
    (`kernel_entries`), and Euler's identity sum_l v_l d_l a = (gamma + 2) a
    (a is homogeneous of degree gamma + 2), at scale-relative tolerance
    1e-12 over KERNEL_SAMPLES random points.  The derivatives are the
    complex step of the evaluator that the null identities read
    (`kernel_first_derivatives`).  Their trace drops the d_l |v|^gamma
    term, as a v = 0; Euler's identity reads it."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-5.0, 5.0, size=(KERNEL_SAMPLES, 3))
    radii = np.linalg.norm(pts, axis=1)
    pts = pts[radii > 0.2]
    radii = radii[radii > 0.2]
    g = params.gamma

    a = kernel_matrix_batch(pts, g)
    quad = np.einsum("pjk,pj,pk->p", a, pts, pts)
    quad_rel = float(np.max(np.abs(quad) / radii ** (g + 4.0)))
    rows = np.einsum("pjk,pj->pk", a, pts)
    row_rel = float(np.max(np.abs(rows) / radii[:, None] ** (g + 3.0)))

    entries = kernel_entries(pts.T, g)
    b = np.stack([next(entries) for _ in range(3)], axis=-1)
    first = kernel_first_derivatives(pts, g)
    trace = np.einsum("pkjk->pj", first)
    div_rel = float(np.max(np.abs(trace - b) / (2.0 * radii[:, None] ** (g + 1.0))))
    euler = np.einsum("pl,pljk->pjk", pts, first) - (g + 2.0) * a
    first_rel = float(np.max(np.abs(euler) / radii[:, None, None] ** (g + 2.0)))

    rep = VerificationReport("kernel")
    tol = 1e-12
    rep.add_check("quadratic_null", quad_rel, tol, quad_rel <= tol)
    rep.add_check("row_null", row_rel, tol, row_rel <= tol)
    rep.add_check("divergence_closed_form", div_rel, tol, div_rel <= tol)
    rep.add_check("first_derivative_homogeneity", first_rel, tol, first_rel <= tol)
    return rep


# ---------------------------------------------------------------------------
# coefficient bound suite
# ---------------------------------------------------------------------------

# interior z-planes per slab of the K_coef derivative scan (16 planes of
# 64^2 values are 512 kB)
_SLAB_PLANES = 16


def abar_derivative_ratios(abar, wgt, h):
    """The 54 decay ratios of K_coef, max |d^beta abar_jk| / w over the
    interior nodes 2 .. N-3, 1 <= |beta| <= 2: per component in the order
    of `_PAIRS`, d_i then d_i d_j for j >= i, over numpy axes i = 0, 1, 2;
    w = wgt, and sqrt(2) wgt for a pure second derivative.

    Each derivative is np.gradient's interior formula (`centered`), so the
    ratios are np.gradient's bits and no edge stencil enters.  The interior
    z-planes are cut into slabs of _SLAB_PLANES with two ghost planes on
    either side: d_i is taken one node in from the ghosted slab's faces,
    its ratio on its interior, d_i d_j from it.  Each core walks one
    contiguous run of slabs (`runs_on_cores`) through four buffers made on
    the calling thread and sized for the tallest slab.  Each ratio is the
    NaN-keeping numpy max of its slab maxima."""
    n = wgt.shape[0]
    slabs = [(z, min(z + _SLAB_PLANES, n - 2)) for z in range(2, n - 2, _SLAB_PLANES)]
    runs = runs_on_cores(len(slabs))
    top = slabs[0][1] - slabs[0][0]  # the tallest slab
    buffers = [(np.empty((top + 4, n, n)), np.empty((top + 2, n - 2, n - 2)),
                np.empty((top, n - 4, n - 4)), np.empty((top, n - 4, n - 4))) for _ in runs]

    def centered(x, axis, out):
        """(x[i+1] - x[i-1]) / (2 h) along `axis`, on x's nodes one in from every face."""
        ahead = tuple(slice(2, None) if a == axis else slice(1, -1) for a in range(3))
        behind = tuple(slice(None, -2) if a == axis else slice(1, -1) for a in range(3))
        np.subtract(x[ahead], x[behind], out=out)
        return np.divide(out, 2.0 * h, out=out)

    def slab_ratios(z0, z1, comp, first, second, w_pure):
        s = z1 - z0
        ghosted = slice(z0 - 2, z1 + 2)
        comp, first, second = comp[:s + 4], first[:s + 2], second[:s]
        w_mixed = wgt[z0:z1, 2:-2, 2:-2]
        w_pure = np.multiply(w_mixed, math.sqrt(2.0), out=w_pure[:s])

        def scan(d, w):
            return np.max(np.divide(np.abs(d, out=second), w, out=second))

        ratios = []
        for j, k in _PAIRS:
            # abar_jk = l_perp delta_jk + (l_par - l_perp) vhat_j vhat_k
            np.multiply(abar.excess[ghosted], abar.vhat[j][ghosted], out=comp)
            np.multiply(comp, abar.vhat[k][ghosted], out=comp)
            if j == k:
                np.add(comp, abar.across[ghosted], out=comp)
            for ax_i in range(3):
                d = centered(comp, ax_i, first)
                ratios.append(scan(d[1:-1, 1:-1, 1:-1], w_mixed))
                for ax_j in range(ax_i, 3):
                    ratios.append(scan(centered(d, ax_j, second),
                                       w_pure if ax_i == ax_j else w_mixed))
        return ratios

    def walk(run_buffers):
        run, buf = run_buffers
        return [slab_ratios(*slabs[i], *buf) for i in run]

    rows = [row for run in map_on_cores(walk, zip(runs, buffers)) for row in run]
    return np.max(rows, axis=0)


def check_coefficient_bounds(coeffs):
    """The unit bound of the kernel, |a_jk(u)| <= |u|^{gamma+2}, and the
    pad-1 divergence tables b_j against the trace of the kernel's first
    derivatives, scale-relative to 2 |u|^{gamma+1}, at 1e-12.  K_coef is
    the largest decay ratio against <v>^{gamma+1} of the abar derivatives
    (`abar_derivative_ratios`: centered differences, 1 <= |beta| <= 2,
    edge stencils excluded) and of the divergence field 2 c2."""
    grid = coeffs.grid
    g = coeffs.params.gamma
    wgt = grid.bracket_weight(g + 1.0)
    abar = coeffs.abar
    ratios = [*abar_derivative_ratios(abar, wgt, grid.h),
              np.max(np.abs(2.0 * coeffs.c2) / wgt)]

    rng = np.random.default_rng(COEFFICIENT_SEED)
    pts = rng.uniform(-6.0, 6.0, size=(COEFFICIENT_SAMPLES, 3))
    radii = np.linalg.norm(pts, axis=1)
    keep = radii > 0.3
    pts, radii = pts[keep], radii[keep]
    a0 = np.max(np.abs(kernel_matrix_batch(pts, g)), axis=(1, 2))
    r0 = float(np.max(a0 / radii ** (g + 2.0)))

    # the operator's pad-1 b tables, the stream's first three, against
    # sum_k d_k a_jk at seeded nonzero shifts, each table sampled as it is
    # yielded; next(), so that none is held while the next one is formed
    m = grid.N
    flat = rng.integers(1, m ** 3, size=COEFFICIENT_SAMPLES)
    iz, iy, ix = np.unravel_index(flat, (m, m, m))
    offs = _lattice_offsets(grid, 1)
    shifts = np.stack([offs[ix], offs[iy], offs[iz]], axis=-1)
    trace = np.einsum("pkjk->pj", kernel_first_derivatives(shifts, g))
    b_tables = iter(KernelTableStream(grid, coeffs.params))
    table = np.stack([next(b_tables).reshape(-1)[flat] for _ in range(3)], axis=-1)
    del b_tables  # the stream holds |u|^gamma and b_z until it is dropped
    scale = 2.0 * np.linalg.norm(shifts, axis=-1) ** (g + 1.0)
    b_err = float(np.max(np.abs(table - trace) / scale[:, None]))

    rep = VerificationReport("coefficients")
    rep.add_check("kernel_alpha0_unit_bound", r0, 1.0 + 1e-12, r0 <= 1.0 + 1e-12)
    psd = abar.min_eigenvalue_ratio()
    rep.add_check("abar_psd", psd, -1e-10, psd >= -1e-10)
    rep.add_check("c1_nonnegative", float(coeffs.c1.min()), -1e-14,
                  float(coeffs.c1.min()) >= -1e-14)
    rep.add_check("b_table_vs_kernel_derivatives", b_err, 1e-12, b_err <= 1e-12)
    rep.add_constant("K_coef", np.max(ratios), 0)
    return rep


# ---------------------------------------------------------------------------
# convolution bound suite
# ---------------------------------------------------------------------------

def gaussian_convolutions(grid, gamma):
    """|u|^gamma * e^{-delta |v|^2} on the grid, one array per delta of
    CONVOLUTION_DELTAS, unwrapped: each density is a product of 1-d
    factors, and both are convolved from one stream of the pad-2 kernel
    (`radial_power_convolutions`)."""
    factors = [toeplitz_factor(grid, np.exp(-delta * grid.axis ** 2))
               for delta in CONVOLUTION_DELTAS]
    return radial_power_convolutions(grid, gamma, [(w, [(w, w)]) for w in factors])


def check_convolution_bound(grid, params):
    """Gaussian-weighted singular convolution stays below <v>^gamma.

    Convolves the kernel |u|^gamma on the pad-2 lattice, without wrap,
    with e^{-delta |v|^2} for each delta (`gaussian_convolutions`); the
    ratio must be flat beyond |v| = 4, close to the dominated limit
    (pi/delta)^{3/2} near the box edge and positive at the origin.  K_conv
    is its largest value over both deltas.  A shell that holds no node of
    the grid raises ConfigError before anything is convolved."""
    wgt = grid.bracket_weight(params.gamma)
    radius = grid.radius
    shell_far = (radius >= 4.0) & (radius <= grid.R - 0.5)
    shell_edge = (radius >= grid.R - 1.25) & (radius <= grid.R - 0.75)
    origin_cell = radius <= 1.5 * grid.h
    for name, shell in (("plateau 4 <= |v| <= R - 0.5", shell_far),
                        ("edge R - 1.25 <= |v| <= R - 0.75", shell_edge),
                        ("origin |v| <= 1.5 h", origin_cell)):
        if not shell.any():
            raise ConfigError(f"the convolution suite's {name} shell holds no "
                              f"node at grid.R = {grid.R:g}")

    rep = VerificationReport("convolution")
    maxima = []
    for delta, ratio in zip(CONVOLUTION_DELTAS, gaussian_convolutions(grid, params.gamma)):
        ratio /= wgt  # the convolution over <v>^gamma, in place
        maxima.append(np.max(ratio))
        spread = float((ratio[shell_far].max() - ratio[shell_far].min())
                       / ratio[shell_far].mean())
        limit = (math.pi / delta) ** 1.5
        edge_rel = abs(float(ratio[shell_edge].mean()) - limit) / limit
        origin_val = float(ratio[origin_cell].mean())
        rep.add_check(f"plateau_delta_{delta:g}", spread, 0.15, spread <= 0.15)
        rep.add_check(f"edge_limit_delta_{delta:g}", edge_rel, 0.05, edge_rel <= 0.05)
        rep.add_check(f"origin_positive_delta_{delta:g}", origin_val, 0.0,
                      origin_val > 0.0)
    rep.add_constant("K_conv", np.max(maxima), 0)
    return rep


# ---------------------------------------------------------------------------
# one thread per core; member pass
# ---------------------------------------------------------------------------

def _cores():
    """The number of cores this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def map_on_cores(fn, items):
    """[fn(x) for x in items] in item order: the first on the calling
    thread, the rest on one pool thread per further core (no pool with one
    core), so a map of `runs_on_cores` keeps every core busy.  The first
    item whose call raised raises here, once every call has returned.  numpy
    works with the GIL released; each call must own every array it writes,
    so the results do not depend on the thread count."""
    items = list(items)
    workers = min(_cores(), len(items)) - 1
    if workers < 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(workers) as pool:
        rest = [pool.submit(fn, x) for x in items[1:]]
        return [fn(items[0]), *(f.result() for f in rest)]


def runs_on_cores(n):
    """range(n) cut into one contiguous run per core, in order; the first is the caller's."""
    k = min(_cores(), n)
    return [range(n * r // k, n * (r + 1) // k) for r in range(k)]


@dataclass
class MemberScalars:
    """Everything the inequality estimators read of an ensemble, one entry
    per member i; a pair entry holds the pairs (i, i) and (i, i + 1 mod n)."""

    ensemble: Ensemble
    a_sq: list        # ||f||_A^2
    s: list           # ||f||_{2, g/2}
    s3: list          # ||f||_{3, g/2}
    den: list         # split-energy denominator
    l1_pair: list     # (L1 f, f_j) per partner j
    l2_pair: list     # (L2 f, f_j) per partner j
    grad_pair: list   # (Abar grad f, grad f_j) per partner j

    @property
    def a_norm(self):
        return np.sqrt(np.maximum(self.a_sq, 0.0))

    def squares(self):
        """||f||_A^2 and ||f||^2_{2, g/2} of each member as x ** 2 of the
        norms in Python floats: libm's pow, which the reports have always
        read, differs from numpy's x * x in the last bit for some x."""
        return (np.array([x ** 2 for x in self.a_norm.tolist()]),
                np.array([x ** 2 for x in self.s]))

    @property
    def l1ff(self):
        """(L1 f, f), the self-pair entry."""
        return np.array(self.l1_pair)[:, 0]

    @property
    def l2ff(self):
        """(L2 f, f), the self-pair entry."""
        return np.array(self.l2_pair)[:, 0]


def member_pass(ctx, ensemble):
    """One pass over the ensemble: per member one gradient, L1 f, L2 f and
    the weighted norms, reduced at once to scalars against the member itself
    and the next member, i + 1 mod n, so nothing N^3-sized outlives its
    member.  The gradient-form cross term of a pair is (L1 f, f_j) -
    ((c1 - c2) f, f_j), summation by parts with `divergence` the negative
    adjoint of `gradient`, so no partner's gradient is taken.  Each thread
    walks one contiguous run of members (`runs_on_cores`) and builds each
    field when it reads it: once, and the one after the run's end twice."""
    coeffs, n = ctx.coeffs, len(ensemble)
    g = coeffs.params.gamma
    # the three forms, built once here, not lazily in each thread
    coeffs.a_form
    l1_potential, split = coeffs.l1_form.potential, coeffs.split_form

    def scalars(f, neighbour):
        grad = gradient(f)
        l1 = apply_L1(f, coeffs, grad=grad)
        l2 = apply_L2(f, ctx.engine, coeffs)
        potential = ScalarField(f.grid, l1_potential * f.values)
        def pair(f_j):
            l1_j = inner_product(l1, f_j)
            return l1_j, inner_product(l2, f_j), l1_j - inner_product(potential, f_j)
        return (a_norm_sq(f, coeffs, grad), weighted_norm(f, 2, 0.5 * g),
                weighted_norm(f, 3, 0.5 * g), split.energy(f, grad),
                *zip(pair(f), pair(neighbour)))

    def walk(run):
        rows, neighbour = [], ensemble[run[0]]
        for i in run:
            f, neighbour = neighbour, ensemble[(i + 1) % n]
            rows.append(scalars(f, neighbour))
        return rows

    rows = [row for run in map_on_cores(walk, runs_on_cores(n)) for row in run]
    return MemberScalars(ensemble, *map(list, zip(*rows)))


# ---------------------------------------------------------------------------
# coercivity
# ---------------------------------------------------------------------------

def _quotient(num, den):
    if den < 1e-14:
        raise DegenerateRatioError("split-energy denominator below 1e-14")
    return num / den


def coercivity_quotient(f, coeffs, grad=None):
    grad = gradient(f) if grad is None else grad
    return _quotient(a_norm_sq(f, coeffs, grad), coeffs.split_form.energy(f, grad))


def estimate_coercivity(coeffs, members):
    """Smallest quotient ||f||_A^2 / split-form over the member pass, then
    tightened by projected gradient descent from the worst member; each
    iterate's gradient is taken once; the report counts its descent_steps."""
    quotients = np.array([_quotient(num, den) for num, den in zip(members.a_sq, members.den)])
    worst = int(np.argmin(quotients))
    sample_min = float(quotients[worst])

    f = normalized(members.ensemble[worst])
    grad = gradient(f)
    r, steps = coercivity_quotient(f, coeffs, grad), 0
    for _ in range(DESCENT_STEPS):
        num_op = coeffs.a_form.apply(f, grad)
        den_op = coeffs.split_form.apply(f, grad)
        den = coeffs.split_form.energy(f, grad)
        grad_dir = (2.0 / den) * (num_op - r * den_op)
        gn = l2_norm(grad_dir)
        if gn < 1e-14:
            break
        eta = 0.1 * l2_norm(f) / gn
        for _ in range(6):
            trial = normalized(f - eta * grad_dir)
            trial_grad = gradient(trial)
            r_trial = coercivity_quotient(trial, coeffs, trial_grad)
            if r_trial < r:
                f, grad, r = trial, trial_grad, r_trial
                steps += 1
                break
            eta *= 0.5
        else:
            break

    c1_value = np.minimum(sample_min, r)
    rep = VerificationReport("coercivity")
    rep.add_check("C1_positive", c1_value, 0.0, c1_value > 0.0)
    rep.add_constant("C1", c1_value, len(quotients))
    rep.add_constant("C1_sample_min", sample_min, len(quotients))
    rep.descent_steps = steps
    return rep


# ---------------------------------------------------------------------------
# bilinear constants
# ---------------------------------------------------------------------------

def _pair_ratios(members):
    """Boundedness ratios of L1 (C2), of L2 (C3, its one-sided form, C4)
    and of the gradient form over the pairs of the member pass: member i
    down the rows, its pairs (i, i) and (i, i + 1 mod n) along them."""
    a, s = members.a_norm, np.array(members.s)
    a_i, s_i = a[:, None], s[:, None]
    a_j, s_j = (np.stack([x, np.roll(x, -1)], axis=1) for x in (a, s))
    l2 = np.abs(members.l2_pair)
    return {"C2": np.abs(members.l1_pair) / (a_i * a_j),
            "C3": l2 / (s_i * a_j + a_i * s_j),
            "C3_one_sided": l2 / (s_i * a_j),
            "C4": l2 / (a_i * a_j),
            "K_gradform": np.abs(members.grad_pair) / (a_i * a_j)}


def attained_at(members):
    """The member of C1_sample_min, the smallest coercivity quotient, and the
    pair at which each ratio of `_pair_ratios` is largest, each member named
    "i random" or "i probe k"."""
    n, k = len(members.a_sq), len(members.ensemble.spectra)
    label = [f"{i} random" if i < k else f"{i} probe {i - k}" for i in range(n)]
    at = {c: divmod(int(np.argmax(r)), 2) for c, r in _pair_ratios(members).items()}
    return {"C1_sample_min": (label[int(np.argmin(np.divide(members.a_sq, members.den)))],),
            **{c: (label[i], label[(i + j) % n]) for c, (i, j) in at.items()}}


def estimate_bilinear_constants(members):
    """Empirical maxima of the boundedness ratios of L1 and L2, the
    quarter-slack companion constants, and the gradient-form ratio."""
    n = len(members.ensemble)
    worst = {name: np.max(r) for name, r in _pair_ratios(members).items()}
    kgrad = worst["K_gradform"]
    a2, s2 = members.squares()
    c_eps1 = np.max(((1.0 - EPS1) * a2 - members.l1ff) / s2, initial=0.0)
    c_eps2 = np.max((np.abs(members.l2ff) - EPS2 * a2) / s2, initial=0.0)

    rep = VerificationReport("bilinear")
    for name in ("C2", "C3", "C4"):
        val = worst[name]
        rep.add_check(f"{name}_finite", val, math.inf, val > 0)
        rep.add_constant(name, val, n)
    rep.add_check("gradform_cauchy_schwarz", kgrad, 1.0 + 1e-9, kgrad <= 1.0 + 1e-9)
    rep.add_constant("C3_one_sided", worst["C3_one_sided"], n)
    rep.add_constant("C_eps1", c_eps1, n)
    rep.add_constant("C_eps2", c_eps2, n)
    rep.add_constant("K_gradform", kgrad, n)
    return rep


def recheck_bilinear(members, constants):
    """Certify measured maxima on the member pass of a fresh ensemble with
    multiplicative slack RECHECK_SLACK."""
    rep = VerificationReport("bilinear_recheck")
    worst = {name: np.max(r) for name, r in _pair_ratios(members).items()}
    for name in ("C2", "C3", "C4"):
        bound = RECHECK_SLACK * constants[name]
        rep.add_check(f"{name}_fresh_within_slack", worst[name], bound,
                      worst[name] <= bound)

    # (1 - eps1) ||f||_A^2 <= (L1 f, f) + slack * C_eps1 ||f||^2_{2, g/2}
    # must hold for every fresh member, to round-off relative to the
    # smallest margin; record that margin.
    a2, s2 = members.squares()
    lhs = (1.0 - EPS1) * a2
    rhs = members.l1ff + RECHECK_SLACK * constants["C_eps1"] * s2
    margin = np.min(rhs - lhs)
    bound = -1e-10 * max(1.0, abs(margin))
    rep.add_check("eps1_inequality_fresh_margin", margin, bound, margin >= bound)
    return rep


def check_l3_embedding(members):
    """K_L3 = max ||f||_{3, g/2} / ||f||_A over the member pass."""
    worst = np.max(np.array(members.s3) / members.a_norm)
    rep = VerificationReport("l3_embedding")
    rep.add_check("K_L3_finite", worst, math.inf, worst > 0)
    rep.add_constant("K_L3", worst, len(members.ensemble))
    return rep


# ---------------------------------------------------------------------------
# energy estimates
# ---------------------------------------------------------------------------

def energy_identity_residual(result, panels):
    """| ||f(T)||^2 - ||f(0)||^2 - int 2[(g,f) - (Lf,f)] dt | from the
    trajectory's energy log subsampled to `panels` uniform panels per
    segment (an even divisor of SEGMENT_SAMPLES), by composite Simpson on
    each segment."""
    log = result.energy_log
    rows = log[::SEGMENT_SAMPLES // panels]
    t = rows[:, 0]
    integrand = 2.0 * (rows[:, 3] - rows[:, 4])
    weights = np.full(panels + 1, 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    segments = np.lib.stride_tricks.sliding_window_view(
        integrand, panels + 1)[::panels]
    total = float(np.diff(t[::panels]) / (3.0 * panels) @ (segments @ weights))
    return abs(float(log[-1, 1] - log[0, 1] - total))


def energy_identity_convergence(result):
    """Residuals of the energy identity on the rungs of the trajectory's
    log, its nested subsamples with RUNG_PANELS, 2 RUNG_PANELS and
    4 RUNG_PANELS panels per segment; returns (residuals, slope), the slope
    being the mean log2 ratio of successive residuals, 4 for a
    fourth-order quadrature."""
    residuals = [energy_identity_residual(result, m * RUNG_PANELS)
                 for m in (1, 2, 4)]
    slopes = [math.log2(residuals[i] / residuals[i + 1])
              for i in range(len(residuals) - 1)
              if residuals[i + 1] > 0]
    slope = float(np.mean(slopes)) if slopes else math.nan
    return residuals, slope


def check_energy(result, ladders):
    """C5 from the trajectory log, C6 the depth-1 ladder envelope and the
    energy-identity residual on the full log, with checks on the
    residual's dt-slope over the rungs and on the gap between the log's
    L f and L applied directly (`lf_gap` of `evolution.evolve`): the log's
    (Lf, f) is only as true as that gap is small."""
    log = result.energy_log
    t = log[:, 0]
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (log[1:, 2] + log[:-1, 2]) * np.diff(t))])
    c5 = math.sqrt(float(np.max(log[:, 1] + cum)))

    c6 = ladder_envelope(ladders, 1) if ladders else math.nan

    residuals, slope = energy_identity_convergence(result)
    rep = VerificationReport("energy")
    rep.add_check("residual_dt_slope", slope, 0.5, abs(slope - 4.0) <= 0.5)
    rep.add_check("energy_log_lf_gap", result.lf_gap, LF_GAP_TOL,
                  result.lf_gap <= LF_GAP_TOL)
    rep.add_constant("C5", c5, 1)
    rep.add_constant("C6", c6, 1)
    rep.add_constant("energy_identity_residual", residuals[-1], 1)
    return rep


# ---------------------------------------------------------------------------
# factorial fit (analytic smoothing in time)
# ---------------------------------------------------------------------------

@dataclass
class SmoothingFit:
    C: float
    B: float
    max_positive_residual: float
    root_variation: float


def ladder_envelope(ladders, k):
    """sqrt(sup_t (t^k ||d_t^k f||)^2 + int (t^k ||d_t^k f||_A)^2 dt) / k!
    over the ladder times, the integral by the trapezoid rule on them."""
    times = np.array([lad.t for lad in ladders])
    order = np.argsort(times)
    sup = np.max([lad.t ** k * lad.norms_l2[k] for lad in ladders])
    a_sq = np.array([(lad.t ** k * lad.norms_a[k]) ** 2 for lad in ladders])
    integral = np.trapezoid(a_sq[order], times[order])
    return float(np.sqrt(sup * sup + np.maximum(integral, 0.0)) / math.factorial(k))


def doubled_time_pairs(times):
    """The index pairs (i, j) with times[j] = 2 times[i], to 1e-9: the
    ladders whose a_k roots the time-doubling check compares."""
    return [(i, j) for i, t in enumerate(times) for j, u in enumerate(times)
            if abs(u - 2.0 * t) < 1e-9]


def smoothing_fit(ladders):
    """Least-squares factorial fit of the ladder magnitudes.

    Fits log a_k ~ (k+1) log C over all ladders and depths, where
    a_k = t^k ||d_t^k f(t)|| / k!; a bounded positive residual certifies
    the C^{k+1} t^{-k} k! shape.  B aggregates the squared suprema plus the
    time integral of the A-norm ladder entries, approximated at the
    sampled times."""
    if len(ladders) < 1:
        raise ValueError("need at least one ladder")
    xs, ys = [], []
    for lad in ladders:
        for k, ak in enumerate(lad.a_k):
            if ak <= 0.0:
                if k == 0 and lad.norms_l2[0] == 0.0:
                    raise FitDegenerateError("ladder starts from the zero field")
                raise FitDegenerateError(
                    f"a_{k} vanished at t={lad.t} (exact-solution special case)")
            xs.append(k + 1.0)
            ys.append(math.log(ak))
    xs = np.array(xs)
    ys = np.array(ys)
    log_c = float(np.sum(xs * ys) / np.sum(xs * xs))
    resid = ys - xs * log_c
    max_pos = float(np.max(resid))

    kmax = min(len(lad.a_k) for lad in ladders) - 1
    b = np.max([ladder_envelope(ladders, k) ** (1.0 / (k + 1.0))
                for k in range(kmax + 1)])

    roots = [float(np.max(lad.a_k_root)) for lad in ladders]
    pairs = doubled_time_pairs([lad.t for lad in ladders])
    # without a pair nothing is compared: NaN, which fails the check
    variation = (np.max([abs(roots[j] - roots[i]) / roots[i] for i, j in pairs])
                 if pairs else math.nan)
    return SmoothingFit(math.exp(log_c), float(b), max_pos, float(variation))


def smoothing_report(ladders):
    fit = smoothing_fit(ladders)
    rep = VerificationReport("smoothing")
    rep.add_check("fit_max_positive_residual", fit.max_positive_residual, 0.5,
                  fit.max_positive_residual <= 0.5)
    rep.add_check("root_variation_under_time_doubling", fit.root_variation, 0.25,
                  fit.root_variation <= 0.25)
    rep.add_constant("C", fit.C, len(ladders))
    rep.add_constant("B", fit.B, len(ladders))
    return rep
