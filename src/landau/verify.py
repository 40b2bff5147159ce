"""Measurement of every constant the estimates assert to exist.

The continuous theory only guarantees existence of the constants, so the
harness measures empirical values over deterministic ensembles and asserts
finiteness, positivity where required, and stability under grid refinement,
never literal magnitudes.  Ensembles mix seeded band-limited random fields
with deterministic adversarial probes (oscillatory packets at several radii,
where the anisotropic weights differ most).
"""

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .errors import DegenerateRatioError, FitDegenerateError
from .evolution import evolve
from .field import (ScalarField, VectorField, a_norm, a_norm_sq, gradient,
                    inner_product, l2_norm, project_parallel, random_field,
                    weighted_norm)
from .kernel import (kernel_first_derivatives, kernel_matrix_batch,
                     kernel_second_derivatives)
from .operator import apply_L1, apply_L2

MIN_ENSEMBLE = 64
EPS1 = 0.25
EPS2 = 0.25


@dataclass
class CheckRecord:
    id: str
    value: float
    tol: float
    verdict: bool


@dataclass
class ConstantEstimate:
    """A measured constant with its provenance.

    stability is the relative change under N -> refinement when a second
    grid has been run; None until then."""

    name: str
    value: float
    ensemble_size: int
    grid_params: dict
    stability: Optional[float] = None


@dataclass
class VerificationReport:
    suite: str
    config_fingerprint: str
    checks: list = dataclass_field(default_factory=list)
    constants: list = dataclass_field(default_factory=list)

    @property
    def passed(self):
        return all(c.verdict for c in self.checks)

    def add_check(self, check_id, value, tol, verdict):
        self.checks.append(CheckRecord(check_id, float(value), float(tol), bool(verdict)))

    def add_constant(self, name, value, ensemble_size, grid, stability=None):
        self.constants.append(ConstantEstimate(
            name, float(value), int(ensemble_size),
            {"N": grid.N, "R": grid.R}, stability))


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def _normalized(field):
    n = l2_norm(field)
    if n < 1e-14:
        raise DegenerateRatioError("probe collapsed to zero")
    return (1.0 / n) * field


def deterministic_probes(grid):
    """Radial Gaussians plus oscillatory packets at several radii."""
    probes = []
    r2 = grid.radius_sq
    vx = np.asarray(grid.component(0))
    vy = np.asarray(grid.component(1))
    for w in (1.0, 2.0):
        probes.append(_normalized(ScalarField(grid, np.exp(-r2 / (2.0 * w * w)))))
    for center, k in (((0.0, 0.0, 0.0), 2.0), ((2.0, 0.0, 0.0), 3.0),
                      ((0.0, 3.0, 0.0), 5.0), ((3.0, 3.0, 0.0), 4.0)):
        cx, cy, cz = center
        vz = np.asarray(grid.component(2))
        bump = np.exp(-((vx - cx) ** 2 + (vy - cy) ** 2 + (vz - cz) ** 2) / 2.0)
        probes.append(_normalized(ScalarField(grid, np.cos(k * vx) * bump)))
        probes.append(_normalized(ScalarField(grid, np.sin(k * (vx + vy) / math.sqrt(2.0)) * bump)))
    return probes


def make_ensemble(grid, count, seed, bandlimit=8, envelope_width=1.25):
    """count seeded random fields plus the deterministic probes."""
    if count < MIN_ENSEMBLE:
        raise ValueError(f"ensemble needs at least {MIN_ENSEMBLE} random members, got {count}")
    members = [random_field(grid, seed + i, bandlimit, envelope_width)
               for i in range(count)]
    members.extend(deterministic_probes(grid))
    return members


# ---------------------------------------------------------------------------
# kernel identity suite
# ---------------------------------------------------------------------------

def check_kernel_identities(params, sample_count=1000, seed=1234, fingerprint=""):
    """Null identities of the kernel and the closed-form row divergence,
    at scale-relative tolerance 1e-12 over random points."""
    if sample_count < 100:
        raise ValueError("sample_count must be >= 100")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-5.0, 5.0, size=(sample_count, 3))
    radii = np.linalg.norm(pts, axis=1)
    pts = pts[radii > 0.2]
    radii = radii[radii > 0.2]
    g = params.gamma

    a = kernel_matrix_batch(pts, g)
    quad = np.einsum("pjk,pj,pk->p", a, pts, pts)
    quad_rel = float(np.max(np.abs(quad) / radii ** (g + 4.0)))
    rows = np.einsum("pjk,pj->pk", a, pts)
    row_rel = float(np.max(np.abs(rows) / radii[:, None] ** (g + 3.0)))

    ng = radii ** g
    bj = (g + 2.0) * ng[:, None] * pts - (4.0 + g) * ng[:, None] * pts
    closed = -2.0 * ng[:, None] * pts
    div_rel = float(np.max(np.abs(bj - closed) / (2.0 * radii[:, None] ** (g + 1.0))))
    odd_rel = float(np.max(np.abs(bj + (
        (g + 2.0) * ng[:, None] * (-pts) - (4.0 + g) * ng[:, None] * (-pts)))
        / (2.0 * radii[:, None] ** (g + 1.0))))

    rep = VerificationReport("kernel", fingerprint)
    tol = 1e-12
    rep.add_check("quadratic_null", quad_rel, tol, quad_rel <= tol)
    rep.add_check("row_null", row_rel, tol, row_rel <= tol)
    rep.add_check("divergence_closed_form", div_rel, tol, div_rel <= tol)
    rep.add_check("divergence_odd", odd_rel, tol, odd_rel <= tol)
    return rep


# ---------------------------------------------------------------------------
# coefficient bound suite
# ---------------------------------------------------------------------------

def _interior(mask_margin, shape):
    sl = slice(mask_margin, -mask_margin)
    m = np.zeros(shape, dtype=bool)
    m[sl, sl, sl] = True
    return m


def check_coefficient_bounds(coeffs, fingerprint="", sample_count=400, seed=77):
    """Decay bounds for abar derivatives (finite differences, |beta| <= 2),
    the analytic kernel derivatives (|alpha| <= 2) and the divergence field.

    Edge stencils are excluded from the finite-difference scans; reported
    ratios are measured maxima, asserted finite only."""
    grid = coeffs.grid
    g = coeffs.params.gamma
    h = grid.h
    wgt = grid.bracket_weight(g + 1.0)
    interior = _interior(2, grid.shape)

    k_first = 0.0
    k_second = 0.0
    for comp in coeffs.abar.comps:
        firsts = [np.gradient(comp, h, axis=ax, edge_order=2) for ax in range(3)]
        for d in firsts:
            k_first = max(k_first, float(np.max(np.abs(d[interior]) / wgt[interior])))
        for ax_i, d in enumerate(firsts):
            for ax_j in range(ax_i, 3):
                dd = np.gradient(d, h, axis=ax_j, edge_order=2)
                fact = math.sqrt(2.0) if ax_i == ax_j else 1.0
                k_second = max(k_second, float(
                    np.max(np.abs(dd[interior]) / (wgt[interior] * fact))))

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-6.0, 6.0, size=(sample_count, 3))
    radii = np.linalg.norm(pts, axis=1)
    keep = radii > 0.3
    pts, radii = pts[keep], radii[keep]
    a0 = np.max(np.abs(kernel_matrix_batch(pts, g)), axis=(1, 2))
    r0 = float(np.max(a0 / radii ** (g + 2.0)))
    a1 = np.max(np.abs(kernel_first_derivatives(pts, g)), axis=(1, 2, 3))
    r1 = float(np.max(a1 / radii ** (g + 1.0)))
    a2 = np.max(np.abs(kernel_second_derivatives(pts, g)), axis=(1, 2, 3, 4))
    r2 = float(np.max(a2 / radii ** g))

    div_ratio = float(np.max(np.abs(2.0 * coeffs.c2) / wgt))

    k_coef = max(k_first, k_second, div_ratio)
    rep = VerificationReport("coefficients", fingerprint)
    rep.add_check("abar_first_derivative_finite", k_first, math.inf, math.isfinite(k_first))
    rep.add_check("abar_second_derivative_finite", k_second, math.inf, math.isfinite(k_second))
    rep.add_check("kernel_alpha0_unit_bound", r0, 1.0 + 1e-12, r0 <= 1.0 + 1e-12)
    rep.add_check("kernel_alpha1_finite", r1, math.inf, math.isfinite(r1))
    rep.add_check("kernel_alpha2_finite", r2, math.inf, math.isfinite(r2))
    rep.add_check("divergence_field_decay_finite", div_ratio, math.inf,
                  math.isfinite(div_ratio))
    psd = coeffs.abar.min_eigenvalue_ratio()
    rep.add_check("abar_psd", psd, -1e-10, psd >= -1e-10)
    rep.add_check("c1_nonnegative", float(coeffs.c1.min()), -1e-14,
                  float(coeffs.c1.min()) >= -1e-14)
    from .kernel import c2_tolerance
    c2_tol = c2_tolerance(grid, coeffs.quad)
    rep.add_check("c2_crosscheck_rel_l2", coeffs.c2_crosscheck, c2_tol,
                  not math.isnan(coeffs.c2_crosscheck)
                  and coeffs.c2_crosscheck <= c2_tol)
    rep.add_constant("K_coef", k_coef, 0, grid)
    return rep


# ---------------------------------------------------------------------------
# convolution bound suite
# ---------------------------------------------------------------------------

def check_convolution_bound(engine, params, deltas=(0.5, 1.0), fingerprint=""):
    """Gaussian-weighted singular convolution stays below <v>^gamma.

    Uses a padded (linear) engine with the radial kernel |u|^gamma; the
    ratio must be finite, flat beyond |v| = 4 and close to the dominated
    limit (pi/delta)^{3/2} near the box edge."""
    grid = engine.grid
    if "radial_gamma" not in engine.kernel_ids():
        engine.register_radial_kernel("radial_gamma", params.gamma)
    wgt = grid.bracket_weight(params.gamma)
    radius = grid.radius
    shell_far = (radius >= 4.0) & (radius <= grid.R - 0.5)
    shell_edge = (radius >= grid.R - 1.25) & (radius <= grid.R - 0.75)
    origin_cell = radius <= 1.5 * grid.h

    rep = VerificationReport("convolution", fingerprint)
    k_conv = 0.0
    for delta in deltas:
        density = np.exp(-delta * grid.radius_sq)
        conv = engine.convolve_array("radial_gamma", density)
        ratio = conv / wgt
        k_conv = max(k_conv, float(np.max(ratio)))
        spread = float((ratio[shell_far].max() - ratio[shell_far].min())
                       / ratio[shell_far].mean())
        limit = (math.pi / delta) ** 1.5
        edge_rel = abs(float(ratio[shell_edge].mean()) - limit) / limit
        origin_val = float(ratio[origin_cell].mean())
        rep.add_check(f"ratio_finite_delta_{delta:g}", float(np.max(ratio)),
                      math.inf, bool(np.isfinite(ratio).all()))
        rep.add_check(f"plateau_delta_{delta:g}", spread, 0.15, spread <= 0.15)
        rep.add_check(f"edge_limit_delta_{delta:g}", edge_rel, 0.05, edge_rel <= 0.05)
        rep.add_check(f"origin_positive_delta_{delta:g}", origin_val, 0.0,
                      origin_val > 0.0)
    rep.add_constant("K_conv", k_conv, 0, grid)
    return rep


# ---------------------------------------------------------------------------
# coercivity
# ---------------------------------------------------------------------------

def _split_energy(f, coeffs):
    """Denominator of the coercivity quotient: the projection-split
    weighted Sobolev form <v>^g |P grad f|^2 + <v>^{g+2}(|(I-P) grad f|^2 + f^2)."""
    grid = f.grid
    g = coeffs.params.gamma
    w_par = grid.bracket_weight(g)
    w_perp = grid.bracket_weight(g + 2.0)
    par, perp = project_parallel(gradient(f))
    par_sq = np.sum(par.comps * par.comps, axis=0)
    perp_sq = np.sum(perp.comps * perp.comps, axis=0)
    dens = w_par * par_sq + w_perp * (perp_sq + f.values * f.values)
    return float(np.sum(dens)) * grid.cell_volume


def coercivity_quotient(f, coeffs):
    num = a_norm_sq(f, coeffs)
    den = _split_energy(f, coeffs)
    if den < 1e-14:
        raise DegenerateRatioError("split-energy denominator below 1e-14")
    return num / den


def _split_energy_operator(f, coeffs):
    """Self-adjoint operator of the split form, for descent gradients."""
    grid = f.grid
    g = coeffs.params.gamma
    w_par = grid.bracket_weight(g)
    w_perp = grid.bracket_weight(g + 2.0)
    par, perp = project_parallel(gradient(f))
    flux = VectorField(grid, w_par * par.comps + w_perp * perp.comps)
    from .field import divergence
    out = -divergence(flux).values + w_perp * f.values
    return ScalarField(grid, out)


def _a_form_operator(f, coeffs):
    """Self-adjoint operator of the energy form: -div(Abar grad f) + c1 f."""
    return apply_L1(f, coeffs) + ScalarField(f.grid, coeffs.c2 * f.values)


def estimate_coercivity(coeffs, ensemble, descent_steps=50, fingerprint=""):
    """Smallest quotient ||f||_A^2 / split-form over the ensemble, then
    tightened by projected gradient descent from the worst member."""
    quotients = [coercivity_quotient(f, coeffs) for f in ensemble]
    worst = int(np.argmin(quotients))
    sample_min = float(quotients[worst])

    f = _normalized(ensemble[worst].copy())
    best = coercivity_quotient(f, coeffs)
    for _ in range(descent_steps):
        num_op = _a_form_operator(f, coeffs)
        den_op = _split_energy_operator(f, coeffs)
        den = _split_energy(f, coeffs)
        r = coercivity_quotient(f, coeffs)
        grad_dir = (2.0 / den) * (num_op - r * den_op)
        gn = l2_norm(grad_dir)
        if gn < 1e-14:
            break
        eta = 0.1 * l2_norm(f) / gn
        accepted = False
        for _ in range(6):
            trial = _normalized(f - eta * grad_dir)
            r_trial = coercivity_quotient(trial, coeffs)
            if r_trial < r:
                f, best = trial, min(best, r_trial)
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break

    c1_value = min(sample_min, best)
    rep = VerificationReport("coercivity", fingerprint)
    rep.add_check("all_quotients_positive", min(quotients), 0.0, min(quotients) > 0.0)
    rep.add_check("descent_never_above_samples", c1_value, sample_min,
                  c1_value <= sample_min + 1e-15)
    rep.add_constant("C1", c1_value, len(ensemble), coeffs.grid)
    rep.add_constant("C1_sample_min", sample_min, len(ensemble), coeffs.grid)
    return rep


# ---------------------------------------------------------------------------
# bilinear constants
# ---------------------------------------------------------------------------

def _pairing(n):
    """Deterministic pair schedule: diagonal, neighbor and strided pairs,
    so probe-probe and probe-random combinations all get sampled."""
    pairs = []
    for i in range(n):
        pairs.append((i, i))
        pairs.append((i, (i + 1) % n))
        j = (i * 7 + 3) % n
        pairs.append((i, j if j != i else (i + 2) % n))
    return pairs


def _member_data(ctx, ensemble):
    g = ctx.coeffs.params.gamma
    data = []
    for f in ensemble:
        data.append({
            "f": f,
            "L1": apply_L1(f, ctx.coeffs),
            "L2": apply_L2(f, ctx.engine, ctx.coeffs),
            "A": a_norm(f, ctx.coeffs),
            "s": weighted_norm(f, 2, 0.5 * g),
            "grad": gradient(f),
        })
    return data


def estimate_bilinear_constants(ctx, ensemble, fingerprint=""):
    """Empirical maxima of the boundedness ratios of L1 and L2, the
    quarter-slack companion constants, and the gradient-form ratio."""
    coeffs = ctx.coeffs
    data = _member_data(ctx, ensemble)
    n = len(data)
    c2 = c3 = c3_one = c4 = kgrad = 0.0
    vol = coeffs.grid.cell_volume
    for i, j in _pairing(n):
        d1, d2 = data[i], data[j]
        if min(d1["A"], d2["A"], d1["s"], d2["s"]) < 1e-14:
            raise DegenerateRatioError("vanishing norm in bilinear ensemble")
        l1 = abs(inner_product(d1["L1"], d2["f"]))
        l2 = abs(inner_product(d1["L2"], d2["f"]))
        c2 = max(c2, l1 / (d1["A"] * d2["A"]))
        c3 = max(c3, l2 / (d1["s"] * d2["A"] + d1["A"] * d2["s"]))
        c3_one = max(c3_one, l2 / (d1["s"] * d2["A"]))
        c4 = max(c4, l2 / (d1["A"] * d2["A"]))
        cross = float(np.sum(coeffs.abar.quadratic_form_pair(d1["grad"], d2["grad"]))) * vol
        kgrad = max(kgrad, abs(cross) / (d1["A"] * d2["A"]))

    c_eps1 = 0.0
    c_eps2 = 0.0
    for d in data:
        a2 = d["A"] ** 2
        s2 = d["s"] ** 2
        l1ff = inner_product(d["L1"], d["f"])
        l2ff = inner_product(d["L2"], d["f"])
        c_eps1 = max(c_eps1, ((1.0 - EPS1) * a2 - l1ff) / s2)
        c_eps2 = max(c_eps2, (abs(l2ff) - EPS2 * a2) / s2)
    c_eps1 = max(c_eps1, 0.0)
    c_eps2 = max(c_eps2, 0.0)

    rep = VerificationReport("bilinear", fingerprint)
    for name, val in (("C2", c2), ("C3", c3), ("C4", c4)):
        rep.add_check(f"{name}_finite", val, math.inf, math.isfinite(val) and val > 0)
        rep.add_constant(name, val, n, coeffs.grid)
    rep.add_check("gradform_cauchy_schwarz", kgrad, 1.0 + 1e-9, kgrad <= 1.0 + 1e-9)
    rep.add_constant("C3_one_sided", c3_one, n, coeffs.grid)
    rep.add_constant("C_eps1", c_eps1, n, coeffs.grid)
    rep.add_constant("C_eps2", c_eps2, n, coeffs.grid)
    rep.add_constant("K_gradform", kgrad, n, coeffs.grid)
    return rep


def recheck_bilinear(ctx, fresh_ensemble, constants, slack=1.1, fingerprint=""):
    """Certify measured maxima on a fresh ensemble with multiplicative slack."""
    coeffs = ctx.coeffs
    data = _member_data(ctx, fresh_ensemble)
    n = len(data)
    rep = VerificationReport("bilinear_recheck", fingerprint)
    worst = {"C2": 0.0, "C3": 0.0, "C4": 0.0}
    for i, j in _pairing(n):
        d1, d2 = data[i], data[j]
        l1 = abs(inner_product(d1["L1"], d2["f"]))
        l2 = abs(inner_product(d1["L2"], d2["f"]))
        worst["C2"] = max(worst["C2"], l1 / (d1["A"] * d2["A"]))
        worst["C3"] = max(worst["C3"], l2 / (d1["s"] * d2["A"] + d1["A"] * d2["s"]))
        worst["C4"] = max(worst["C4"], l2 / (d1["A"] * d2["A"]))
    for name in ("C2", "C3", "C4"):
        bound = slack * constants[name]
        rep.add_check(f"{name}_fresh_within_slack", worst[name], bound,
                      worst[name] <= bound)

    # (1 - eps1) ||f||_A^2 <= (L1 f, f) + slack * C_eps1 ||f||^2_{2, g/2}
    # must hold for every fresh member; record the smallest margin.
    margin = math.inf
    for d in data:
        lhs = (1.0 - EPS1) * d["A"] ** 2
        rhs = inner_product(d["L1"], d["f"]) + slack * constants["C_eps1"] * d["s"] ** 2
        margin = min(margin, rhs - lhs)
    rep.add_check("eps1_inequality_fresh_margin", margin, 0.0,
                  margin >= -1e-10 * max(1.0, abs(margin)))
    return rep


def check_l3_embedding(ensemble, coeffs, fingerprint=""):
    """K_L3 = max ||f||_{3, g/2} / ||f||_A over the ensemble."""
    g = coeffs.params.gamma
    worst = 0.0
    for f in ensemble:
        an = a_norm(f, coeffs)
        if an < 1e-14:
            raise DegenerateRatioError("vanishing A-norm in embedding ensemble")
        worst = max(worst, weighted_norm(f, 3, 0.5 * g) / an)
    gauss = _normalized(ScalarField(coeffs.grid, np.exp(-coeffs.grid.radius_sq / 2.0)))
    gauss_ratio = weighted_norm(gauss, 3, 0.5 * g) / a_norm(gauss, coeffs)
    rep = VerificationReport("l3_embedding", fingerprint)
    rep.add_check("K_L3_finite", worst, math.inf, math.isfinite(worst) and worst > 0)
    rep.add_check("gaussian_probe_ratio", gauss_ratio, math.inf,
                  math.isfinite(gauss_ratio))
    rep.add_constant("K_L3", worst, len(ensemble), coeffs.grid)
    return rep


# ---------------------------------------------------------------------------
# energy estimates
# ---------------------------------------------------------------------------

def _integrate_uniform(y, dt):
    """Fourth-order quadrature on a uniform log: composite Simpson, with a
    3/8 closing rule when the panel count is odd."""
    n = len(y) - 1
    if n <= 0:
        return 0.0
    if n == 1:
        return 0.5 * dt * (y[0] + y[1])
    if n == 2:
        return dt / 3.0 * (y[0] + 4.0 * y[1] + y[2])
    if n % 2 == 0:
        s = y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2])
        return dt / 3.0 * s
    head = _integrate_uniform(y[: n - 2], dt)
    tail = 3.0 * dt / 8.0 * (y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1])
    return head + tail


def energy_identity_residual(result):
    """| ||f(T)||^2 - ||f(0)||^2 - int 2[(g,f) - (Lf,f)] dt | from the log."""
    log = result.energy_log
    t = log[:, 0]
    integrand = 2.0 * (log[:, 3] - log[:, 4])
    total = 0.0
    start = 0
    dts = np.diff(t)
    for i in range(1, len(dts)):
        if abs(dts[i] - dts[i - 1]) > 1e-12 * max(dts[i], dts[i - 1]):
            total += _integrate_uniform(integrand[start:i + 1], dts[start])
            start = i
    total += _integrate_uniform(integrand[start:], dts[start])
    return abs(float(log[-1, 1] - log[0, 1] - total))


def energy_identity_convergence(f0, model, T, ctx, steps=(32, 64, 128), coeffs=None):
    """Residual at a ladder of uniform step counts; returns (residuals, slope).

    Step counts should double; the expected convergence slope is 4."""
    from .evolution import TimePolicy

    residuals = []
    for n in steps:
        policy = TimePolicy(dt_override=T / n)
        res = evolve(f0, model, T, ctx, policy, snapshot_times=(), coeffs=coeffs)
        residuals.append(energy_identity_residual(res))
    slopes = [math.log2(residuals[i] / residuals[i + 1])
              for i in range(len(residuals) - 1)
              if residuals[i + 1] > 0]
    slope = float(np.mean(slopes)) if slopes else math.nan
    return residuals, slope


def check_energy(result, ladders, fingerprint="", slope=None):
    """C5 from the trajectory log, C6 from depth-1 ladder entries, plus the
    energy-identity residual (and its dt-slope when measured)."""
    log = result.energy_log
    t = log[:, 0]
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (log[1:, 2] + log[:-1, 2]) * np.diff(t))])
    c5 = math.sqrt(float(np.max(log[:, 1] + cum)))

    c6 = math.nan
    if ladders:
        times = np.array([lad.t for lad in ladders])
        vals = np.array([lad.t * lad.norms_l2[1] for lad in ladders])
        a_vals = np.array([(lad.t * lad.norms_a[1]) ** 2 for lad in ladders])
        order = np.argsort(times)
        integral = float(np.trapezoid(a_vals[order], times[order]))
        c6 = math.sqrt(float(np.max(vals)) ** 2 + max(integral, 0.0))

    residual = energy_identity_residual(result)
    grid = result.state.f.grid
    rep = VerificationReport("energy", fingerprint)
    rep.add_check("C5_finite", c5, math.inf, math.isfinite(c5))
    rep.add_check("C6_finite", c6, math.inf, math.isfinite(c6))
    rep.add_check("energy_identity_residual", residual, math.inf,
                  math.isfinite(residual))
    if slope is not None:
        rep.add_check("residual_dt_slope", slope, 0.5, abs(slope - 4.0) <= 0.5)
    rep.add_constant("C5", c5, 1, grid)
    rep.add_constant("C6", c6, 1, grid)
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
    points: list  # (t, k, a_k)


def smoothing_fit(ladders, T=None):
    """Least-squares factorial fit of the ladder magnitudes.

    Fits log a_k ~ (k+1) log C over all ladders and depths, where
    a_k = t^k ||d_t^k f(t)|| / k!; a bounded positive residual certifies
    the C^{k+1} t^{-k} k! shape.  B aggregates the squared suprema plus the
    time integral of the A-norm ladder entries, approximated at the
    sampled times."""
    if len(ladders) < 1:
        raise ValueError("need at least one ladder")
    xs, ys, points = [], [], []
    for lad in ladders:
        for k, ak in enumerate(lad.a_k):
            if ak <= 0.0:
                if k == 0 and lad.norms_l2[0] == 0.0:
                    raise FitDegenerateError("ladder starts from the zero field")
                raise FitDegenerateError(
                    f"a_{k} vanished at t={lad.t} (exact-solution special case)")
            xs.append(k + 1.0)
            ys.append(math.log(ak))
            points.append((lad.t, k, float(ak)))
    xs = np.array(xs)
    ys = np.array(ys)
    log_c = float(np.sum(xs * ys) / np.sum(xs * xs))
    resid = ys - xs * log_c
    max_pos = float(np.max(resid))

    kmax = min(len(lad.a_k) for lad in ladders) - 1
    times = np.array([lad.t for lad in ladders])
    order = np.argsort(times)
    b = 0.0
    for k in range(kmax + 1):
        sup = max(lad.t ** k * lad.norms_l2[k] for lad in ladders)
        a_sq = np.array([(lad.t ** k * lad.norms_a[k]) ** 2 for lad in ladders])
        integral = float(np.trapezoid(a_sq[order], times[order]))
        bk = math.sqrt(sup * sup + max(integral, 0.0)) / math.factorial(k)
        b = max(b, bk ** (1.0 / (k + 1.0)))

    roots = [float(np.max(lad.a_k_root)) for lad in ladders]
    variation = 0.0
    for lad_a, root_a in zip(ladders, roots):
        for lad_b, root_b in zip(ladders, roots):
            if abs(lad_b.t - 2.0 * lad_a.t) < 1e-9:
                variation = max(variation, abs(root_b - root_a) / root_a)
    return SmoothingFit(math.exp(log_c), b, max_pos, variation, points)


def smoothing_report(ladders, fingerprint="", grid=None):
    fit = smoothing_fit(ladders)
    rep = VerificationReport("smoothing", fingerprint)
    rep.add_check("fit_max_positive_residual", fit.max_positive_residual, 0.5,
                  fit.max_positive_residual <= 0.5)
    rep.add_check("root_variation_under_time_doubling", fit.root_variation, 0.25,
                  fit.root_variation <= 0.25)
    rep.add_check("C_positive_finite", fit.C, math.inf,
                  math.isfinite(fit.C) and fit.C > 0)
    if grid is not None:
        rep.add_constant("C", fit.C, len(ladders), grid)
        rep.add_constant("B", fit.B, len(ladders), grid)
    return rep, fit
