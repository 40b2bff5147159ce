"""Output checks of the benchmark workloads, made apart from the program.

None of them compares with a stored copy of earlier output.  Each check
either recomputes a quantity by another route (a DOP853 integration, a
direct periodic summation, a closed form, the analytic kernel derivatives)
or tests a property the method must have (symmetry, positivity, the
fourth-order energy identity, a bit-exact round trip).  The checks run in
the benchmark's parent process, after the timed round has ended.

Each check is a dict {"id", "value", "tol", "ok", "gated"}.  A run is
correct when every gated check is ok.  A check with gated=False is still
computed and printed, but it tests a property the discretization does not
keep on every seed (see energy_log_checks), so it does not decide `correct`.
"""

import csv
import json
import math
import os
import shutil
import tempfile

import numpy as np

SNAPSHOT_RTOL = 1e-8        # RK4 snapshot against DOP853 (measured 2e-10)
LADDER_RTOL = 1e-5          # depth-1 norm against a central difference
CENTRAL_DELTA = 1e-3
SLOPE_TARGET, SLOPE_TOL = 4.0, 0.5
L2_DIRECT_RTOL = 1e-10      # FFT convolution against direct summation
ROUNDOFF_RTOL = 1e-12       # symmetry and norm identities
ABAR_ORIGIN_RTOL = 1e-10    # measured 9e-13 at gamma=-0.5
B_TABLE_RTOL = 1e-14        # measured 5e-16, relative to 2|u|^(gamma+1)
ENERGY_ROW_RTOL = 1e-10     # log row against recomputation (measured 1e-16)


def check(cid, value, tol, ok, gated=True):
    return {"id": cid, "value": float(value), "tol": float(tol), "ok": bool(ok),
            "gated": bool(gated)}


def _rel(a, b):
    return float(np.linalg.norm(np.ravel(a - b)) / max(np.linalg.norm(np.ravel(b)), 1e-300))


def read_csv(path):
    """Numeric rows of a landau CSV (comment line, header, rows)."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], np.array([[float(x) for x in r] for r in rows[1:]])


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def report_constant(doc, name):
    for c in doc["constants"]:
        if c["name"] == name:
            return c["value"] if c["value"] is not None else math.nan
    raise KeyError(f"constant {name} not in report {doc['suite']}")


def report_check_value(doc, cid):
    for c in doc["checks"]:
        if c["id"] == cid:
            return c["value"] if c["value"] is not None else math.nan
    raise KeyError(f"check {cid} not in report {doc['suite']}")


def resources(cfg, work):
    """Fresh resources of a workload configuration; the cold build goes to
    a temporary cache directory under `work`."""
    from landau.suites import RunResources

    cache = tempfile.mkdtemp(prefix="check-cache-", dir=work)
    try:
        res = RunResources(cfg, cache_dir=cache, log=None)
        res.ctx
    finally:
        shutil.rmtree(cache)
    return res


# ---------------------------------------------------------------------------
# analyticity-n24
# ---------------------------------------------------------------------------

def dop853_reference(res, times):
    """The same ODE d_t f = g(t) - L f, integrated by scipy's DOP853 and
    sampled at `times`; returns {t: values}."""
    from scipy.integrate import solve_ivp
    from landau.field import ScalarField

    grid, ctx = res.grid, res.ctx
    model = res.source_model()
    phi = model.phi.values.ravel()
    f0 = res.initial_datum().values.ravel()

    def rhs(t, y):
        lf = ctx.apply(ScalarField(grid, y.reshape(grid.shape))).values.ravel()
        return model.tau_derivative(0, t) * phi - lf

    times = sorted(times)
    sol = solve_ivp(rhs, (0.0, times[-1]), f0, method="DOP853", t_eval=times,
                    rtol=1e-12, atol=1e-13 * float(np.abs(f0).max()))
    if not sol.success:
        raise RuntimeError(f"DOP853 reference failed: {sol.message}")
    return {t: sol.y[:, i].reshape(grid.shape) for i, t in enumerate(times)}


def snapshot_checks(snapshots, reference):
    """RK4 snapshots against the DOP853 reference, relative L2."""
    out = []
    for t, values in sorted(snapshots.items()):
        rel = _rel(values, reference[t])
        out.append(check(f"snapshot_t{t:g}_vs_dop853", rel, SNAPSHOT_RTOL,
                         rel <= SNAPSHOT_RTOL))
    return out


def ladder_depth1_checks(ladder_norms, reference, cell_volume, delta=CENTRAL_DELTA):
    """||d_t f(t)|| from the ladder against a central difference of the
    reference at t -/+ delta."""
    out = []
    for t, norm1 in sorted(ladder_norms.items()):
        cd = (reference[t + delta] - reference[t - delta]) / (2.0 * delta)
        cd_norm = math.sqrt(float(np.sum(cd * cd)) * cell_volume)
        rel = abs(norm1 - cd_norm) / cd_norm
        out.append(check(f"ladder_t{t:g}_depth1_vs_central_difference", rel,
                         LADDER_RTOL, rel <= LADDER_RTOL))
    return out


def energy_log_checks(lff):
    """(Lf, f) >= 0 at every row of the energy log.

    Not gated: the continuous operator is nonnegative, but the discrete L
    at N=24 is not.  On some seeds the late trajectory aligns with a
    direction where (L2f, f) outweighs (L1f, f), and (Lf, f) turns negative
    near t = 2 (seed 659157885: -0.06 with ||f||^2 = 1.3)."""
    worst = float(np.min(lff))
    return [check("energy_log_lff_nonnegative", worst, 0.0, worst >= 0.0,
                  gated=False)]


def energy_row_checks(rows, snapshots, apply_l, source, cell_volume):
    """The energy-log row at each snapshot time t against (f, f), (g, f)
    and (Lf, f) recomputed from the snapshot f, relative to
    ||f||^2 + |(g, f)| + |(Lf, f)|.  `rows` maps t to (l2sq, gf, lff)."""
    out = []
    for t, values in sorted(snapshots.items()):
        lf = apply_l(values)
        expect = np.array([np.sum(values * values), np.sum(source(t) * values),
                           np.sum(lf * values)]) * cell_volume
        got = np.asarray(rows.get(t, (math.nan,) * 3), dtype=float)
        err = float(np.max(np.abs(got - expect)) / np.sum(np.abs(expect)))
        out.append(check(f"energy_row_t{t:g}_vs_recomputed", err, ENERGY_ROW_RTOL,
                         err <= ENERGY_ROW_RTOL))
    return out


def slope_check(slope):
    dev = abs(slope - SLOPE_TARGET)
    return [check("energy_identity_dt_slope", slope, SLOPE_TOL,
                  math.isfinite(slope) and dev <= SLOPE_TOL)]


def positivity_checks(fit_c, a_ks):
    vals = np.concatenate([np.ravel(a) for a in a_ks] + [[fit_c]])
    ok = bool(np.all(np.isfinite(vals)) and np.all(vals > 0))
    return [check("fit_C_and_a_k_finite_positive", float(np.min(vals)), 0.0, ok)]


def roundtrip_checks(snapshot_files, gamma):
    """Each .fld file read back by persist equals the raw copy bit for bit,
    with the header it was written with."""
    from landau import persist

    out = []
    for t, (fld, raw) in sorted(snapshot_files.items()):
        field, g, _, time = persist.load_field_snapshot(fld)
        expect = np.load(raw)
        same = (field.values.shape == expect.shape
                and field.values.tobytes() == expect.tobytes()
                and g == gamma and time == t)
        diff = float(np.max(np.abs(field.values - expect))) \
            if field.values.shape == expect.shape else math.inf
        out.append(check(f"snapshot_t{t:g}_roundtrip_bit_exact", diff, 0.0, same))
    return out


def check_analyticity(cfgs, work):
    from landau.field import ScalarField

    (cfg,) = cfgs
    out_dir = os.path.join(work, "out")
    res = resources(cfg, work)
    snap_times = sorted(cfg.time_snapshot_times)
    ladder_times = sorted(cfg.ladder_eval_times)
    times = set(snap_times) | {t + s * CENTRAL_DELTA
                               for t in ladder_times for s in (-1, 1)}
    reference = dop853_reference(res, times)

    files = {t: (os.path.join(out_dir, f"snapshot_t{t:g}.fld"),
                 os.path.join(out_dir, f"snapshot_t{t:g}.npy")) for t in snap_times}
    snapshots = {t: np.load(raw) for t, (_, raw) in files.items()}
    ladders = {t: read_csv(os.path.join(out_dir, f"ladder_t{t:g}.csv"))
               for t in ladder_times}
    header, energy = read_csv(os.path.join(out_dir, "energy.csv"))
    cols = [header.index(c) for c in ("l2sq", "gf", "lff")]
    rows = {row[0]: row[cols] for row in energy}
    rep_energy = read_report(os.path.join(out_dir, "report_energy.json"))
    rep_smooth = read_report(os.path.join(out_dir, "report_smoothing.json"))

    results = snapshot_checks(snapshots, reference)
    results += ladder_depth1_checks(
        {t: rows[1, hdr.index("norm_l2")] for t, (hdr, rows) in ladders.items()},
        reference, res.grid.cell_volume)
    results += slope_check(report_check_value(rep_energy, "residual_dt_slope"))
    results += energy_log_checks(energy[:, header.index("lff")])
    model = res.source_model()
    results += energy_row_checks(
        rows, snapshots,
        lambda v: res.ctx.apply(ScalarField(res.grid, v)).values,
        lambda t: model.tau_derivative(0, t) * model.phi.values,
        res.grid.cell_volume)
    results += positivity_checks(
        report_constant(rep_smooth, "C"),
        [rows[:, hdr.index("a_k")] for hdr, rows in ladders.values()])
    results += roundtrip_checks(files, cfg.gamma)
    return results


# ---------------------------------------------------------------------------
# constants-n48
# ---------------------------------------------------------------------------

def _shift(d, n, h):
    """Shift of lattice index difference d in the FFT layout of the tables."""
    d = np.mod(d, n)
    return np.where(d < n // 2, d, d - n) * h


def direct_L2(values, coeffs, nodes, cell_origin_avg):
    """L2 f at `nodes` (index triples [iz, iy, ix]) by direct periodic
    summation of the closed-form kernels, without FFT:

        X_j(v) = sum_u [sum_k a_jk(u) (v_k mu^1/2 f)(v - u) + b_j(u) (mu^1/2 f)(v - u)] h^3
        L2 f   = mu^1/2 sum_j (D_j X_j - v_j X_j),  D_j the centered difference.
    """
    grid = coeffs.grid
    n, h, g = grid.N, grid.h, coeffs.params.gamma
    ax = grid.axis
    iz, iy, ix = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    vz, vy, vx = ax[iz], ax[iy], ax[ix]
    mh = math.sqrt(coeffs.params.mu_prefactor) * np.exp(-0.25 * (vx ** 2 + vy ** 2 + vz ** 2))
    rho = mh * values
    dens = [vx * rho, vy * rho, vz * rho]

    def X(node):
        nz, ny, nx = node
        u = [_shift(nx - ix, n, h), _shift(ny - iy, n, h), _shift(nz - iz, n, h)]
        r2 = u[0] ** 2 + u[1] ** 2 + u[2] ** 2
        origin = r2 == 0.0
        r2[origin] = 1.0
        rg = r2 ** (0.5 * g)
        out = np.empty(3)
        for j in range(3):
            b = -2.0 * rg * u[j]                  # b_j = sum_k d_k a_jk
            b[origin] = 0.0                       # odd kernel, symmetric cell
            acc = b * rho
            for k in range(3):
                a = rg * ((r2 if j == k else 0.0) - u[j] * u[k])
                a[origin] = (2.0 / 3.0) * cell_origin_avg if j == k else 0.0
                acc += a * dens[k]
            out[j] = float(np.sum(acc)) * h ** 3
        return out

    result = []
    for node in nodes:
        node = np.asarray(node)
        x_here = X(node)
        total = 0.0
        for j in range(3):
            axis = 2 - j            # component j lives on array axis 2 - j
            step = np.zeros(3, dtype=int)
            step[axis] = 1
            xp = X(np.mod(node + step, n))[j]
            xm = X(np.mod(node - step, n))[j]
            total += (xp - xm) / (2.0 * h) - ax[node[axis]] * x_here[j]
        nz, ny, nx = node
        result.append(mh[nz, ny, nx] * total)
    return np.array(result)


def l2_direct_checks(apply_l2, coeffs, fields, nodes, cell_origin_avg):
    worst = 0.0
    for f in fields:
        fft = apply_l2(f).values
        direct = direct_L2(f.values, coeffs, nodes, cell_origin_avg)
        at_nodes = np.array([fft[tuple(nd)] for nd in nodes])
        worst = max(worst, float(np.max(np.abs(at_nodes - direct))
                                 / np.max(np.abs(fft))))
    return [check("apply_L2_vs_direct_summation", worst, L2_DIRECT_RTOL,
                  worst <= L2_DIRECT_RTOL)]


def l1_symmetry_checks(apply_l1, inner, f, g):
    lfg, flg = inner(apply_l1(f), g), inner(f, apply_l1(g))
    rel = abs(lfg - flg) / max(abs(lfg), abs(flg), 1e-300)
    return [check("L1_symmetric", rel, ROUNDOFF_RTOL, rel <= ROUNDOFF_RTOL)]


def a_norm_identity_checks(a_norm_sq, apply_l1, inner, c2, fields):
    from landau.field import ScalarField

    worst = 0.0
    for f in fields:
        form = inner(apply_l1(f) + ScalarField(f.grid, c2 * f.values), f)
        worst = max(worst, abs(a_norm_sq(f) - form) / abs(form))
    return [check("a_norm_sq_equals_L1_plus_c2_form", worst, ROUNDOFF_RTOL,
                  worst <= ROUNDOFF_RTOL)]


def constant_checks(consts):
    c1 = consts["C1"]
    out = [check("C1_positive", c1, 0.0, math.isfinite(c1) and c1 > 0)]
    for name in ("C2", "C3", "C4"):
        v = consts[name]
        out.append(check(f"{name}_finite_positive", v, 0.0,
                         math.isfinite(v) and v > 0))
    return out


def check_constants(cfgs, work, seed):
    from landau.field import a_norm_sq, inner_product, random_field
    from landau.kernel import cell_average_radial_power
    from landau.operator import apply_L1, apply_L2

    (cfg,) = cfgs
    out_dir = os.path.join(work, "out")
    res = resources(cfg, work)
    grid, coeffs = res.grid, res.coeffs
    bandlimit = min(cfg.f0_bandlimit, grid.N // 2 - 1)
    fields = [random_field(grid, seed + i, bandlimit, cfg.f0_envelope_width)
              for i in range(2)]
    # nodes in the central cube |v_i| < R/4, where mu^1/2 f is not negligible
    rng = np.random.default_rng(seed)
    nodes = rng.integers(3 * grid.N // 8, 5 * grid.N // 8, size=(4, 3))
    origin_avg = cell_average_radial_power(cfg.gamma + 2.0, grid.h)
    coercivity = read_report(os.path.join(out_dir, "report_coercivity.json"))
    bilinear = read_report(os.path.join(out_dir, "report_bilinear.json"))
    consts = {"C1": report_constant(coercivity, "C1"),
              **{n: report_constant(bilinear, n) for n in ("C2", "C3", "C4")}}
    results = l2_direct_checks(lambda f: apply_L2(f, res.ctx.engine, coeffs),
                               coeffs, fields, nodes, origin_avg)
    results += l1_symmetry_checks(lambda f: apply_L1(f, coeffs), inner_product,
                                  fields[0], fields[1])
    results += a_norm_identity_checks(lambda f: a_norm_sq(f, coeffs),
                                      lambda f: apply_L1(f, coeffs),
                                      inner_product, coeffs.c2, fields)
    results += constant_checks(consts)
    return results


# ---------------------------------------------------------------------------
# coefficients-n64
# ---------------------------------------------------------------------------

def abar_origin_closed_form(gamma):
    """abar(0) = (2/3) 4 pi (2 pi)^{-3/2} 2^{(g+3)/2} Gamma((g+5)/2), on
    both eigen-directions (normalized Maxwellian)."""
    return ((2.0 / 3.0) * 4.0 * math.pi * (2.0 * math.pi) ** -1.5
            * 2.0 ** (0.5 * (gamma + 3.0)) * math.gamma(0.5 * (gamma + 5.0)))


def abar_origin_checks(profiles, gamma):
    exact = abar_origin_closed_form(gamma)
    rel = max(abs(float(p[0]) - exact) / exact for p in profiles)
    return [check(f"abar_origin_closed_form_gamma{gamma:g}", rel,
                  ABAR_ORIGIN_RTOL, rel <= ABAR_ORIGIN_RTOL)]


def b_table_checks(b_comps, grid, gamma, pad, flat_idx):
    """b_j on the shift lattice against sum_k d_k a_jk from the analytic
    first derivatives, at nonzero shifts (flat indices into the table)."""
    from landau.kernel import kernel_first_derivatives

    m = pad * grid.N
    iz, iy, ix = np.unravel_index(flat_idx, (m, m, m))
    pts = np.stack([_shift(ix, m, grid.h), _shift(iy, m, grid.h),
                    _shift(iz, m, grid.h)], axis=-1)
    d = kernel_first_derivatives(pts, gamma)              # [p, l, j, k]
    trace = np.einsum("pkjk->pj", d)
    table = np.stack([b_comps[j].reshape(-1)[flat_idx] for j in range(3)], axis=-1)
    scale = 2.0 * np.linalg.norm(pts, axis=-1) ** (gamma + 1.0)
    err = float(np.max(np.abs(table - trace) / scale[:, None]))
    return [check(f"b_table_pad{pad}_vs_kernel_derivatives_gamma{gamma:g}",
                  err, B_TABLE_RTOL, err <= B_TABLE_RTOL)]


def check_coefficients(cfgs, work, seed, samples=4096):
    from landau.grid import VelocityGrid
    from landau.kernel import (KernelParams, QuadratureSpec, abar_profiles_at,
                               tabulate_fft_kernels)

    rng = np.random.default_rng(seed)
    results = []
    for cfg in cfgs:
        grid = VelocityGrid(R=cfg.grid_R, N=cfg.grid_N)
        params = KernelParams(cfg.gamma, cfg.mu_normalized)
        quad = QuadratureSpec(cfg.quad_radial_order, cfg.quad_angular_order,
                              cfg.quad_rtol)
        results += abar_origin_checks(abar_profiles_at([0.0], params, quad),
                                      cfg.gamma)
        for pad in (1, 2):
            tables = tabulate_fft_kernels(grid, params, pad=pad)
            size = (pad * grid.N) ** 3
            idx = rng.choice(np.arange(1, size), size=samples, replace=False)
            results += b_table_checks(tables.b_comps, grid, cfg.gamma, pad, idx)
            del tables
    return results


def check_workload(name, cfgs, work, seed):
    if name == "analyticity-n24":
        return check_analyticity(cfgs, work)
    if name == "constants-n48":
        return check_constants(cfgs, work, seed)
    if name == "coefficients-n64":
        return check_coefficients(cfgs, work, seed)
    raise KeyError(name)
