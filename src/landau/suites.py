"""Suite orchestration: build the run resources from a config and execute
the named verification suites.  Heavy resources (coefficients, operator
context, ensembles, the reference trajectory and its ladders) are built
lazily and shared across suites."""

import math

import numpy as np

from . import verify
from .config import fingerprint
from .errors import ConfigError
from .evolution import (RK4_STABILITY_LIMIT, SourceModel, TimePolicy,
                        derivative_ladder, evolve, measure_source_bound)
from .field import ScalarField, envelope_boundary_ratio, random_field, zeros
from .grid import VelocityGrid
from .kernel import (KernelParams, QuadratureSpec, build_coefficients,
                     tabulate_fft_kernels)
from .operator import ConvolutionEngine, make_context

ENVELOPE_SHELL_LIMIT = 1e-8
# dt*rho(L) of the coarsest energy-identity rung, inside the RK4 limit
LADDER_DT_RHO = 2.4


class RunResources:
    """Lazily built shared state for one configuration."""

    def __init__(self, cfg, cache_dir=None, log=print):
        self.cfg = cfg
        self.cache_dir = cache_dir if cache_dir is not None else cfg.io_cache_dir
        self.log = log or (lambda *_: None)
        self.fingerprint = fingerprint(cfg)
        self.grid = VelocityGrid(R=cfg.grid_R, N=cfg.grid_N)
        self.params = KernelParams(cfg.gamma, cfg.mu_normalized)
        self.quad = QuadratureSpec(cfg.quad_radial_order, cfg.quad_angular_order,
                                   cfg.quad_rtol)
        self._coeffs = None
        self._ctx = None
        self._padded_engine = None
        self._ensemble = None
        self._fresh_ensemble = None
        self._trajectory = None
        self._ladders = None

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = build_coefficients(
                self.grid, self.params, self.quad, self.cache_dir, self.log)
        return self._coeffs

    @property
    def ctx(self):
        if self._ctx is None:
            self._ctx = make_context(self.coeffs)
        return self._ctx

    @property
    def padded_engine(self):
        if self._padded_engine is None:
            self._padded_engine = ConvolutionEngine(
                tabulate_fft_kernels(self.grid, self.params, pad=2))
        return self._padded_engine

    def ensemble(self, fresh=False):
        cfg = self.cfg
        bandlimit = min(cfg.f0_bandlimit, self.grid.N // 2 - 1)
        if fresh:
            if self._fresh_ensemble is None:
                self._fresh_ensemble = verify.make_ensemble(
                    self.grid, cfg.verify_ensemble_size, cfg.verify_seed + 1000,
                    bandlimit, cfg.f0_envelope_width)
            return self._fresh_ensemble
        if self._ensemble is None:
            self._ensemble = verify.make_ensemble(
                self.grid, cfg.verify_ensemble_size, cfg.verify_seed,
                bandlimit, cfg.f0_envelope_width)
        return self._ensemble

    def initial_datum(self):
        from .field import l2_norm
        from .kernel import project_off_invariants

        cfg = self.cfg
        if cfg.f0_kind == "zero":
            return zeros(self.grid)
        if cfg.f0_kind == "gaussian":
            vals = np.exp(-self.grid.radius_sq / 2.0)
            f = ScalarField(self.grid, vals)
            f0 = (1.0 / l2_norm(f)) * f
        else:
            bandlimit = min(cfg.f0_bandlimit, self.grid.N // 2 - 1)
            f0 = random_field(self.grid, cfg.verify_seed, bandlimit,
                              cfg.f0_envelope_width, cfg.f0_spectral_decay)
        if cfg.f0_orthogonalize:
            f0 = project_off_invariants(f0, self.params)
            f0 = (1.0 / l2_norm(f0)) * f0
        f0 = cfg.f0_scale * f0
        ratio = envelope_boundary_ratio(f0)
        if ratio > ENVELOPE_SHELL_LIMIT:
            self.log(f"warning: initial datum boundary shell ratio {ratio:.2e} "
                     f"exceeds {ENVELOPE_SHELL_LIMIT:.0e}")
        return f0

    def source_model(self):
        from .field import l2_norm
        from .kernel import project_off_invariants

        cfg = self.cfg
        if cfg.source_profile == "zero" or cfg.source_amplitude == 0.0:
            return SourceModel.zero(self.grid)

        def prepared(vals):
            f = ScalarField(self.grid, vals)
            f = (1.0 / l2_norm(f)) * f
            if cfg.source_orthogonalize:
                f = project_off_invariants(f, self.params)
                f = (1.0 / l2_norm(f)) * f
            return f

        gauss = np.exp(-self.grid.radius_sq / (2.0 * cfg.source_width ** 2))
        if cfg.source_profile == "gaussian":
            phi = prepared(gauss)
        else:
            vx = np.asarray(self.grid.component(0))
            vy = np.asarray(self.grid.component(1))
            k0 = cfg.source_wavenumber
            width = min(cfg.source_width, 1.3)
            packet = (np.cos(k0 * vx) * np.cos(k0 * vy)
                      * np.exp(-self.grid.radius_sq / (2.0 * width ** 2)))
            if cfg.source_profile == "packet":
                phi = prepared(packet)
            else:
                # blend: unit parts mixed after projection, then renormalized
                mix = prepared(gauss) + cfg.source_blend_ratio * prepared(packet)
                phi = (1.0 / l2_norm(mix)) * mix
        return SourceModel(phi, tau_kind=cfg.source_tau_kind,
                           rate=cfg.source_tau_rate, omega=cfg.source_tau_omega,
                           coeffs=cfg.source_tau_coeffs,
                           amplitude=cfg.source_amplitude)

    @property
    def trajectory(self):
        if self._trajectory is None:
            cfg = self.cfg
            marks = tuple(sorted(set(cfg.time_snapshot_times)
                                 | set(cfg.ladder_eval_times)))
            self._trajectory = evolve(
                self.initial_datum(), self.source_model(), cfg.time_T, self.ctx,
                TimePolicy(safety=cfg.time_safety), snapshot_times=marks)
        return self._trajectory

    @property
    def ladders(self):
        if self._ladders is None:
            model = self.source_model()
            self._ladders = [
                derivative_ladder(self.trajectory.snapshots[t], t,
                                  self.cfg.ladder_kmax, model, self.ctx)
                for t in self.cfg.ladder_eval_times
            ]
        return self._ladders


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------

def run_suite(name, res: RunResources):
    if name == "kernel":
        return [verify.check_kernel_identities(
            res.params, seed=res.cfg.verify_seed, fingerprint=res.fingerprint)]
    if name == "coefficients":
        return [verify.check_coefficient_bounds(res.coeffs, res.fingerprint)]
    if name == "convolution":
        return [verify.check_convolution_bound(
            res.padded_engine, res.params, fingerprint=res.fingerprint)]
    if name == "inequalities":
        ens = res.ensemble()
        reports = [
            verify.estimate_coercivity(res.coeffs, ens, fingerprint=res.fingerprint),
            verify.estimate_bilinear_constants(res.ctx, ens, res.fingerprint),
            verify.check_l3_embedding(ens, res.coeffs, res.fingerprint),
        ]
        consts = {c.name: c.value for rep in reports for c in rep.constants}
        reports.append(verify.recheck_bilinear(
            res.ctx, res.ensemble(fresh=True), consts, fingerprint=res.fingerprint))
        return reports
    if name == "energy":
        cfg = res.cfg
        model = res.source_model()
        n0 = energy_ladder_steps(cfg.time_T, res.ctx)
        _, slope = verify.energy_identity_convergence(
            res.initial_datum(), model, cfg.time_T, res.ctx,
            steps=(n0, 2 * n0, 4 * n0))
        rep = verify.check_energy(res.trajectory, res.ladders,
                                  res.fingerprint, slope=slope)
        a_g = measure_source_bound(model, cfg.time_T, kmax=8)
        rep.add_check("A_g_finite", a_g, math.inf, math.isfinite(a_g))
        # the ladder sits at dt*rho <= LADDER_DT_RHO by construction; the
        # trajectory step comes from the diffusion bound, so check it here
        dt_rho = res.trajectory.dt_max * res.ctx.spectral_radius
        rep.add_check("trajectory_dt_rho", dt_rho, RK4_STABILITY_LIMIT,
                      dt_rho < RK4_STABILITY_LIMIT)
        rep.add_constant("A_g", a_g, 1, res.grid)
        return [rep]
    if name == "smoothing":
        rep, _ = verify.smoothing_report(res.ladders, res.fingerprint, res.grid)
        return [rep]
    raise ConfigError(f"unknown suite {name!r}")


def energy_ladder_steps(T, ctx):
    """Even step count n0 of the energy-identity ladder (n0, 2 n0, 4 n0
    steps over [0, T]).  The coarsest rung runs at dt*rho(L) <= 2.4,
    inside the RK4 stability limit, and coarse enough that the finest
    rung's fourth-order residual stays far above round-off."""
    n = int(math.ceil(T * ctx.spectral_radius / LADDER_DT_RHO))
    return n + (n % 2)


def run_suites(names, res: RunResources):
    reports = []
    for name in names:
        reports.extend(run_suite(name, res))
    return reports


def collect_constants(reports):
    return {c.name: c.value for rep in reports for c in rep.constants}
