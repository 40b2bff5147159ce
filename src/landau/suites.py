"""Suite orchestration: build the run resources from a config and execute
the named verification suites.  Heavy resources (coefficients, operator
context, the initial datum and forcing, the reference trajectory and its
ladders) are built lazily, once, and shared across suites; the ensembles
are drawn for the one suite that reads them.

The energy suite reads one propagation: the reference trajectory's graded
energy log gives C5, and its nested subsamples are the energy-identity
rungs.  The members of each ensemble in the inequalities suite run on one
thread per core through `verify.map_on_cores`; each member owns the arrays
it writes and results are reduced in a fixed order, so every output is the
same bytes for any thread count."""

import math
from functools import cached_property

import numpy as np

from . import verify
from .config import fingerprint, validate_config
from .errors import ConfigError
from .evolution import (PropagatedSystem, SourceModel, derivative_ladder,
                        evolve, measure_source_bound)
from .field import ScalarField, envelope_boundary_ratio, normalized, random_field
from .grid import VelocityGrid
from .kernel import (KernelParams, QuadratureSpec, build_coefficients,
                     project_off_invariants)
from .operator import make_context


class RunResources:
    """Lazily built shared state for one configuration; nothing is written
    to disk.  `cache_dir` is accepted and ignored: the benchmark under
    bench/ still passes it, and it goes with the next benchmark change."""

    def __init__(self, cfg, cache_dir=None, log=print):
        self.cfg = validate_config(cfg)
        self.log = log or (lambda *_: None)
        self.fingerprint = fingerprint(cfg)
        self.grid = VelocityGrid(R=cfg.grid_R, N=cfg.grid_N)
        self.params = KernelParams(cfg.gamma, cfg.mu_normalized)
        self.quad = QuadratureSpec(cfg.quad_radial_order, cfg.quad_angular_order,
                                   cfg.quad_rtol)

    @cached_property
    def coeffs(self):
        return build_coefficients(self.grid, self.params, self.quad)

    @cached_property
    def ctx(self):
        return make_context(self.coeffs)

    def ensemble(self, fresh=False):
        """The verification ensemble, or with `fresh` the one drawn from
        seed + 1000 that the bilinear recheck certifies against.  Drawn
        anew on each call and not kept: its member pass is all that the
        suite reads."""
        cfg = self.cfg
        return verify.make_ensemble(
            self.grid, cfg.verify_ensemble_size,
            cfg.verify_seed + (1000 if fresh else 0), cfg.f0_bandlimit,
            cfg.f0_envelope_width)

    @cached_property
    def _inputs(self):
        """The datum and the forcing, projected off one collision-invariant
        basis that is dropped once they are built, before any propagation."""
        cfg, grid = self.cfg, self.grid
        basis = self.coeffs.invariants
        f0 = random_field(grid, cfg.verify_seed, cfg.f0_bandlimit,
                          cfg.f0_envelope_width, cfg.f0_spectral_decay)
        f0 = project_off_invariants(f0, basis)
        # the invariants themselves reach the outer shell; a datum that
        # reaches it further than they do is cut off by the box
        floor = max(envelope_boundary_ratio(b) for b in basis)
        ratio = envelope_boundary_ratio(f0)
        if ratio > floor:
            self.log(f"warning: initial datum boundary shell ratio {ratio:.2e} "
                     f"exceeds the collision invariants' {floor:.2e}")
        datum = cfg.f0_scale * normalized(f0)
        if cfg.source_amplitude == 0.0:
            return datum, SourceModel.zero(grid)

        def prepared(vals):
            unit = normalized(ScalarField(grid, vals))
            return normalized(project_off_invariants(unit, basis))

        phi = prepared(np.exp(-grid.radius_sq / (2.0 * cfg.source_width ** 2)))
        if cfg.source_profile == "blend":
            vx = np.asarray(grid.component(0))
            vy = np.asarray(grid.component(1))
            k0 = cfg.source_wavenumber
            width = min(cfg.source_width, 1.3)
            packet = (np.cos(k0 * vx) * np.cos(k0 * vy)
                      * np.exp(-grid.radius_sq / (2.0 * width ** 2)))
            # unit parts mixed after projection, then renormalized
            mix = phi + cfg.source_blend_ratio * prepared(packet)
            phi = normalized(mix)
        return datum, SourceModel(phi, rate=cfg.source_tau_rate,
                                  amplitude=cfg.source_amplitude)

    def initial_datum(self):
        """The rough random datum, projected off the collision invariants
        and scaled to norm f0.scale; drawn once per resources."""
        return self._inputs[0]

    def source_model(self):
        """The forcing amplitude e^{-rate t} phi, with phi a unit Gaussian
        or blend projected off the collision invariants; built once per
        resources."""
        return self._inputs[1]

    @cached_property
    def system(self):
        """G of y = (f, tau), which the trajectory and the ladders read."""
        return PropagatedSystem(self.ctx, self.source_model())

    @cached_property
    def trajectory(self):
        cfg = self.cfg
        marks = tuple(sorted(set(cfg.time_snapshot_times)
                             | set(cfg.ladder_eval_times)))
        return evolve(self.initial_datum(), self.system, cfg.time_T,
                      snapshot_times=marks, log=self.log)

    @cached_property
    def ladders(self):
        return [derivative_ladder(self.trajectory.snapshots[t], t,
                                  self.cfg.ladder_kmax, self.system)
                for t in self.cfg.ladder_eval_times]


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------

def run_suite(name, res: RunResources):
    """The reports of suite `name`, each stamped with the run's config
    fingerprint and each constant with the run's grid."""
    reports = _suite_reports(name, res)
    for rep in reports:
        rep.config_fingerprint = res.fingerprint
        for const in rep.constants:
            const["grid_params"] = {"N": res.grid.N, "R": res.grid.R}
    return reports


def _suite_reports(name, res):
    if name == "kernel":
        return [verify.check_kernel_identities(res.params, seed=res.cfg.verify_seed)]
    if name == "coefficients":
        return [verify.check_coefficient_bounds(res.coeffs)]
    if name == "convolution":
        return [verify.check_convolution_bound(res.grid, res.params)]
    if name == "inequalities":
        members = verify.member_pass(res.ctx, res.ensemble())
        reports = [
            verify.estimate_coercivity(res.coeffs, members),
            verify.estimate_bilinear_constants(members),
            verify.check_l3_embedding(members, res.coeffs),
        ]
        consts = {c["name"]: c["value"] for rep in reports for c in rep.constants}
        del members  # frees the first ensemble before the fresh one is drawn
        fresh = verify.member_pass(res.ctx, res.ensemble(fresh=True))
        reports.append(verify.recheck_bilinear(fresh, consts))
        return reports
    if name == "energy":
        rep = verify.check_energy(res.trajectory, res.ladders)
        a_g = measure_source_bound(res.source_model(), res.cfg.time_T)
        rep.add_check("A_g_finite", a_g, math.inf, math.isfinite(a_g))
        rep.add_constant("A_g", a_g, 1)
        rep.add_constant("spectral_radius", res.ctx.spectral_radius, 0)
        rep.add_constant("spectrum_lower_edge", res.ctx.spectrum_lower_edge, 0)
        return [rep]
    if name == "smoothing":
        return [verify.smoothing_report(res.ladders)]
    raise ConfigError(f"unknown suite {name!r}")


def run_suites(names, res: RunResources):
    reports = []
    for name in names:
        reports.extend(run_suite(name, res))
    return reports
