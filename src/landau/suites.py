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
from .evolution import (SourceModel, derivative_ladder, evolve,
                        measure_source_bound)
from .field import ScalarField, envelope_boundary_ratio, l2_norm, random_field
from .grid import VelocityGrid
from .kernel import (KernelParams, QuadratureSpec, build_coefficients,
                     collision_invariant_basis, project_off_invariants)
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
    def _datum(self):
        cfg = self.cfg
        f0 = random_field(self.grid, cfg.verify_seed, cfg.f0_bandlimit,
                          cfg.f0_envelope_width, cfg.f0_spectral_decay)
        basis = collision_invariant_basis(self.grid, self.params)
        f0 = project_off_invariants(f0, self.params, basis)
        # the invariants themselves reach the outer shell; a datum that
        # reaches it further than they do is cut off by the box
        floor = max(envelope_boundary_ratio(b) for b in basis)
        del basis
        ratio = envelope_boundary_ratio(f0)
        if ratio > floor:
            self.log(f"warning: initial datum boundary shell ratio {ratio:.2e} "
                     f"exceeds the collision invariants' {floor:.2e}")
        return cfg.f0_scale * ((1.0 / l2_norm(f0)) * f0)

    def initial_datum(self):
        """The rough random datum, projected off the collision invariants
        and scaled to norm f0.scale; drawn once per resources."""
        return self._datum

    @cached_property
    def _source(self):
        cfg = self.cfg
        if cfg.source_amplitude == 0.0:
            return SourceModel.zero(self.grid)

        def prepared(vals):
            f = ScalarField(self.grid, vals)
            f = project_off_invariants((1.0 / l2_norm(f)) * f, self.params)
            return (1.0 / l2_norm(f)) * f

        phi = prepared(np.exp(-self.grid.radius_sq / (2.0 * cfg.source_width ** 2)))
        if cfg.source_profile == "blend":
            vx = np.asarray(self.grid.component(0))
            vy = np.asarray(self.grid.component(1))
            k0 = cfg.source_wavenumber
            width = min(cfg.source_width, 1.3)
            packet = (np.cos(k0 * vx) * np.cos(k0 * vy)
                      * np.exp(-self.grid.radius_sq / (2.0 * width ** 2)))
            # unit parts mixed after projection, then renormalized
            mix = phi + cfg.source_blend_ratio * prepared(packet)
            phi = (1.0 / l2_norm(mix)) * mix
        return SourceModel(phi, rate=cfg.source_tau_rate,
                           amplitude=cfg.source_amplitude)

    def source_model(self):
        """The forcing amplitude e^{-rate t} phi, with phi a unit Gaussian
        or blend projected off the collision invariants; built once per
        resources."""
        return self._source

    @cached_property
    def trajectory(self):
        cfg = self.cfg
        marks = tuple(sorted(set(cfg.time_snapshot_times)
                             | set(cfg.ladder_eval_times)))
        return evolve(self.initial_datum(), self.source_model(), cfg.time_T,
                      self.ctx, snapshot_times=marks, log=self.log)

    @cached_property
    def ladders(self):
        model = self.source_model()
        return [derivative_ladder(self.trajectory.snapshots[t], t,
                                  self.cfg.ladder_kmax, model, self.ctx)
                for t in self.cfg.ladder_eval_times]


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
            res.grid, res.params, fingerprint=res.fingerprint)]
    if name == "inequalities":
        members = verify.member_pass(res.ctx, res.ensemble())
        reports = [
            verify.estimate_coercivity(res.coeffs, members, fingerprint=res.fingerprint),
            verify.estimate_bilinear_constants(members, res.fingerprint),
            verify.check_l3_embedding(members, res.coeffs, res.fingerprint),
        ]
        consts = {c.name: c.value for rep in reports for c in rep.constants}
        del members  # frees the first ensemble before the fresh one is drawn
        fresh = verify.member_pass(res.ctx, res.ensemble(fresh=True))
        reports.append(verify.recheck_bilinear(fresh, consts, fingerprint=res.fingerprint))
        return reports
    if name == "energy":
        traj = res.trajectory
        rep = verify.check_energy(traj, res.ladders, res.fingerprint)
        a_g = measure_source_bound(res.source_model(), res.cfg.time_T, kmax=8)
        rep.add_check("A_g_finite", a_g, math.inf, math.isfinite(a_g))
        rep.add_constant("A_g", a_g, 1, res.grid)
        rep.add_constant("spectral_radius", res.ctx.spectral_radius, 0, res.grid)
        rep.add_constant("spectrum_lower_edge", res.ctx.spectrum_lower_edge, 0,
                         res.grid)
        return [rep]
    if name == "smoothing":
        rep, _ = verify.smoothing_report(res.ladders, res.grid, res.fingerprint)
        return [rep]
    raise ConfigError(f"unknown suite {name!r}")


def run_suites(names, res: RunResources):
    reports = []
    for name in names:
        reports.extend(run_suite(name, res))
    return reports
