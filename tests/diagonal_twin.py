"""Test oracle: a diagonal twin of the propagation of d_t f + L f = g.

The stand-in operator is diagonal in Fourier space, L~ = F^-1 lambda(k) F,
with lambda(k) = lo + (rho - lo) S(k) / max S, S = sum_j sin^2(k_j h) / h^2,
and rho and lo the measured edges of the real L at that grid.  The
product's `PropagatedSystem` and `evolve` run on it unchanged, with the
real datum and forcing g = amplitude e^{-rate t} phi, and each Fourier
mode of the solution is closed form:

    f^(t) = e^{-lambda t} f0^ + amplitude phi^ t e^{-rate t} (1 - e^{-x}) / x,

x = (lambda - rate) t, with the limit 1 at x = 0.  So the snapshots and
the energy log's ||f||^2 and (Lf, f) columns have exact values, and the
series' errors on the twin are the real L's as far as they come from rho,
the edge and the cut of the Chebyshev series (Tal-Ezer & Kosloff, J. Chem.
Phys. 81, 1984).  The twin is normal, so it cannot show the non-normal
part of L's error, nor does it judge L itself.
"""

import dataclasses
import os
from types import SimpleNamespace

import numpy as np

from landau.config import load_config, validate_config
from landau.evolution import PropagatedSystem, evolve
from landau.field import ScalarField, inner_product, l2_norm
from landau.operator import SpectrumEdges
from landau.suites import RunResources

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "configs", "reference.cfg")
AXES = (0, 1, 2)


def reference_resources(n):
    """The run resources of configs/reference.cfg at grid.N = n."""
    cfg = validate_config(dataclasses.replace(load_config(REFERENCE), grid_N=n))
    return RunResources(cfg, log=None)


class DiagonalTwin:
    """L~ = F^-1 lambda(k) F on `grid`, spanning [lo, rho]; `ctx` is the
    stand-in operator context that `PropagatedSystem` reads, with the
    coefficient set `coeffs` for the energy log's A-norm column."""

    def __init__(self, grid, coeffs, rho, lo):
        self.grid = grid
        # sin^2(k_j h) per axis, k_j h / (2 pi) = fftfreq; the 1/h^2 of S
        # cancels in S / max S.  Values are [iz, iy, ix], and rfftn halves
        # the last axis, x
        full = np.sin(2.0 * np.pi * np.fft.fftfreq(grid.N)) ** 2
        half = np.sin(2.0 * np.pi * np.fft.rfftfreq(grid.N)) ** 2
        s = full[:, None, None] + full[None, :, None] + half[None, None, :]
        self.lam = lo + (rho - lo) * s / np.max(s)
        self.ctx = SimpleNamespace(apply=self.apply, coeffs=coeffs,
                                   spectrum=SpectrumEdges(rho, lo, 0, 0))

    def field_of(self, spectrum):
        return ScalarField(self.grid, np.fft.irfftn(spectrum, s=self.grid.shape, axes=AXES))

    def apply(self, f):
        return self.field_of(self.lam * np.fft.rfftn(f.values, axes=AXES))

    def solution_spectrum(self, f0, model, t):
        """The Fourier coefficients of the exact f(t) from f(0) = f0."""
        x = (self.lam - model.rate) * t
        ratio = np.ones_like(x)
        nonzero = x != 0.0
        ratio[nonzero] = -np.expm1(-x[nonzero]) / x[nonzero]
        return (np.exp(-self.lam * t) * np.fft.rfftn(f0.values, axes=AXES)
                + model.amplitude * t * np.exp(-model.rate * t) * ratio
                * np.fft.rfftn(model.phi.values, axes=AXES))


def _relative(got, exact):
    return float(abs(got - exact) / abs(exact))


def twin_errors(res):
    """Run `evolve` of the resources' datum, forcing, horizon and snapshot
    times on the diagonal twin of res.ctx's measured spectrum.  Returns the
    largest relative L2 error of the snapshots, the largest relative errors
    of the energy log's ||f||^2 and (Lf, f) columns over its rows, and the
    run's own `lf_gap`."""
    cfg, spectrum = res.cfg, res.ctx.spectrum
    twin = DiagonalTwin(res.grid, res.coeffs, spectrum.rho, spectrum.edge)
    f0, model = res.initial_datum(), res.source_model()
    run = evolve(f0, PropagatedSystem(twin.ctx, model), cfg.time_T,
                 snapshot_times=cfg.time_snapshot_times)

    snapshot = 0.0
    for t in cfg.time_snapshot_times:
        exact = twin.field_of(twin.solution_spectrum(f0, model, t))
        snapshot = max(snapshot, l2_norm(run.snapshots[t] - exact) / l2_norm(exact))
    l2sq = lff = 0.0
    for t, got_l2sq, _, _, got_lff in run.energy_log:
        spec = twin.solution_spectrum(f0, model, t)
        f = twin.field_of(spec)
        l2sq = max(l2sq, _relative(got_l2sq, inner_product(f, f)))
        lff = max(lff, _relative(got_lff, inner_product(twin.field_of(twin.lam * spec), f)))
    return SimpleNamespace(snapshot=snapshot, l2sq=l2sq, lff=lff, lf_gap=run.lf_gap)
