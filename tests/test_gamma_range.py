"""End-to-end smoke across the soft-potential exponent range: coefficient
construction (with its built-in quadrature and cross-route checks), the
operators, a short forced evolution and a shallow ladder all hold together
from the weakly to the strongly singular end."""

import numpy as np
import pytest

from landau.evolution import (PropagatedSystem, SourceModel, derivative_ladder,
                              evolve)
from landau.field import ScalarField, l2_norm, random_field
from landau.grid import VelocityGrid
from landau.kernel import KernelParams, QuadratureSpec, build_coefficients
from landau.operator import make_context


@pytest.mark.parametrize("gamma", [-0.5, -1.5, -2.5, -2.9])
def test_pipeline_across_gamma(gamma):
    grid = VelocityGrid(R=6.0, N=16)
    params = KernelParams(gamma)
    coeffs = build_coefficients(grid, params, QuadratureSpec())
    assert coeffs.abar.min_eigenvalue_ratio() >= -1e-10
    assert coeffs.c1.min() >= 0.0
    assert coeffs.c2_crosscheck <= 0.5

    ctx = make_context(coeffs)
    f0 = random_field(grid, 42, bandlimit=5, envelope_width=1.0)
    phi = ScalarField(grid, np.exp(-grid.radius_sq / 2.0))
    phi = (1.0 / l2_norm(phi)) * phi
    model = SourceModel(phi, amplitude=0.5)
    system = PropagatedSystem(ctx, model)
    res = evolve(f0, system, 0.2, snapshot_times=(0.2,))
    assert np.isfinite(res.state.f.values).all()

    lad = derivative_ladder(res.snapshots[0.2], 0.2, 3, system)
    assert np.all(np.isfinite(lad.a_k))
    assert np.all(lad.a_k > 0)
