"""Test oracle: the bilinear collision operator Q in divergence form.

No product code applies Q.  The tests compare L1 and L2 against their
Q routes and check the discrete equilibrium residual Q(mu, mu) with it.
"""

import numpy as np

from landau.errors import GridMismatchError
from landau.field import ScalarField
from landau.grid import AXIS_OF_COMPONENT
from landau.kernel import _SYM_INDEX


def _diff4(values, j, h):
    """Fourth-order centered periodic difference along component j."""
    ax = AXIS_OF_COMPONENT[j]
    return (
        8.0 * (np.roll(values, -1, axis=ax) - np.roll(values, 1, axis=ax))
        - (np.roll(values, -2, axis=ax) - np.roll(values, 2, axis=ax))
    ) / (12.0 * h)


def apply_Q(G, F, engine):
    """Bilinear collision operator in divergence form:

        Q(G, F) = sum_j d_j [ (a_jk * G) d_k F - (a_jk * d_k G) F ].

    `engine` holds the operator's (3, 4) kernel stack, whose row j is
    (b_j, a_j0, a_j1, a_j2); only the a slots are read.  Derivatives here
    use fourth-order centered periodic stencils: the flux of an
    equilibrium pair cancels through the kernel null identity, so the
    discrete residual of Q(mu, mu) is set by the stencil error alone and
    the wider stencil keeps it resolution-limited on coarse grids.  The
    antisymmetric stencil still telescopes, so the discrete integral of Q
    vanishes to round-off.
    """
    if G.grid != F.grid or engine.grid != G.grid:
        raise GridMismatchError("both fields must live on the engine grid")
    grid = G.grid
    h = grid.h
    g_hat = engine.forward(G.values)
    dG = [_diff4(G.values, k, h) for k in range(3)]
    dG_hats = [engine.forward(d) for d in dG]
    dF = [_diff4(F.values, k, h) for k in range(3)]

    a_hats = [[engine.hats[3 + _SYM_INDEX[(j, k)]] for k in range(3)]
              for j in range(3)]
    out = np.zeros(grid.shape)
    for j in range(3):
        acc = np.zeros(grid.shape)
        bj_hat = None
        for k in range(3):
            a_hat = a_hats[j][k]
            acc += engine.inverse(a_hat * g_hat) * dF[k]
            bj_hat = a_hat * dG_hats[k] if bj_hat is None else bj_hat + a_hat * dG_hats[k]
        acc -= engine.inverse(bj_hat) * F.values
        out += _diff4(acc, j, h)
    return ScalarField(grid, out)
