"""Test oracle: the decay ratios of abar's derivatives by np.gradient.

`verify.abar_derivative_ratios` evaluates np.gradient's interior formula
slab by slab, only on the nodes its scan reads; this is the full-grid loop
it replaced, kept to compare against bit for bit.
"""

import math

import numpy as np

from landau.kernel import _PAIRS


def abar_derivative_ratios(abar, wgt, h):
    """max |d^beta abar_jk| / w over the interior nodes 2 .. N-3, nine per
    component in the order of `_PAIRS` (d_i, then d_i d_j for j >= i), with
    w = wgt, and sqrt(2) wgt for a pure second derivative: each derivative
    one np.gradient call over the whole grid, edge stencils included."""
    interior = (slice(2, -2),) * 3
    w_mixed = wgt[interior]
    w_pure = w_mixed * math.sqrt(2.0)
    scan = np.empty(w_mixed.shape)

    def scan_max(d, w):
        return float(np.max(np.divide(np.abs(d[interior], out=scan), w, out=scan)))

    ratios = []
    for j, k in _PAIRS:
        comp = abar.excess * abar.vhat[j] * abar.vhat[k]
        if j == k:
            comp += abar.across
        for ax_i in range(3):
            d = np.gradient(comp, h, axis=ax_i, edge_order=2)
            ratios.append(scan_max(d, w_mixed))
            for ax_j in range(ax_i, 3):
                ratios.append(scan_max(np.gradient(d, h, axis=ax_j, edge_order=2),
                                       w_pure if ax_i == ax_j else w_mixed))
            del d
        del comp  # each array is freed before the next is formed
    return ratios
