"""Sampled fields on the velocity grid and the discrete norms built on them.

All reductions go through numpy's pairwise summation (np.sum on contiguous
arrays), which is deterministic run to run for a fixed shape, so reports and
CSV outputs are reproducible bit for bit under a fixed seed.

Differences wrap periodically; admissible fields carry a decaying envelope
that keeps the wrap error below quadrature tolerance.  `EnergyForm` is the
quadratic form (M grad f, grad f) + (w f, f) with its operator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRatioError, GridMismatchError
from .grid import AXIS_OF_COMPONENT, VelocityGrid


@dataclass
class ScalarField:
    grid: VelocityGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def copy(self):
        return ScalarField(self.grid, self.values.copy())

    def __add__(self, other):
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return ScalarField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


@dataclass
class VectorField:
    grid: VelocityGrid
    comps: np.ndarray  # shape (3, N, N, N)

    def __post_init__(self):
        if self.comps.shape != (3,) + self.grid.shape:
            raise GridMismatchError(
                f"comps shape {self.comps.shape} does not match grid {self.grid.shape}"
            )


def zeros(grid):
    return ScalarField(grid, np.zeros(grid.shape))


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


def inner_product(f, g):
    """L^2 inner product (f, g) = sum f_i g_i h^3."""
    _check_same_grid(f, g)
    return float(np.sum(f.values * g.values)) * f.grid.cell_volume


def l2_norm(f):
    return math.sqrt(max(inner_product(f, f), 0.0))


def normalized(f):
    """f / ||f||; a norm below 1e-14 raises DegenerateRatioError."""
    n = l2_norm(f)
    if n < 1e-14:
        raise DegenerateRatioError("field of vanishing norm")
    return (1.0 / n) * f


def weighted_norm(f, p, ell=0.0):
    """Discrete ||<v>^ell f||_{L^p} over the grid, p in {2, 3}, by the
    cell quadrature (sum <v>^{p ell} |f|^p h^3)^{1/p}."""
    grid = f.grid
    w = grid.bracket_weight(ell)
    if p not in (2, 3):
        raise ValueError(f"p must be 2 or 3, got {p}")
    integrand = (w * np.abs(f.values)) ** p
    return float(np.sum(integrand) * grid.cell_volume) ** (1.0 / p)


# per axis 0, 1, 2: the index tuples of planes 0, 1, -2 and -1 along it
_PLANES = tuple(tuple((slice(None),) * axis + (i,) for i in (0, 1, -2, -1))
                for axis in range(3))


def wrapped_difference(x, axis, out):
    """x[i+1] - x[i-1] along `axis` (0, 1 or 2), periodic, into the
    C-contiguous `out`; bit for bit np.roll(x, -1, axis) - np.roll(x, 1, axis).
    One flat pass at +-stride is right off the first and last planes along
    `axis`, which wrap and are written again."""
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    x = np.ascontiguousarray(x)
    s = x.strides[axis] // x.itemsize
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)  # views
    np.subtract(flat_x[2 * s:], flat_x[:-2 * s], out=flat_out[s:-s])
    first, second, before_last, last = _PLANES[axis]
    np.subtract(x[second], x[last], out=out[first])
    np.subtract(x[first], x[before_last], out=out[last])
    return out


def gradient(f):
    """Second-order centered gradient with periodic wrap."""
    g = f.grid
    out = np.empty((3,) + g.shape)
    inv2h = 1.0 / (2.0 * g.h)
    for j in range(3):
        wrapped_difference(f.values, AXIS_OF_COMPONENT[j], out[j])
    out *= inv2h
    return VectorField(g, out)


def divergence(V):
    """Centered periodic divergence, the negative adjoint of `gradient`."""
    g = V.grid
    inv2h = 1.0 / (2.0 * g.h)
    out = np.zeros(g.shape)
    diff = np.empty(g.shape)
    for j in range(3):
        out += wrapped_difference(V.comps[j], AXIS_OF_COMPONENT[j], diff) * inv2h
    return ScalarField(g, out)


@dataclass(frozen=True, eq=False)
class EnergyForm:
    """(M grad f, grad f) + (w f, f) for a matrix field M (`weight`) and a
    node weight w (`potential`); `grad` is the gradient of f, when the
    caller already holds it."""

    weight: object
    potential: np.ndarray

    def energy(self, f, grad=None):
        G = gradient(f) if grad is None else grad
        total = (np.sum(self.weight.quadratic_form(G))
                 + np.sum(self.potential * f.values * f.values))
        return float(total) * f.grid.cell_volume

    def apply(self, f, grad=None):
        """-div(M grad f) + w f, the self-adjoint operator of `energy`."""
        out = -divergence(self.weight.apply(gradient(f) if grad is None else grad)).values
        out += self.potential * f.values
        return ScalarField(f.grid, out)


def a_norm_sq(f, coeffs, grad=None):
    """Square of the anisotropic energy norm, the coefficient set's `a_form`,

    ||f||_A^2 = sum_{jk} int ( abar_jk d_j f d_k f + (1/4) abar_jk v_j v_k f^2 ) dv.
    """
    if coeffs.grid != f.grid:
        raise GridMismatchError("coefficients live on a different grid")
    return coeffs.a_form.energy(f, grad)


def a_norm(f, coeffs):
    return math.sqrt(max(a_norm_sq(f, coeffs), 0.0))


def envelope_boundary_ratio(f):
    """max |f| on the outermost cell shell relative to max |f| overall."""
    v = f.values
    peak = max(float(v.max()), -float(v.min()))
    if peak == 0.0:
        return 0.0
    faces = (v[0], v[-1], v[:, 0], v[:, -1], v[:, :, 0], v[:, :, -1])
    return max(float(np.abs(face).max()) for face in faces) / peak


def _band_modes(n, bandlimit):
    """Indices of the modes |m| <= bandlimit along a full FFT axis of n."""
    return np.r_[0:bandlimit + 1, n - bandlimit:n]


def band_spectrum(grid, seed, bandlimit=8, spectral_decay=0.0):
    """The seeded spectrum of `random_field` on its band |m_i| <= bandlimit,
    a complex (2b + 1, 2b + 1, b + 1) block for b = bandlimit, whatever N.

    Draws a full low-frequency trigonometric mix of the grid's rfft shape
    from a seeded generator (the draw count is independent of the band
    mask, so fields with the same seed but different bandlimits stay
    comparable), keeps its band and optionally reddens it by
    (1 + |m|^2)^{-decay/2}."""
    if not 0 < bandlimit < grid.N // 2:
        raise ValueError(f"bandlimit must be in (0, N/2), got {bandlimit}")
    rng = np.random.default_rng(seed)
    n = grid.N
    spec = rng.standard_normal((n, n, n // 2 + 1)) + 1j * rng.standard_normal((n, n, n // 2 + 1))
    modes = _band_modes(n, bandlimit)
    block = spec[np.ix_(modes, modes, np.arange(bandlimit + 1))]
    if spectral_decay != 0.0:
        k1 = np.abs(np.fft.fftfreq(n) * n)[modes]
        kr = np.arange(bandlimit + 1)
        m2 = (k1[:, None, None] ** 2 + k1[None, :, None] ** 2
              + kr[None, None, :] ** 2)
        block *= (1.0 + m2) ** (-0.5 * spectral_decay)
    return block


def gaussian_envelope(grid, width):
    """exp(-|v|^2 / (2 width^2)) at every node; None for width <= 0."""
    return np.exp(-grid.radius_sq / (2.0 * width ** 2)) if width > 0 else None


def synthesize(grid, block, envelope=None):
    """The unit-norm field of a band block of `band_spectrum`, under
    `envelope` (None: no envelope).

    The inverse transform is pruned to the band: ifft along axis 0 on the
    block's columns only, then along axis 1 on its planes, then irfft
    along axis 2.  Each 1-d transform meets the same line as numpy's
    irfftn of the zero-padded spectrum, whose other lines are zero, so the
    field is the same bit for bit."""
    n = grid.N
    b = block.shape[-1] - 1
    modes = _band_modes(n, b)
    cols = np.zeros((n,) + block.shape[1:], complex)
    cols[modes] = block
    planes = np.zeros((n, n, b + 1), complex)
    planes[:, modes] = np.fft.ifft(cols, axis=0)
    vals = np.fft.irfft(np.fft.ifft(planes, axis=1, out=planes), n, axis=2)
    if envelope is not None:
        vals *= envelope
    nrm = math.sqrt(float(np.sum(vals * vals)) * grid.cell_volume)
    if nrm < 1e-14:
        raise DegenerateRatioError("random field collapsed to zero")
    vals /= nrm
    return ScalarField(grid, vals)


def random_field(grid, seed, bandlimit=8, envelope_width=1.25, spectral_decay=0.0):
    """Deterministic rough test field: band-limited noise under a Gaussian
    envelope, normalized to unit L^2 norm; `band_spectrum` draws it and
    `synthesize` builds it."""
    return synthesize(grid, band_spectrum(grid, seed, bandlimit, spectral_decay),
                      gaussian_envelope(grid, envelope_width))
