"""Cell-centered cubic velocity grid.

The grid covers [-R, R]^3 with N cells per axis and centers at
v_i = -R + (i + 1/2) h, h = 2R/N, so no node sits at the origin.
Arrays are stored with index layout [iz, iy, ix] (x fastest), which makes
the C-order flat index (iz*N + iy)*N + ix, the layout used by all binary
file formats in this package.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# velocity component j in {0:x, 1:y, 2:z} lives on numpy axis 2 - j
AXIS_OF_COMPONENT = (2, 1, 0)


@dataclass(frozen=True)
class VelocityGrid:
    R: float
    N: int

    def __post_init__(self):
        if self.N < 16 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 16, got {self.N}")
        if not self.R > 0:
            raise ValueError(f"R must be positive, got {self.R}")

    @property
    def h(self):
        return 2.0 * self.R / self.N

    @property
    def shape(self):
        return (self.N, self.N, self.N)

    @property
    def cell_volume(self):
        return self.h ** 3

    @cached_property
    def axis(self):
        """1-D cell-center coordinates, shared by all three axes."""
        return (np.arange(self.N) + 0.5) * self.h - self.R

    @cached_property
    def coords(self):
        """(vx, vy, vz) coordinate arrays, each of shape (N, N, N)."""
        ax = self.axis
        shape = self.shape
        vx = np.broadcast_to(ax[None, None, :], shape)
        vy = np.broadcast_to(ax[None, :, None], shape)
        vz = np.broadcast_to(ax[:, None, None], shape)
        return vx, vy, vz

    def component(self, j):
        """Coordinate array of velocity component j (0:x, 1:y, 2:z)."""
        return self.coords[j]

    @cached_property
    def radius_sq(self):
        vx, vy, vz = self.coords
        # fixed summation order keeps node radii bit-reproducible
        return (vx * vx + vy * vy) + vz * vz

    @cached_property
    def radius(self):
        return np.sqrt(self.radius_sq)

    @cached_property
    def bracket_sq(self):
        """<v>^2 = 1 + |v|^2 at every node."""
        return 1.0 + self.radius_sq

    @cached_property
    def _bracket_weights(self):
        return {}

    def bracket_weight(self, ell):
        """<v>^ell at every node, computed once per grid and exponent and
        shared read-only."""
        w = self._bracket_weights.get(ell)
        if w is None:
            w = np.ones(self.shape) if ell == 0 else self.bracket_sq ** (0.5 * ell)
            w.flags.writeable = False
            w = self._bracket_weights.setdefault(ell, w)
        return w

    @cached_property
    def unit_vectors(self):
        """(v_x/|v|, v_y/|v|, v_z/|v|); cell centering keeps |v| > 0."""
        r = self.radius
        vx, vy, vz = self.coords
        return vx / r, vy / r, vz / r

    def __repr__(self):
        return f"VelocityGrid(R={self.R}, N={self.N}, h={self.h})"
