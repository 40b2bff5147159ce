"""Binary file formats, JSON reports and CSV emission.

Coefficient cache layout (little-endian):
    magic "LANDAU-COEF1", u32 N, f64 R, f64 gamma, u8 mu_normalized,
    u32 radial_order, u32 angular_order, then the six abar component
    arrays followed by c1 and c2, each N^3 f64 in flat index order
    (iz*N + iy)*N + ix with ix fastest.

Field snapshot layout:
    magic "LANDAU-FLD1", u32 N, f64 R, f64 gamma, u64 step_index,
    f64 time, then N^3 f64 values in the same index order.

Every file is written through a temporary file beside it, which replaces
it only when complete.
"""

import contextlib
import hashlib
import json
import math
import os
import struct

import numpy as np

from .errors import CacheFormatError
from .field import ScalarField
from .grid import VelocityGrid
from .kernel import SymMatrixField

COEF_MAGIC = b"LANDAU-COEF1"
FIELD_MAGIC = b"LANDAU-FLD1"


@contextlib.contextmanager
def _replacing(path, mode="w"):
    """Write through a temporary file beside `path` that replaces it only
    once complete, so a failed write leaves the previous file and no
    partial one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_array(fh, arr):
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_array(fh, count):
    data = fh.read(8 * count)
    if len(data) != 8 * count:
        raise CacheFormatError("truncated array block")
    return np.frombuffer(data, dtype="<f8", count=count).copy()


def coefficient_cache_path(cache_dir, grid, params, quad):
    key = (
        f"R{grid.R!r}-N{grid.N}-g{params.gamma!r}-mu{int(params.mu_normalized)}"
        f"-q{quad.radial_order}x{quad.angular_order}"
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(cache_dir, f"coef-{digest}.bin")


def save_coefficient_cache(cache_dir, coeffs):
    os.makedirs(cache_dir, exist_ok=True)
    path = coefficient_cache_path(cache_dir, coeffs.grid, coeffs.params, coeffs.quad)
    g, p, q = coeffs.grid, coeffs.params, coeffs.quad
    with _replacing(path, "wb") as fh:
        fh.write(COEF_MAGIC)
        fh.write(struct.pack("<IddBII", g.N, g.R, p.gamma,
                             int(p.mu_normalized), q.radial_order, q.angular_order))
        for c in coeffs.abar.comps:
            _write_array(fh, c)
        _write_array(fh, coeffs.c1)
        _write_array(fh, coeffs.c2)
    return path


def load_coefficient_cache(cache_dir, grid, params, quad):
    """Return the cached (abar, c1, c2) or None; a malformed file or a
    header that does not match the request raises CacheFormatError."""
    path = coefficient_cache_path(cache_dir, grid, params, quad)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        magic = fh.read(len(COEF_MAGIC))
        if magic != COEF_MAGIC:
            raise CacheFormatError(f"bad magic in {path}")
        n, r, gamma, mu_norm, rad, ang = struct.unpack("<IddBII", fh.read(29))
        if (n, r, gamma, bool(mu_norm), rad, ang) != (
            grid.N, grid.R, params.gamma, params.mu_normalized,
            quad.radial_order, quad.angular_order,
        ):
            raise CacheFormatError(f"header of {path} does not match request")
        n3 = n ** 3
        comps = np.stack([_read_array(fh, n3).reshape(grid.shape) for _ in range(6)])
        c1 = _read_array(fh, n3).reshape(grid.shape)
        c2 = _read_array(fh, n3).reshape(grid.shape)
    return SymMatrixField(grid, comps), c1, c2


def save_field_snapshot(path, f, gamma, step_index, time):
    with _replacing(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<IddQd", f.grid.N, f.grid.R, gamma, step_index, time))
        _write_array(fh, f.values)


def load_field_snapshot(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(FIELD_MAGIC))
        if magic != FIELD_MAGIC:
            raise CacheFormatError(f"bad magic in {path}")
        n, r, gamma, step_index, time = struct.unpack("<IddQd", fh.read(36))
        grid = VelocityGrid(R=r, N=n)
        values = _read_array(fh, n ** 3).reshape(grid.shape)
    return ScalarField(grid, values), gamma, step_index, time


# ---------------------------------------------------------------------------
# reports and CSV
# ---------------------------------------------------------------------------

def _json_number(x):
    # JSON has no Infinity/NaN; unbounded tolerances become null
    return float(x) if x is not None and math.isfinite(x) else None


def report_to_dict(report):
    return {
        "suite": report.suite,
        "config_fingerprint": report.config_fingerprint,
        "checks": [
            {"id": c.id, "value": _json_number(c.value), "tol": _json_number(c.tol),
             "verdict": "pass" if c.verdict else "fail"}
            for c in report.checks
        ],
        "constants": [
            {
                "name": k.name,
                "value": _json_number(k.value),
                "ensemble_size": k.ensemble_size,
                "grid_params": k.grid_params,
                "stability": _json_number(k.stability)
                if k.stability is not None else None,
            }
            for k in report.constants
        ],
    }


def write_report_json(report, path, timestamp=None):
    """Serialize a report; the volatile timestamp lives in a separate
    `meta` block so byte comparison of the payload stays meaningful."""
    doc = report_to_dict(report)
    doc["meta"] = {"created": timestamp or ""}
    with _replacing(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def strip_meta(path):
    """Report content without the meta block, for determinism comparison."""
    with open(path) as fh:
        doc = json.load(fh)
    doc.pop("meta", None)
    return json.dumps(doc, indent=2)


def write_energy_csv(path, energy_log, fingerprint):
    with _replacing(path) as fh:
        fh.write(f"# config {fingerprint}\n")
        fh.write("t,l2sq,asq,gf,lff\n")
        for row in energy_log:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def write_ladder_csv(path, ladder, fingerprint):
    with _replacing(path) as fh:
        fh.write(f"# config {fingerprint} t={float(ladder.t)!r}\n")
        fh.write("k,norm_l2,norm_a,a_k,a_k_root\n")
        for k in range(len(ladder.norms_l2)):
            row = (ladder.norms_l2[k], ladder.norms_a[k],
                   ladder.a_k[k], ladder.a_k_root[k])
            fh.write(f"{k}," + ",".join(repr(float(x)) for x in row) + "\n")
