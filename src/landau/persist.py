"""Binary file formats, JSON reports and CSV emission.

Field snapshot layout (little-endian):
    magic "LANDAU-FLD1", u32 N, f64 R, f64 gamma, u64 step_index,
    f64 time, then N^3 f64 values in flat index order
    (iz*N + iy)*N + ix with ix fastest.

Every file is written through a temporary file beside it, which replaces
it only when complete.
"""

import contextlib
import json
import math
import os
import struct

import numpy as np

from .errors import SnapshotFormatError
from .field import ScalarField
from .grid import VelocityGrid

FIELD_MAGIC = b"LANDAU-FLD1"
FIELD_HEADER = struct.Struct("<IddQd")


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


def save_field_snapshot(path, f, gamma, step_index, time):
    with _replacing(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(FIELD_HEADER.pack(f.grid.N, f.grid.R, gamma, step_index, time))
        _write_array(fh, f.values)


def load_field_snapshot(path):
    """Return (field, gamma, step_index, time); a file whose magic is wrong,
    whose size is not the one its header implies or whose header names a
    grid VelocityGrid refuses raises SnapshotFormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = len(FIELD_MAGIC) + FIELD_HEADER.size
    if data[:len(FIELD_MAGIC)] != FIELD_MAGIC:
        raise SnapshotFormatError(f"bad magic in {path}")
    if len(data) < start:
        raise SnapshotFormatError(f"truncated header in {path}")
    n, r, gamma, step_index, time = FIELD_HEADER.unpack_from(data, len(FIELD_MAGIC))
    if len(data) != start + 8 * n ** 3:
        raise SnapshotFormatError(f"{path} holds {len(data)} bytes; its header "
                                  f"implies {start + 8 * n ** 3}")
    try:
        grid = VelocityGrid(R=r, N=n)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path} names a grid this package refuses: "
                                  f"{exc}") from exc
    values = np.frombuffer(data, dtype="<f8", offset=start).reshape(grid.shape)
    return ScalarField(grid, values.copy()), gamma, step_index, time


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
