"""Self-tests of the benchmark: every output check passes on real outputs
of each workload (default seed) and fails on a deliberately perturbed
copy, and traced runs repeat their counts exactly.

    python3 -m pytest -q bench/test_bench.py      # about two minutes
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workload as wl  # noqa: E402

wl.import_landau()

from landau.field import ScalarField, a_norm_sq, inner_product, random_field  # noqa: E402
from landau.kernel import (KernelParams, QuadratureSpec, abar_profiles_at,  # noqa: E402
                           cell_average_radial_power, tabulate_fft_kernels)
from landau.operator import apply_L1, apply_L2  # noqa: E402

SEED = 42


def _round(name, tmp_path_factory):
    work = str(tmp_path_factory.mktemp(name))
    record = wl.run_round(name, SEED, work)
    assert record["error"] is None and record["failed"] == 0
    cfgs = [wl.workload_config(name, SEED, g) for g in wl.WORKLOADS[name]["gammas"]]
    return work, cfgs


def _all_ok(results):
    return [c["id"] for c in results if not c["ok"]]


# ---------------------------------------------------------------------------
# analyticity-n24
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def analyticity(tmp_path_factory):
    work, cfgs = _round("analyticity-n24", tmp_path_factory)
    res = checks.resources(cfgs[0], work)
    times = {0.5, 1.0, 2.0} | {t + s * checks.CENTRAL_DELTA
                               for t in (0.5, 1.0, 2.0) for s in (-1, 1)}
    return work, cfgs, res, checks.dop853_reference(res, times)


def test_analyticity_checks_pass(analyticity):
    work, cfgs, _, _ = analyticity
    results = checks.check_workload("analyticity-n24", cfgs, work, SEED)
    assert len(results) == 15 and not _all_ok(results)
    assert [c["id"] for c in results if not c["gated"]] == ["energy_log_lff_nonnegative"]


def test_snapshot_check_fails_on_perturbed_snapshot(analyticity):
    work, _, _, ref = analyticity
    snaps = {t: np.load(os.path.join(work, "out", f"snapshot_t{t:g}.npy"))
             for t in (0.5, 1.0, 2.0)}
    assert not _all_ok(checks.snapshot_checks(snaps, ref))
    snaps[1.0] = snaps[1.0] * (1.0 + 1e-6)
    assert _all_ok(checks.snapshot_checks(snaps, ref)) == ["snapshot_t1_vs_dop853"]


def test_ladder_check_fails_on_perturbed_norm(analyticity):
    work, _, res, ref = analyticity
    hdr, rows = checks.read_csv(os.path.join(work, "out", "ladder_t0.5.csv"))
    norm1 = rows[1, hdr.index("norm_l2")]
    vol = res.grid.cell_volume
    assert not _all_ok(checks.ladder_depth1_checks({0.5: norm1}, ref, vol))
    assert _all_ok(checks.ladder_depth1_checks({0.5: norm1 * (1 + 1e-4)}, ref, vol))


def test_energy_checks_fail_on_perturbed_values(analyticity):
    work, _, _, _ = analyticity
    hdr, rows = checks.read_csv(os.path.join(work, "out", "energy.csv"))
    lff = rows[:, hdr.index("lff")].copy()
    assert not _all_ok(checks.energy_log_checks(lff))
    lff[len(lff) // 2] = -1e-12
    assert _all_ok(checks.energy_log_checks(lff))
    assert not _all_ok(checks.slope_check(3.98))
    for slope in (3.4, 4.6, math.nan):
        assert _all_ok(checks.slope_check(slope))


def test_energy_row_check_fails_on_perturbed_row(analyticity):
    work, _, res, _ = analyticity
    hdr, log = checks.read_csv(os.path.join(work, "out", "energy.csv"))
    cols = [hdr.index(c) for c in ("l2sq", "gf", "lff")]
    rows = {row[0]: row[cols] for row in log}
    snaps = {t: np.load(os.path.join(work, "out", f"snapshot_t{t:g}.npy"))
             for t in (0.5, 1.0, 2.0)}
    model = res.source_model()
    args = (lambda v: res.ctx.apply(ScalarField(res.grid, v)).values,
            lambda t: model.tau_derivative(0, t) * model.phi.values,
            res.grid.cell_volume)
    assert not _all_ok(checks.energy_row_checks(rows, snaps, *args))
    for col in range(3):
        bad = dict(rows)
        bad[1.0] = rows[1.0].copy()
        bad[1.0][col] *= 1.0 + 1e-7
        assert _all_ok(checks.energy_row_checks(bad, snaps, *args)) == [
            "energy_row_t1_vs_recomputed"]
    del rows[2.0]
    assert _all_ok(checks.energy_row_checks(rows, snaps, *args)) == [
        "energy_row_t2_vs_recomputed"]


def test_positivity_check_fails_on_bad_fit(analyticity):
    a_k = [np.array([1.0, 0.5, 0.25])]
    assert not _all_ok(checks.positivity_checks(0.3, a_k))
    assert _all_ok(checks.positivity_checks(math.inf, a_k))
    assert _all_ok(checks.positivity_checks(0.3, [np.array([1.0, 0.0])]))
    assert _all_ok(checks.positivity_checks(0.3, [np.array([1.0, math.nan])]))


def test_roundtrip_check_fails_on_altered_file(analyticity, tmp_path):
    work, cfgs, _, _ = analyticity
    fld = os.path.join(work, "out", "snapshot_t2.fld")
    raw = os.path.join(work, "out", "snapshot_t2.npy")
    assert not _all_ok(checks.roundtrip_checks({2.0: (fld, raw)}, cfgs[0].gamma))
    bad = str(tmp_path / "bad.fld")
    shutil.copy(fld, bad)
    with open(bad, "r+b") as fh:   # flip the last byte of the last value
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 1]))
    assert _all_ok(checks.roundtrip_checks({2.0: (bad, raw)}, cfgs[0].gamma))
    assert _all_ok(checks.roundtrip_checks({1.0: (fld, raw)}, cfgs[0].gamma))


# ---------------------------------------------------------------------------
# constants-n48
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def constants(tmp_path_factory):
    work, cfgs = _round("constants-n48", tmp_path_factory)
    res = checks.resources(cfgs[0], work)
    fields = [random_field(res.grid, SEED + i, 10, 1.25) for i in range(2)]
    return work, cfgs, res, fields


def test_constants_checks_pass(constants):
    work, cfgs, _, _ = constants
    results = checks.check_workload("constants-n48", cfgs, work, SEED)
    assert len(results) == 7 and not _all_ok(results)


def test_direct_summation_check_fails_on_perturbed_L2(constants):
    _, cfgs, res, fields = constants
    coeffs, engine = res.coeffs, res.ctx.engine
    nodes = np.array([[24, 24, 24], [20, 26, 23]])
    avg = cell_average_radial_power(cfgs[0].gamma + 2.0, res.grid.h)

    def l2(f):
        return apply_L2(f, engine, coeffs)

    assert not _all_ok(checks.l2_direct_checks(l2, coeffs, fields, nodes, avg))
    scaled = lambda f: 1.0000001 * l2(f)  # noqa: E731
    assert _all_ok(checks.l2_direct_checks(scaled, coeffs, fields, nodes, avg))
    # a kernel with the wrong origin cell
    assert _all_ok(checks.l2_direct_checks(l2, coeffs, fields, nodes, 1.01 * avg))


def test_symmetry_and_norm_checks_fail_on_perturbed_operator(constants):
    _, _, res, fields = constants
    coeffs = res.coeffs
    l1 = lambda f: apply_L1(f, coeffs)  # noqa: E731
    assert not _all_ok(checks.l1_symmetry_checks(l1, inner_product, *fields))
    drift = lambda f: l1(f) + ScalarField(f.grid, 1e-3 * np.roll(f.values, 1, axis=2))  # noqa: E731
    assert _all_ok(checks.l1_symmetry_checks(drift, inner_product, *fields))

    norm = lambda f: a_norm_sq(f, coeffs)  # noqa: E731
    args = (l1, inner_product, coeffs.c2, fields)
    assert not _all_ok(checks.a_norm_identity_checks(norm, *args))
    assert _all_ok(checks.a_norm_identity_checks(lambda f: norm(f) * (1 + 1e-9), *args))


def test_constant_checks_fail_on_bad_constants():
    good = {"C1": 0.4, "C2": 1.0, "C3": 0.2, "C4": 0.2}
    assert not _all_ok(checks.constant_checks(good))
    for name, bad in (("C1", 0.0), ("C1", -0.1), ("C2", math.inf), ("C3", math.nan),
                      ("C4", 0.0)):
        assert _all_ok(checks.constant_checks({**good, name: bad}))


# ---------------------------------------------------------------------------
# coefficients-n64
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def coefficients(tmp_path_factory):
    return _round("coefficients-n64", tmp_path_factory)


def test_coefficients_checks_pass(coefficients):
    work, cfgs = coefficients
    results = checks.check_workload("coefficients-n64", cfgs, work, SEED)
    assert len(results) == 12 and not _all_ok(results)


@pytest.mark.parametrize("gamma", [-0.5, -1.0, -2.0, -2.9])
def test_abar_origin_check_fails_on_perturbed_profile(gamma):
    prof = abar_profiles_at([0.0], KernelParams(gamma), QuadratureSpec())
    assert not _all_ok(checks.abar_origin_checks(prof, gamma))
    assert _all_ok(checks.abar_origin_checks([p * (1 + 1e-8) for p in prof], gamma))


def test_b_table_check_fails_on_perturbed_table(coefficients):
    _, cfgs = coefficients
    cfg = cfgs[1]
    from landau.grid import VelocityGrid

    grid = VelocityGrid(R=cfg.grid_R, N=32)
    tables = tabulate_fft_kernels(grid, KernelParams(cfg.gamma), pad=1)
    idx = np.arange(1, grid.N ** 3, 7)
    b = tables.b_comps
    assert not _all_ok(checks.b_table_checks(b, grid, cfg.gamma, 1, idx))
    assert _all_ok(checks.b_table_checks(b * (1 + 1e-12), grid, cfg.gamma, 1, idx))
    swapped = b[[1, 0, 2]]
    assert _all_ok(checks.b_table_checks(swapped, grid, cfg.gamma, 1, idx))


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_tracer_self_time_and_uninstall():
    import tracer as tr
    from landau import field

    clock = iter(range(100)).__next__
    t = tr.Tracer(clock=clock)
    inner = t.wrap("inner", lambda: None)
    outer = t.wrap("outer", lambda: inner())
    outer()   # outer 0..3, inner 1..2
    summ = t.summary()
    assert summ["outer"] == {"calls": 1, "inclusive_s": 3, "self_s": 2}
    assert summ["inner"] == {"calls": 1, "inclusive_s": 1, "self_s": 1}

    original = field.inner_product
    t = tr.Tracer().install()
    try:
        from landau import verify
        assert verify.inner_product is field.inner_product is not original
    finally:
        t.uninstall()
    assert field.inner_product is original


def _traced_counts(tmp_path, tag):
    work = str(tmp_path / tag)
    subprocess.run([sys.executable, os.path.join(HERE, "workload.py"),
                    "--workload", "constants-n48", "--seed", str(SEED),
                    "--work", work, "--trace"], check=True, timeout=170)
    with open(os.path.join(work, "round.json")) as fh:
        layers = json.load(fh)["layers"]
    return {k: v[0] for k, v in layers.items() if v[1] in ("count", "bytes")}


def test_two_traced_runs_give_identical_counts(tmp_path):
    first = _traced_counts(tmp_path, "a")
    second = _traced_counts(tmp_path, "b")
    assert first == second
    assert first["operator.apply_L2_calls"] > 0
