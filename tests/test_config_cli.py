import json
import os

import numpy as np
import pytest

from landau import cli
from landau.config import (fingerprint, load_config, parse_config_text,
                           validate_config, RunConfig)
from landau.errors import ConfigError
from landau import persist
from landau.field import ScalarField
from landau.grid import VelocityGrid

MINIMAL = """
grid.R = 6.0
grid.N = 16
gamma = -1.0
f0.bandlimit = 5
f0.envelope_width = 1.0
source.amplitude = 0.5
time.T = 0.25
time.snapshot_times = 0.125, 0.25
ladder.kmax = 2
ladder.eval_times = 0.125, 0.25
"""


def test_parse_minimal():
    cfg = parse_config_text(MINIMAL)
    assert cfg.grid_N == 16
    assert cfg.gamma == -1.0
    assert cfg.ladder_eval_times == (0.125, 0.25)


def test_gamma_range_rejected():
    with pytest.raises(ConfigError, match="soft potential range"):
        parse_config_text("gamma = 0\n")
    with pytest.raises(ConfigError, match="soft potential range"):
        parse_config_text("gamma = -3.0\n")


def test_kmax_cap_rejected():
    with pytest.raises(ConfigError, match="kmax"):
        parse_config_text("ladder.kmax = 12\n")


def test_eval_times_window():
    with pytest.raises(ConfigError, match="eval_times"):
        parse_config_text("time.T = 1.0\nladder.eval_times = 0.0, 0.5\n")
    with pytest.raises(ConfigError, match="eval_times"):
        parse_config_text("time.T = 1.0\nladder.eval_times = 0.5, 1.5\n")


def test_unknown_key_hard_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("grid.M = 3\n")


def test_parse_error_has_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("gamma = -1\nnot a key value\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("gamma = -1\ngamma = -2\n")


def test_fingerprint_stability():
    c1 = parse_config_text(MINIMAL)
    c2 = parse_config_text(MINIMAL + "\n# comment only\n")
    assert fingerprint(c1) == fingerprint(c2)
    c3 = parse_config_text(MINIMAL.replace("-1.0", "-1.5"))
    assert fingerprint(c1) != fingerprint(c3)


def test_reference_config_ships_and_validates():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = load_config(os.path.join(here, "configs", "reference.cfg"))
    assert cfg.grid_N == 32 and cfg.grid_R == 8.0
    assert cfg.gamma == -1.0
    assert cfg.verify_seed == 42
    assert cfg.ladder_kmax == 6


def test_field_snapshot_roundtrip(tmp_path):
    grid = VelocityGrid(R=6.0, N=16)
    rng = np.random.default_rng(0)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    path = str(tmp_path / "snap.fld")
    persist.save_field_snapshot(path, f, gamma=-1.0, step_index=7, time=0.25)
    g, gamma, step, t = persist.load_field_snapshot(path)
    assert gamma == -1.0 and step == 7 and t == 0.25
    assert np.array_equal(g.values, f.values)
    assert g.grid == grid


def test_coefficient_cache_roundtrip(tmp_path, small_grid, params, quad,
                                     small_coeffs):
    cache = str(tmp_path / "cache")
    persist.save_coefficient_cache(cache, small_coeffs)
    loaded = persist.load_coefficient_cache(cache, small_grid, params, quad)
    assert loaded is not None
    assert np.array_equal(loaded.abar.comps, small_coeffs.abar.comps)
    assert np.array_equal(loaded.c1, small_coeffs.c1)
    assert np.array_equal(loaded.c2, small_coeffs.c2)
    # cache layout on disk: header then raveled f8 arrays
    path = persist.coefficient_cache_path(cache, small_grid, params, quad)
    with open(path, "rb") as fh:
        assert fh.read(12) == b"LANDAU-COEF1"


SMALL_RUN = """
grid.R = 6.0
grid.N = 16
gamma = -1.0
f0.bandlimit = 5
f0.envelope_width = 1.0
source.amplitude = 0.5
source.width = 1.5
time.T = 0.25
time.snapshot_times = 0.125, 0.25
ladder.kmax = 2
ladder.eval_times = 0.125, 0.25
verify.ensemble_size = 64
verify.seed = 42
verify.suites = kernel, coefficients
io.cache_dir = {cache}
io.out_dir = {out}
"""


@pytest.fixture()
def small_run_config(tmp_path):
    cache = tmp_path / "cache"
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_RUN.format(cache=cache, out=out))
    return str(path), str(out), str(cache)


def test_cli_verify_and_exit_codes(small_run_config, capsys):
    cfg_path, out_dir, _ = small_run_config
    rc = cli.main(["verify", "--config", cfg_path])
    assert rc == 0
    for suite in ("kernel", "coefficients"):
        assert os.path.exists(os.path.join(out_dir, f"report_{suite}.json"))
    with open(os.path.join(out_dir, "report_kernel.json")) as fh:
        doc = json.load(fh)
    assert doc["suite"] == "kernel"
    assert all(c["verdict"] == "pass" for c in doc["checks"])
    assert "meta" in doc


def test_cli_single_suite_flag(small_run_config):
    cfg_path, out_dir, _ = small_run_config
    rc = cli.main(["verify", "--config", cfg_path, "--suite", "kernel"])
    assert rc == 0
    assert os.path.exists(os.path.join(out_dir, "report_kernel.json"))
    assert not os.path.exists(os.path.join(out_dir, "report_coefficients.json"))


def test_cli_cache_env_override(small_run_config, tmp_path, monkeypatch):
    cfg_path, _, cache_dir = small_run_config
    override = tmp_path / "env-cache"
    monkeypatch.setenv("LANDAU_CACHE", str(override))
    rc = cli.main(["verify", "--config", cfg_path, "--suite", "coefficients"])
    assert rc == 0
    assert any(name.startswith("coef-") for name in os.listdir(override))
    monkeypatch.setenv("LANDAU_CACHE", "")   # empty means unset
    assert cli.main(["coeffs", "--config", cfg_path]) == 0
    assert any(name.startswith("coef-") for name in os.listdir(cache_dir))


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gamma = 0.5\n")
    rc = cli.main(["verify", "--config", str(bad)])
    assert rc == 2


def test_cli_empty_cache_dir_exit_code(small_run_config, tmp_path,
                                      monkeypatch, capsys):
    cfg_path, _, _ = small_run_config
    with open(cfg_path) as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if not ln.startswith("io.cache_dir")]
    with open(cfg_path, "w") as fh:
        fh.write("\n".join(lines + ["io.cache_dir =", ""]))
    monkeypatch.delenv("LANDAU_CACHE", raising=False)
    assert cli.main(["coeffs", "--config", cfg_path]) == 2
    assert "io.cache_dir" in capsys.readouterr().err
    # a non-empty LANDAU_CACHE still supplies the directory
    override = tmp_path / "env-cache"
    monkeypatch.setenv("LANDAU_CACHE", str(override))
    assert cli.main(["coeffs", "--config", cfg_path]) == 0
    assert any(name.startswith("coef-") for name in os.listdir(override))


def test_cli_missing_config_exit_code(tmp_path):
    rc = cli.main(["verify", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2


def test_cli_evolve_then_ladder_reuses_cache(small_run_config, capsys):
    cfg_path, out_dir, cache_dir = small_run_config
    assert cli.main(["evolve", "--config", cfg_path]) == 0
    captured = capsys.readouterr()
    assert "cache" in captured.out  # first build announces caching
    assert os.path.exists(os.path.join(out_dir, "energy.csv"))
    assert os.path.exists(os.path.join(out_dir, "snapshot_t0.25.fld"))

    assert cli.main(["ladder", "--config", cfg_path]) == 0
    captured = capsys.readouterr()
    assert "cache hit" in captured.out
    ladder_path = os.path.join(out_dir, "ladder_t0.25.csv")
    assert os.path.exists(ladder_path)
    with open(ladder_path) as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "k,norm_l2,norm_a,a_k,a_k_root"
    assert len(lines) == 2 + 3  # header rows + k = 0..2
    # rows are plain parseable floats
    cells = lines[2].split(",")
    assert cells[0] == "0"
    assert all(float(c) >= 0.0 for c in cells[1:])


def test_cli_energy_csv_header(small_run_config):
    cfg_path, out_dir, _ = small_run_config
    assert cli.main(["evolve", "--config", cfg_path]) == 0
    with open(os.path.join(out_dir, "energy.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "t,l2sq,asq,gf,lff"
    assert len(lines) > 10


def test_cli_report_summary(small_run_config):
    cfg_path, out_dir, _ = small_run_config
    assert cli.main(["verify", "--config", cfg_path]) == 0
    assert cli.main(["report", "--config", cfg_path]) == 0
    with open(os.path.join(out_dir, "summary.md")) as fh:
        text = fh.read()
    assert "measured constants" in text
    assert "K_coef" in text


def test_cli_determinism_byte_identical(small_run_config, tmp_path):
    # identical config and seed, two runs into separate out dirs:
    # identical reports modulo the meta block
    cfg_path, _, _ = small_run_config
    outs = [str(tmp_path / "det_a"), str(tmp_path / "det_b")]
    for out in outs:
        assert cli.main(["verify", "--config", cfg_path, "--out", out]) == 0
    for name in ("report_kernel.json", "report_coefficients.json"):
        a = persist.strip_meta(os.path.join(outs[0], name))
        b = persist.strip_meta(os.path.join(outs[1], name))
        assert a == b
