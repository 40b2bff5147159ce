import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landau import cli, kernel
from landau.config import (_SCHEMA, canonical_text, fingerprint, load_config,
                           parse_config_text, validate_config, RunConfig)
from landau.errors import SnapshotFormatError, ConfigError
from landau import persist
from landau.field import ScalarField
from landau.grid import VelocityGrid
from landau.suites import RunResources

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


def test_empty_or_repeated_lists_rejected():
    # a run without a suite verifies nothing; a repeated suite overwrites its
    # report, and a repeated ladder time writes ladder_t<t>.csv twice and
    # counts its rungs twice in the factorial fit
    with pytest.raises(ConfigError, match="verify.suites must name at least one"):
        parse_config_text(MINIMAL + "verify.suites =\n")
    with pytest.raises(ConfigError, match="verify.suites repeats an entry"):
        parse_config_text(MINIMAL + "verify.suites = kernel, energy, kernel\n")
    with pytest.raises(ConfigError, match="ladder.eval_times repeats an entry"):
        parse_config_text(MINIMAL.replace("ladder.eval_times = 0.125, 0.25",
                                          "ladder.eval_times = 0.125, 0.25, 0.125"))


def test_unknown_key_hard_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("grid.M = 3\n")


def test_parse_error_has_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("gamma = -1\nnot a key value\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("gamma = -1\ngamma = -2\n")


def test_non_finite_values_rejected():
    for text in ("grid.R = inf\n", "gamma = nan\n", "time.T = 1e999\n",
                 "gamma = -1\nsource.amplitude = -INF\n",
                 "time.snapshot_times = 0.5, NaN\n"):
        line = text.count("\n")
        with pytest.raises(ConfigError, match=f"line {line}: .* not finite"):
            parse_config_text(text)


# values a config line may carry, for every kind of key: mostly admissible,
# with non-finite and unparseable ones mixed in
_FLOATS = st.one_of(st.floats(0.1, 2.0), st.floats(-2.9, -0.1), st.floats(),
                    st.sampled_from(["nan", "inf", "-inf", "1e999", "x"]))
_VALUES = {
    float: _FLOATS.map(str),
    int: st.sampled_from(["1", "6", "10", "16", "32", "64", "80", "-3", "2.5"]),
    bool: st.sampled_from(["true", "false", "yes", "0", "maybe"]),
    str: st.sampled_from(["gaussian", "blend", "packet", "zero", "random",
                          "out", ""]),
    "float_list": st.lists(_FLOATS.map(str), max_size=3).map(", ".join),
    "str_list": st.lists(st.sampled_from(["kernel", "energy", "bogus"]),
                         max_size=2).map(", ".join),
}
_LINES = st.lists(st.sampled_from(sorted(_SCHEMA)), max_size=5, unique=True).flatmap(
    lambda keys: st.tuples(*(_VALUES[_SCHEMA[k][1]].map(
        lambda v, k=k: f"{k} = {v}") for k in keys)))


@settings(max_examples=150, deadline=None, database=None)
@given(_LINES)
def test_parsed_config_finite_and_canonical(lines):
    try:
        cfg = parse_config_text("\n".join(lines))
    except ConfigError:
        return
    for attr, kind in _SCHEMA.values():
        value = getattr(cfg, attr)
        if kind is float or kind == "float_list":
            assert all(math.isfinite(v) for v in np.atleast_1d(value))
    again = parse_config_text(canonical_text(cfg))
    assert again == cfg
    assert fingerprint(again) == fingerprint(cfg)


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


def test_field_snapshot_wrong_size_refused(tmp_path):
    grid = VelocityGrid(R=6.0, N=16)
    path = tmp_path / "snap.fld"
    persist.save_field_snapshot(str(path), ScalarField(grid, np.ones(grid.shape)),
                                gamma=-1.0, step_index=7, time=0.25)
    data = path.read_bytes()
    for bad in (data + b"j" * 17, data[:-8]):
        path.write_bytes(bad)
        with pytest.raises(SnapshotFormatError, match="header implies"):
            persist.load_field_snapshot(str(path))


def test_field_snapshot_unsupported_grid_refused(tmp_path):
    # exactly sized for its header, which names a grid VelocityGrid refuses
    path = tmp_path / "snap.fld"
    for n, r in ((8, 6.0), (17, 6.0), (16, 0.0), (16, math.nan)):
        header = persist.FIELD_HEADER.pack(n, r, -1.0, 7, 0.25)
        path.write_bytes(persist.FIELD_MAGIC + header + bytes(8 * n ** 3))
        with pytest.raises(SnapshotFormatError, match="grid this package refuses"):
            persist.load_field_snapshot(str(path))


def _f64_bits(x):
    return struct.pack("<d", x)


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(8, 12).map(lambda k: 2 * k),
       r=st.floats(0.0, exclude_min=True, allow_infinity=False),
       gamma=st.floats(), step=st.integers(0, 2 ** 64 - 1), t=st.floats(),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_field_snapshot_format_property(tmp_path_factory, n, r, gamma, step, t,
                                        seed, data):
    # any header and any bit pattern of values, NaN payloads included,
    # come back bit for bit; a strict prefix or an appended suffix is refused
    grid = VelocityGrid(R=r, N=n)
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, size=grid.shape,
                                                dtype=np.uint64)
    path = tmp_path_factory.mktemp("fld") / "snap.fld"
    persist.save_field_snapshot(str(path), ScalarField(grid, bits.view("<f8")),
                                gamma, step, t)
    field, gamma_back, step_back, t_back = persist.load_field_snapshot(str(path))
    assert field.grid == grid
    assert np.array_equal(field.values.view(np.uint64), bits)
    assert _f64_bits(gamma_back) == _f64_bits(gamma)
    assert _f64_bits(t_back) == _f64_bits(t) and step_back == step
    whole = path.read_bytes()
    cut = data.draw(st.integers(0, len(whole) - 1), label="prefix length")
    suffix = data.draw(st.binary(min_size=1, max_size=64), label="suffix")
    for bad in (whole[:cut], whole + suffix):
        path.write_bytes(bad)
        with pytest.raises(SnapshotFormatError):
            persist.load_field_snapshot(str(path))


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
io.out_dir = {out}
"""


@pytest.fixture()
def small_run_config(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_RUN.format(out=out))
    return str(path), str(out)


def test_cli_verify_and_exit_codes(small_run_config, capsys):
    cfg_path, out_dir = small_run_config
    rc = cli.main(["verify", "--config", cfg_path])
    assert rc == 0
    # neither suite reads the trajectory, so none is written
    assert sorted(os.listdir(out_dir)) == ["report_coefficients.json",
                                           "report_kernel.json"]
    with open(os.path.join(out_dir, "report_kernel.json")) as fh:
        doc = json.load(fh)
    assert doc["suite"] == "kernel"
    assert all(c["verdict"] == "pass" for c in doc["checks"])
    assert "meta" in doc


def test_cli_single_suite_flag(small_run_config):
    cfg_path, out_dir = small_run_config
    rc = cli.main(["verify", "--config", cfg_path, "--suite", "kernel"])
    assert rc == 0
    assert os.path.exists(os.path.join(out_dir, "report_kernel.json"))
    assert not os.path.exists(os.path.join(out_dir, "report_coefficients.json"))


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gamma = 0.5\n")
    rc = cli.main(["verify", "--config", str(bad)])
    assert rc == 2
    # the trajectory step comes from rho(L); the old step knob is refused
    bad.write_text(MINIMAL + "time.safety = 0.4\n")
    assert cli.main(["verify", "--config", str(bad)]) == 2
    assert "unknown key 'time.safety'" in capsys.readouterr().err
    # every run takes the projected random datum and the forcing
    # e^{-rate t} phi, so the selectors of other kinds are refused
    for line in ("f0.kind = random", "f0.orthogonalize = true",
                 "source.orthogonalize = true", "source.tau_kind = exp",
                 "source.tau_omega = 1.0", "source.tau_coeffs = 1.0",
                 # every command builds its coefficients afresh
                 "io.cache_dir = .landau-cache"):
        bad.write_text(MINIMAL + line + "\n")
        assert cli.main(["verify", "--config", str(bad)]) == 2
        key = line.split(" = ")[0]
        assert f"unknown key {key!r}" in capsys.readouterr().err
    for profile in ("packet", "zero"):
        bad.write_text(MINIMAL + f"source.profile = {profile}\n")
        assert cli.main(["verify", "--config", str(bad)]) == 2
        assert "unknown source.profile" in capsys.readouterr().err


def test_cli_c2_failing_crosscheck_exit_code(small_run_config, monkeypatch,
                                             capsys):
    # every build runs the c2 gate: a negated c2 lies about 2 from the
    # convolution route (tolerance 0.5 at N=16)
    cfg_path, _ = small_run_config
    weights = kernel.compute_scalar_weights

    def negated_c2(abar, grid):
        c1, c2 = weights(abar, grid)
        return c1, -c2

    monkeypatch.setattr(kernel, "compute_scalar_weights", negated_c2)
    assert cli.main(["verify", "--config", cfg_path]) == 3
    assert "c2 routes disagree" in capsys.readouterr().err


def test_cli_c2_nan_node_exit_code(small_run_config, monkeypatch, capsys):
    # one NaN node makes the routes' relative difference NaN, which no
    # tolerance admits; before, NaN > tol was False and the build passed
    cfg_path, _ = small_run_config
    weights = kernel.compute_scalar_weights

    def nan_node(abar, grid):
        c1, c2 = weights(abar, grid)
        c2[8, 8, 8] = math.nan
        return c1, c2

    monkeypatch.setattr(kernel, "compute_scalar_weights", nan_node)
    assert cli.main(["verify", "--config", cfg_path]) == 3
    assert "relative L2 difference nan" in capsys.readouterr().err


def test_cli_names_failed_checks_and_non_finite_constants(small_run_config,
                                                          monkeypatch, capsys):
    # a NaN node of abar's transverse eigenvalue: c2 reads only the
    # longitudinal one, so the build passes, and the coefficient suite's
    # positivity check and K_coef both read the NaN
    cfg_path, _ = small_run_config
    abar_field = kernel.compute_abar_field

    def nan_node(grid, params, quad):
        abar = abar_field(grid, params, quad)
        abar.across[8, 8, 8] = math.nan
        return kernel.UniaxialField(grid, abar.along, abar.across)

    monkeypatch.setattr(kernel, "compute_abar_field", nan_node)
    assert cli.main(["verify", "--config", cfg_path]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert any(ln.startswith("suite kernel: pass") for ln in lines)
    assert any(ln.startswith("suite coefficients: FAIL: failed checks abar_psd; "
                             "non-finite constants K_coef (") for ln in lines)


@pytest.mark.parametrize("line", ["grid.R = inf", "time.T = inf",
                                  "source.amplitude = nan", "f0.scale = inf"])
def test_cli_non_finite_config_exit_code(small_run_config, capsys, line):
    # before, grid.R = inf crashed the coefficient build in the eigensolver,
    # time.T = inf crashed the propagation with OverflowError, and a nan
    # amplitude or an inf scale wrote NaN/inf output with exit code 0
    cfg_path, out_dir = small_run_config
    key = line.split(" = ")[0]
    with open(cfg_path) as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if not ln.startswith(key + " ")]
    with open(cfg_path, "w") as fh:
        fh.write("\n".join(lines + [line, ""]))
    for command in ("verify", "report"):
        assert cli.main([command, "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert f"line {len(lines) + 1}:" in err and "not finite" in err
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize("width", ["0", "-1.5"])
def test_cli_source_width_exit_code(small_run_config, capsys, width):
    # before, a zero width ended the propagation in a ZeroDivisionError
    # traceback and a negative one acted as its absolute value
    cfg_path, out_dir = small_run_config
    with open(cfg_path) as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if not ln.startswith("source.width ")]
    with open(cfg_path, "w") as fh:
        fh.write("\n".join(lines + [f"source.width = {width}", ""]))
    for command in ("verify", "report"):
        assert cli.main([command, "--config", cfg_path]) == 2
        assert "source.width must be positive" in capsys.readouterr().err
    assert not os.path.exists(out_dir)


def test_cli_verify_without_suites_exit_code(small_run_config, capsys):
    # before, the run wrote nothing and exited 0
    cfg_path, out_dir = small_run_config
    with open(cfg_path) as fh:
        text = fh.read().replace("verify.suites = kernel, coefficients", "verify.suites =")
    with open(cfg_path, "w") as fh:
        fh.write(text)
    assert cli.main(["verify", "--config", cfg_path]) == 2
    assert "verify.suites must name at least one" in capsys.readouterr().err
    assert not os.path.exists(out_dir)


def test_cli_missing_config_exit_code(tmp_path):
    rc = cli.main(["verify", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2


def test_cli_negative_seed_exit_code(small_run_config, capsys):
    # before, numpy refused the seed with a ValueError traceback as soon as
    # the kernel suite drew its points
    cfg_path, out_dir = small_run_config
    with open(cfg_path) as fh:
        text = fh.read().replace("verify.seed = 42", "verify.seed = -3")
    with open(cfg_path, "w") as fh:
        fh.write(text)
    for command in ("verify", "report"):
        assert cli.main([command, "--config", cfg_path]) == 2
        assert "verify.seed must be >= 0" in capsys.readouterr().err
    assert not os.path.exists(out_dir)


def test_cli_non_utf8_config_exit_code(tmp_path, capsys):
    # before, UnicodeDecodeError escaped load_config as a traceback
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(MINIMAL.encode() + "# r\xe9f\xe9rence\n".encode("latin-1"))
    assert cli.main(["verify", "--config", str(bad)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_out_dir_is_a_file_exit_code(small_run_config, tmp_path, capsys):
    # before, FileExistsError escaped the out dir's creation as a traceback
    cfg_path, _ = small_run_config
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    for out in (taken, taken / "sub"):
        assert cli.main(["verify", "--config", cfg_path, "--out", str(out)]) == 2
        assert "cannot make out dir" in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


def test_cli_report_missing_out_dir_exit_code(small_run_config, capsys):
    # before, report made a mistyped out dir and wrote a summary.md with no
    # rows into it, exit 0
    cfg_path, out_dir = small_run_config
    missing = os.path.join(out_dir, "typo")
    assert cli.main(["report", "--config", cfg_path, "--out", missing]) == 2
    assert missing in capsys.readouterr().err
    assert not os.path.exists(out_dir)


def test_cli_vanishing_forcing_exit_code(small_run_config, capsys):
    # a source width far below the cell leaves the Gaussian zero at every
    # node; before, normalizing it ended in a ZeroDivisionError traceback
    cfg_path, _ = small_run_config
    with open(cfg_path) as fh:
        text = fh.read().replace("source.width = 1.5", "source.width = 0.01")
    with open(cfg_path, "w") as fh:
        fh.write(text)
    assert cli.main(["verify", "--config", cfg_path, "--suite", "energy"]) == 3
    assert "DegenerateRatioError" in capsys.readouterr().err


def test_cli_verify_writes_trajectory(small_run_config, tmp_path, monkeypatch):
    cfg_path, out_dir = small_run_config
    # no run writes outside its out dir; LANDAU_CACHE is not read
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LANDAU_CACHE", str(tmp_path / "env-cache"))
    assert cli.main(["verify", "--config", cfg_path, "--suite", "energy"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["out", "run.cfg"]
    assert sorted(os.listdir(out_dir)) == [
        "energy.csv", "ladder_t0.125.csv", "ladder_t0.25.csv",
        "report_energy.json", "snapshot_t0.125.fld", "snapshot_t0.25.fld"]
    ladder_path = os.path.join(out_dir, "ladder_t0.25.csv")
    with open(ladder_path) as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "k,norm_l2,norm_a,a_k,a_k_root"
    assert len(lines) == 2 + 3  # header rows + k = 0..2
    # rows are plain parseable floats
    cells = lines[2].split(",")
    assert cells[0] == "0"
    assert all(float(c) >= 0.0 for c in cells[1:])


def test_cli_energy_csv_header(small_run_config):
    cfg_path, out_dir = small_run_config
    assert cli.main(["verify", "--config", cfg_path, "--suite", "energy"]) == 0
    with open(os.path.join(out_dir, "energy.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "t,l2sq,asq,gf,lff"
    assert len(lines) > 10


def test_cli_snapshot_headers_carry_own_segment(small_run_config):
    # each snapshot records the index of the segment that ends at its time,
    # the last one the trajectory's segment count
    cfg_path, out_dir = small_run_config
    assert cli.main(["verify", "--config", cfg_path, "--suite", "energy"]) == 0
    headers = [persist.load_field_snapshot(os.path.join(out_dir, f"snapshot_t{t:g}.fld"))
               for t in (0.125, 0.25)]
    assert [h[3] for h in headers] == [0.125, 0.25]
    steps = [h[2] for h in headers]
    assert 0 < steps[0] < steps[1]
    traj = RunResources(load_config(cfg_path), log=None).trajectory
    assert steps[1] == traj.state.step_index
    assert steps == [traj.snapshot_steps[0.125], traj.snapshot_steps[0.25]]


def test_cli_commands_are_verify_and_report(small_run_config, capsys):
    # one verify run writes what the removed coeffs, evolve and ladder wrote
    cfg_path, out_dir = small_run_config
    for command in ("coeffs", "evolve", "ladder"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", cfg_path])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "{verify,report}" in capsys.readouterr().out
    assert not os.path.exists(out_dir)


def test_cli_report_summary(small_run_config):
    cfg_path, out_dir = small_run_config
    assert cli.main(["verify", "--config", cfg_path]) == 0
    assert cli.main(["report", "--config", cfg_path]) == 0
    with open(os.path.join(out_dir, "summary.md")) as fh:
        text = fh.read()
    assert "measured constants" in text
    assert "K_coef" in text


def test_cli_report_refuses_mixed_fingerprints(small_run_config, capsys):
    cfg_path, out_dir = small_run_config
    assert cli.main(["verify", "--config", cfg_path, "--suite", "kernel"]) == 0
    # a report left in the out dir by a run of another configuration
    other = os.path.join(out_dir, "report_kernel.json")
    with open(other) as fh:
        doc = json.load(fh)
    doc["config_fingerprint"] = "0" * len(doc["config_fingerprint"])
    with open(os.path.join(out_dir, "report_other.json"), "w") as fh:
        json.dump(doc, fh)
    assert cli.main(["report", "--config", cfg_path]) == cli.EXIT_STALE_REPORT == 5
    assert "report_other.json" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out_dir, "summary.md"))
    os.remove(os.path.join(out_dir, "report_other.json"))
    assert cli.main(["report", "--config", cfg_path]) == 0


def test_cli_report_refuses_unreadable_reports(small_run_config, capsys):
    # before, a truncated report died on JSONDecodeError and one without a
    # suite on KeyError, both as tracebacks
    cfg_path, out_dir = small_run_config
    assert cli.main(["verify", "--config", cfg_path, "--suite", "kernel"]) == 0
    with open(os.path.join(out_dir, "report_kernel.json")) as fh:
        text = fh.read()
    doc = json.loads(text)
    del doc["suite"]
    for bad in (text[:100], json.dumps(doc), "[]"):
        with open(os.path.join(out_dir, "report_other.json"), "w") as fh:
            fh.write(bad)
        assert cli.main(["report", "--config", cfg_path]) == cli.EXIT_STALE_REPORT
        assert "unreadable report report_other.json" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out_dir, "summary.md"))
    os.remove(os.path.join(out_dir, "report_other.json"))
    # a directory named like a report cannot be opened as one
    os.mkdir(os.path.join(out_dir, "report_other.json"))
    assert cli.main(["report", "--config", cfg_path]) == cli.EXIT_STALE_REPORT
    assert "unreadable report report_other.json" in capsys.readouterr().err
    os.rmdir(os.path.join(out_dir, "report_other.json"))
    assert cli.main(["report", "--config", cfg_path]) == 0


def test_failed_writes_leave_previous_file(tmp_path, monkeypatch):
    grid = VelocityGrid(R=6.0, N=16)
    snap = str(tmp_path / "snapshot.fld")
    persist.save_field_snapshot(snap, ScalarField(grid, np.ones(grid.shape)),
                                -1.0, 3, 0.5)
    energy = str(tmp_path / "energy.csv")
    persist.write_energy_csv(energy, np.ones((2, 5)), "abc")
    before = {p: (tmp_path / p).read_bytes() for p in (snap, energy)}

    def failing(fh, arr):
        fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(persist, "_write_array", failing)
    with pytest.raises(OSError):
        persist.save_field_snapshot(snap, ScalarField(grid, np.zeros(grid.shape)),
                                    -1.0, 4, 1.0)
    with pytest.raises(ValueError):  # fails on its second row
        persist.write_energy_csv(energy, [[0.0] * 5, ["x"] * 5], "abc")
    for p, data in before.items():
        assert (tmp_path / p).read_bytes() == data
    assert sorted(os.listdir(tmp_path)) == ["energy.csv", "snapshot.fld"]
    loaded, _, step, _ = persist.load_field_snapshot(snap)
    assert step == 3 and np.all(loaded.values == 1.0)

    # summary.md: `landau report` writes it through the same replacement
    run = tmp_path / "run"
    run.mkdir()
    cfg_path = run / "run.cfg"
    cfg_path.write_text(MINIMAL + f"io.out_dir = {run}\n")
    doc = {"suite": "kernel",
           "config_fingerprint": fingerprint(load_config(str(cfg_path))),
           "checks": [{"id": "a", "value": 1.0, "verdict": "pass"}],
           "constants": []}
    (run / "report_kernel.json").write_text(json.dumps(doc))
    assert cli.main(["report", "--config", str(cfg_path)]) == 0
    summary = (run / "summary.md").read_bytes()
    doc["checks"].append({"id": "b", "value": 2.0, "verdict": "pass"})
    (run / "report_kernel.json").write_text(json.dumps(doc))

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        cli.main(["report", "--config", str(cfg_path)])
    assert (run / "summary.md").read_bytes() == summary
    assert sorted(os.listdir(run)) == ["report_kernel.json", "run.cfg",
                                       "summary.md"]


def test_cli_determinism_byte_identical(small_run_config, tmp_path):
    # identical config and seed, two runs into separate out dirs:
    # identical reports modulo the meta block
    cfg_path, _ = small_run_config
    outs = [str(tmp_path / "det_a"), str(tmp_path / "det_b")]
    for out in outs:
        assert cli.main(["verify", "--config", cfg_path, "--out", out]) == 0
    for name in ("report_kernel.json", "report_coefficients.json"):
        a = persist.strip_meta(os.path.join(outs[0], name))
        b = persist.strip_meta(os.path.join(outs[1], name))
        assert a == b
