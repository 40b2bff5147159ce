"""The benchmark under bench/ drives landau through its public names and
wraps some of them from outside (bench/tracer.py).  This test makes a
rename or a changed call shape fail here rather than in a benchmark run."""

import dataclasses
import importlib.util
import os

import numpy as np

from landau import cli, evolution, kernel, persist
from landau.config import canonical_text, load_config, validate_config
from landau.field import random_field
from landau.suites import RunResources, run_suites

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(REPO, "bench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_names_resolve(tmp_path):
    from landau import operator

    original = kernel.tabulate_fft_kernels
    tracer = _load_bench("tracer").Tracer().install()  # resolves every traced name
    try:
        cfg = validate_config(dataclasses.replace(
            load_config(os.path.join(REPO, "configs", "reference.cfg")),
            grid_N=16, f0_bandlimit=5))
        # the benchmark hands each round an empty directory as cache_dir
        cache = tmp_path / "cache"
        cache.mkdir()
        res = RunResources(cfg, cache_dir=str(cache), log=None)
        f = random_field(res.grid, 0, bandlimit=5)
        operator.apply_L2(f, res.ctx.engine, res.coeffs)
        b_comps = kernel.tabulate_fft_kernels(res.grid, res.params, pad=2).b_comps
        # evolution.rk4_steps counts the spans of evolution.step, one per
        # propagated segment
        zero = evolution.SourceModel.zero(res.grid)
        traj = evolution.evolve(f, evolution.PropagatedSystem(res.ctx, zero), 0.05)
    finally:
        tracer.uninstall()
    assert kernel.tabulate_fft_kernels is original
    assert b_comps.shape == (3, 32, 32, 32) and np.isfinite(b_comps).all()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    assert calls["kernel.build"] == 1
    # the pad-2 call above only: make_context streams its pad-1 tables
    # (kernel.KernelTableStream) inside operator.engine_init
    assert calls["kernel.tables"] == 1
    assert calls["kernel.crosscheck"] == 1
    assert calls["operator.engine_init"] == 1  # the context's only
    # the direct call, then one per application of L (spectral radius, steps)
    assert calls["operator.apply_L2"] == 1 + calls["operator.apply_L"]
    assert calls["evolution.evolve"] == 1
    assert traj.state.step_index > 1
    assert calls["evolution.step"] == traj.state.step_index
    assert calls["operator.fft_forward"] >= 4
    assert os.listdir(cache) == []  # every build is cold; nothing is written


def test_benchmark_writes_the_files_verify_writes(tmp_path):
    # bench/README.md: a round "writes the outputs the CLI writes"
    workload = _load_bench("workload")
    suites = workload.WORKLOADS["analyticity-n24"]["suites"]
    cfg = validate_config(dataclasses.replace(
        load_config(os.path.join(REPO, "configs", "reference.cfg")),
        grid_N=16, f0_bandlimit=5, verify_suites=suites))
    bench_out, cli_out = tmp_path / "bench", tmp_path / "cli"
    workload.solve(RunResources(cfg, log=None), str(bench_out), workload.Ops())
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(canonical_text(cfg))
    # the file names are pinned here, not the verdicts at N=16
    assert cli.main(["verify", "--config", str(cfg_path),
                     "--out", str(cli_out)]) in (0, 4)
    names = sorted(os.listdir(bench_out))
    assert names == sorted(os.listdir(cli_out))
    assert "energy.csv" in names and "report_smoothing.json" in names


def test_report_ids_the_benchmark_reads(tmp_path):
    # bench/checks.py reads one check and five constants from the written
    # reports, through its own readers; a renamed or deleted id fails here
    checks = _load_bench("checks")
    cfg = validate_config(dataclasses.replace(
        load_config(os.path.join(REPO, "configs", "reference.cfg")),
        grid_N=16, f0_bandlimit=5))
    res = RunResources(cfg, log=None)
    for rep in run_suites(("inequalities", "energy", "smoothing"), res):
        persist.write_report_json(rep, str(tmp_path / f"report_{rep.suite}.json"), "")

    def read(suite):
        return checks.read_report(str(tmp_path / f"report_{suite}.json"))

    read_ids = [checks.report_check_value(read("energy"), "residual_dt_slope"),
                checks.report_constant(read("smoothing"), "C"),
                checks.report_constant(read("coercivity"), "C1"),
                *(checks.report_constant(read("bilinear"), n) for n in ("C2", "C3", "C4"))]
    assert all(np.isfinite(read_ids))
