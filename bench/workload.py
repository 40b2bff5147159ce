"""One cold round of one benchmark workload, in a fresh process.

    python3 bench/workload.py --workload NAME --seed N --work DIR [--trace]

The round builds every coefficient set cold, from an empty cache
directory under DIR that is removed afterwards, runs the workload's
suites through landau's public functions, writes the outputs the CLI
writes into DIR/out, and writes DIR/round.json with the median setup and
solve times, the peak memory and the operation counts.  With --trace the
public functions are wrapped (bench/tracer.py), one setup and one solve
run, and the per-layer metrics are added.

The seed reaches the program only as `verify.seed`.
"""

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_CFG = os.path.join(ROOT, "configs", "reference.cfg")

# Every workload starts from configs/reference.cfg (R=8, T=2, kmax=6).
# Per configuration a round makes `setup_repeats` cold builds; the last
# `solve_repeats` of them are each followed by a full solve on fresh
# resources.  The round reports the medians, which keeps one slow build
# or solve on a shared machine from setting the figure.
WORKLOADS = {
    "analyticity-n24": {"N": 24, "gammas": (-1.0,),
                        "suites": ("energy", "smoothing"),
                        "setup_repeats": 9, "solve_repeats": 1},
    "constants-n48": {"N": 48, "gammas": (-1.0,),
                      "suites": ("inequalities",),
                      "setup_repeats": 5, "solve_repeats": 2},
    "coefficients-n64": {"N": 64, "gammas": (-0.5, -1.0, -1.5, -2.0),
                         "suites": ("kernel", "coefficients", "convolution"),
                         "setup_repeats": 2, "solve_repeats": 2},
}


def import_landau():
    """Import landau from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "landau", "__init__.py")):
        raise SystemExit(f"landau sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import landau
    if not os.path.abspath(landau.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported landau from {landau.__file__}, not {SRC}")
    return landau


def workload_config(name, seed, gamma):
    from landau.config import load_config, validate_config

    spec = WORKLOADS[name]
    cfg = dataclasses.replace(
        load_config(REFERENCE_CFG), grid_N=spec["N"], gamma=gamma,
        verify_seed=seed, verify_suites=spec["suites"])
    return validate_config(cfg)


def config_dir(out, name, gamma):
    """Output directory of one configuration of a workload."""
    if len(WORKLOADS[name]["gammas"]) == 1:
        return out
    return os.path.join(out, f"gamma{gamma:g}")


class Ops:
    """Counts the operations a round attempts and the ones that raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            raise


def cold_setup(cfg, work, ops):
    """Coefficients and operator context from an empty cache directory."""
    from landau import suites

    cache = tempfile.mkdtemp(prefix="cache-", dir=work)
    try:
        t0 = time.perf_counter()
        res = suites.RunResources(cfg, cache_dir=cache, log=None)
        ops.run(lambda: res.ctx)
        return res, time.perf_counter() - t0
    finally:
        shutil.rmtree(cache)


def solve(res, out, ops):
    """The configured suites, then every output file the CLI writes."""
    from landau import persist, suites

    cfg = res.cfg
    os.makedirs(out, exist_ok=True)
    reports = []
    for suite in cfg.verify_suites:
        reports.extend(ops.run(suites.run_suite, suite, res))
    written = []
    if "energy" in cfg.verify_suites:
        traj = res.trajectory
        path = os.path.join(out, "energy.csv")
        ops.run(persist.write_energy_csv, path, traj.energy_log, res.fingerprint)
        for t, snap in sorted(traj.snapshots.items()):
            path = os.path.join(out, f"snapshot_t{t:g}.fld")
            ops.run(persist.save_field_snapshot, path, snap, cfg.gamma,
                    traj.state.step_index, t)
            written.append((path, snap))
        for ladder in res.ladders:
            path = os.path.join(out, f"ladder_t{ladder.t:g}.csv")
            ops.run(persist.write_ladder_csv, path, ladder, res.fingerprint)
    for rep in reports:
        path = os.path.join(out, f"report_{rep.suite}.json")
        ops.run(persist.write_report_json, rep, path)
    return written


def run_round(name, seed, work, tracer=None):
    """One cold round; returns the round record (see module docstring)."""
    import numpy as np

    spec = WORKLOADS[name]
    ops = Ops()
    setup_s = solve_s = 0.0
    times = {"setup": [], "solve": []}
    error = None
    try:
        for gamma in spec["gammas"]:
            cfg = workload_config(name, seed, gamma)
            out = config_dir(os.path.join(work, "out"), name, gamma)
            setups, solves = [], []
            repeats = 1 if tracer else spec["setup_repeats"]
            for i in range(repeats):
                res, dt = cold_setup(cfg, work, ops)
                setups.append(dt)
                if repeats - i <= (1 if tracer else spec["solve_repeats"]):
                    t0 = time.perf_counter()
                    written = solve(res, out, ops)
                    solves.append(time.perf_counter() - t0)
                res = None  # free this build before the next one
            setup_s += statistics.median(setups)
            solve_s += statistics.median(solves)
            times["setup"].append(setups)
            times["solve"].append(solves)
            # raw copies for the bit-exact snapshot round-trip check
            for path, snap in written:
                np.save(path[:-len(".fld")] + ".npy", snap.values)
            written = None
    except Exception as exc:  # a failed operation ends the round
        error = f"{type(exc).__name__}: {exc}"
    record = {
        "workload": name, "seed": seed, "setup_s": setup_s, "solve_s": solve_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ops.attempted, "failed": ops.failed, "error": error,
        "times": times,
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["spans"] = tracer.summary()
    return record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    import_landau()
    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        from tracer import Tracer
        tracer = Tracer().install()
    os.makedirs(args.work, exist_ok=True)
    record = run_round(args.workload, args.seed, args.work, tracer)
    with open(os.path.join(args.work, "round.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return 0 if record["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main())
