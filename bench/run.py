"""landau benchmark: cold coefficient builds, the analyticity certificate and
the measured constants, end to end and per layer.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--save FILE]

Each round of a workload runs in a fresh process (bench/workload.py) and
builds its coefficients cold.  Rounds repeat while another round fits in
--seconds; every run makes at least one.  The end-to-end metrics are the
medians over the rounds.  The outputs of the first round are checked by
bench/checks.py, outside the timed process; later rounds must write the
same bytes.  With --trace 1 one more round runs with the public functions
wrapped, and the per-layer metrics are printed instead; its outputs must
equal the untraced ones too.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
Without --workload every workload runs and the metric names carry a
"<workload>/" prefix.  --save appends the result to a JSON-lines file for
bench/compare.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workload as wl  # noqa: E402

SPEC = os.path.join(ROOT, "BENCHMARK.json")
CHILD_TIMEOUT_S = 170


def spawn_round(name, seed, work, trace):
    """Run one round in a fresh interpreter; returns its record."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload",
           name, "--seed", str(seed), "--work", work]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    path = os.path.join(work, "round.json")
    if not os.path.exists(path):
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{name}: round process exited with {proc.returncode} "
                         "without a result")
    with open(path) as fh:
        record = json.load(fh)
    record["wall_s"] = wall
    if record["error"]:
        sys.stderr.write(f"{name}: round failed: {record['error']}\n")
    return record


def output_digest(work):
    """sha256 over the round's output files (names and bytes)."""
    h = hashlib.sha256()
    out = os.path.join(work, "out")
    for base, dirs, files in sorted(os.walk(out)):
        dirs.sort()
        for f in sorted(files):
            path = os.path.join(base, f)
            h.update(os.path.relpath(path, out).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def suite_verdicts(work):
    """(passed count, failed check ids) of the program's own suite checks
    in the round's reports."""
    passed, failed = 0, []
    for base, _, files in sorted(os.walk(os.path.join(work, "out"))):
        for f in sorted(files):
            if f.startswith("report_") and f.endswith(".json"):
                with open(os.path.join(base, f)) as fh:
                    for c in json.load(fh)["checks"]:
                        if c["verdict"] == "pass":
                            passed += 1
                        else:
                            failed.append(c["id"])
    return passed, failed


def run_workload(name, seed, seconds, trace):
    """All rounds of one workload; returns (result dict, check list)."""
    import checks

    wl.import_landau()
    run_dir = os.path.join(OUT, f"run-{os.getpid()}-{name}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        rounds, started = [], time.perf_counter()
        while True:
            work = os.path.join(run_dir, f"round{len(rounds)}")
            rounds.append(spawn_round(name, seed, work, trace=False))
            elapsed = time.perf_counter() - started
            if rounds[-1]["error"] or elapsed + rounds[-1]["wall_s"] > seconds:
                break
        first = os.path.join(run_dir, "round0")
        results = []
        if not rounds[0]["error"]:
            cfgs = [wl.workload_config(name, seed, g)
                    for g in wl.WORKLOADS[name]["gammas"]]
            results = checks.check_workload(name, cfgs, first, seed)
            digest = output_digest(first)
            same = all(output_digest(os.path.join(run_dir, f"round{i}")) == digest
                       for i in range(1, len(rounds)) if not rounds[i]["error"])
            results.append(checks.check("outputs_identical_across_rounds",
                                        len(rounds), 0, same))
        passed, failed = suite_verdicts(first)
        sys.stderr.write(f"{name}: {len(rounds)} round(s); program suite checks "
                         f"{passed} passed, {len(failed)} failed {failed}\n")
        traced = None
        if trace and not rounds[0]["error"]:
            work = os.path.join(run_dir, "traced")
            traced = spawn_round(name, seed, work, trace=True)
            same = not traced["error"] and output_digest(work) == digest
            results.append(checks.check("traced_outputs_identical", 0, 0, same))
            with open(os.path.join(OUT, f"trace-{name}-seed{seed}.json"), "w") as fh:
                json.dump(traced["spans"], fh, indent=1, sort_keys=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ok_rounds = [r for r in rounds if not r["error"]] or rounds
    med = {k: statistics.median(r[k] for r in ok_rounds)
           for k in ("setup_s", "solve_s", "peak_rss_mb")}
    all_runs = rounds + ([traced] if traced else [])
    result = {
        "correct": bool(results) and all(c["ok"] for c in results if c["gated"]),
        "attempted": sum(r["attempted"] for r in all_runs),
        "failed": sum(r["failed"] for r in all_runs),
    }
    if traced is None:
        result["metrics"] = {"setup_s": (med["setup_s"], "s"),
                             "solve_s": (med["solve_s"], "s"),
                             "peak_rss_mb": (med["peak_rss_mb"], "MB")}
    else:
        layers = {k: tuple(v) for k, v in traced["layers"].items()}
        layers["trace.overhead_s"] = (
            traced["setup_s"] + traced["solve_s"] - med["setup_s"] - med["solve_s"], "s")
        result["metrics"] = layers
    return result, results


def main(argv=None):
    with open(SPEC) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="append the result to this JSON-lines file")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "landau", "__init__.py")):
        print(f"landau sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, results = run_workload(name, args.seed, args.seconds, args.trace)
        for c in results:
            if not c["ok"]:
                what = "CHECK FAILED" if c["gated"] else "ungated check failed"
                print(f"{name}: {what} {c['id']}: {c['value']:.6g} "
                      f"(tolerance {c['tol']:.3g})", file=sys.stderr)
        metrics = {}
        for metric, unit in wanted.items():
            value, got_unit = result["metrics"][metric]
            if got_unit != unit:
                raise SystemExit(f"{metric}: unit {got_unit} is not {unit}")
            metrics[metric] = {"value": value, "unit": unit}
            print(f"{name} {metric} = {value:.6g} {unit}")
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} checks={sum(c['ok'] for c in results)}/"
              f"{len(results)} passed")
        if args.save:
            os.makedirs(os.path.dirname(os.path.abspath(args.save)), exist_ok=True)
            with open(args.save, "a") as fh:
                fh.write(json.dumps({"workload": name, "seed": args.seed,
                                     "trace": args.trace, "correct": result["correct"],
                                     "attempted": result["attempted"],
                                     "failed": result["failed"],
                                     "metrics": metrics}) + "\n")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = "" if args.workload else f"{name}/"
        total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
