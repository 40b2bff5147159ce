"""Command-line entry point.

    landau <cmd> --config <path> [--suite <name>] [--out <dir>]

Commands: coeffs (build + self-check), evolve (snapshots + energy CSV),
ladder (ladder CSVs at the configured times), verify (JSON report per
suite), report (merged markdown summary of the reports in the out dir).
Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 suite failure.
A non-empty LANDAU_CACHE environment variable overrides io.cache_dir.
"""

import argparse
import datetime
import json
import os
import sys

from . import persist, verify
from .config import fingerprint, load_config
from .errors import ConfigError, LandauError
from .suites import RunResources, run_suites

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SUITE = 4


def _build_parser():
    p = argparse.ArgumentParser(
        prog="landau",
        description="numerical laboratory for the linearized Landau collision "
                    "operator with soft potentials")
    p.add_argument("command",
                   choices=("coeffs", "evolve", "ladder", "verify", "report"))
    p.add_argument("--config", required=True, help="path to a run config file")
    p.add_argument("--suite", default=None,
                   help="run a single verification suite (verify command)")
    p.add_argument("--out", default=None, help="override io.out_dir")
    return p


def _timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _prepare(args):
    cfg = load_config(args.config)
    cache_dir = os.environ.get("LANDAU_CACHE") or cfg.io_cache_dir
    if not cache_dir:
        raise ConfigError("io.cache_dir must name a directory "
                          "(or set LANDAU_CACHE)")
    out_dir = args.out or cfg.io_out_dir
    os.makedirs(out_dir, exist_ok=True)
    res = RunResources(cfg, cache_dir=cache_dir, log=print)
    return cfg, res, out_dir


def cmd_coeffs(args):
    cfg, res, out_dir = _prepare(args)
    coeffs = res.coeffs
    rep = verify.check_coefficient_bounds(coeffs, res.fingerprint)
    path = os.path.join(out_dir, "coeffs_selfcheck.json")
    persist.write_report_json(rep, path, _timestamp())
    print(f"coefficient self-check written to {path}")
    return EXIT_OK if rep.passed else EXIT_SUITE


def cmd_evolve(args):
    cfg, res, out_dir = _prepare(args)
    result = res.trajectory
    persist.write_energy_csv(os.path.join(out_dir, "energy.csv"),
                             result.energy_log, res.fingerprint)
    for t, snap in sorted(result.snapshots.items()):
        path = os.path.join(out_dir, f"snapshot_t{t:g}.fld")
        persist.save_field_snapshot(path, snap, cfg.gamma,
                                    result.state.step_index, t)
    print(f"energy log and {len(result.snapshots)} snapshots written to {out_dir}")
    return EXIT_OK


def cmd_ladder(args):
    cfg, res, out_dir = _prepare(args)
    for ladder in res.ladders:
        path = os.path.join(out_dir, f"ladder_t{ladder.t:g}.csv")
        persist.write_ladder_csv(path, ladder, res.fingerprint)
    print(f"{len(res.ladders)} ladder CSVs written to {out_dir}")
    return EXIT_OK


def cmd_verify(args):
    cfg, res, out_dir = _prepare(args)
    names = (args.suite,) if args.suite else cfg.verify_suites
    reports = run_suites(names, res)
    all_ok = True
    for rep in reports:
        path = os.path.join(out_dir, f"report_{rep.suite}.json")
        persist.write_report_json(rep, path, _timestamp())
        status = "pass" if rep.passed else "FAIL"
        print(f"suite {rep.suite}: {status} ({path})")
        all_ok = all_ok and rep.passed
    return EXIT_OK if all_ok else EXIT_SUITE


def cmd_report(args):
    cfg, res, out_dir = _prepare(args)
    rows = []
    constants = []
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("report_") and name.endswith(".json")):
            continue
        with open(os.path.join(out_dir, name)) as fh:
            doc = json.load(fh)
        for c in doc.get("checks", []):
            rows.append((doc["suite"], c["id"], c["value"], c["verdict"]))
        for k in doc.get("constants", []):
            constants.append((doc["suite"], k["name"], k["value"],
                              k.get("stability")))
    lines = ["# verification summary", "",
             f"config fingerprint: `{res.fingerprint}`", ""]
    def fmt(x):
        return f"{x:.6g}" if isinstance(x, (int, float)) else "-"

    if constants:
        lines += ["## measured constants", "",
                  "| suite | constant | value | refinement change |",
                  "|---|---|---|---|"]
        for suite, cname, value, stab in constants:
            lines.append(f"| {suite} | {cname} | {fmt(value)} | {fmt(stab)} |")
        lines.append("")
    if rows:
        lines += ["## checks", "", "| suite | check | value | verdict |",
                  "|---|---|---|---|"]
        for suite, cid, value, verdict in rows:
            lines.append(f"| {suite} | {cid} | {fmt(value)} | {verdict} |")
        lines.append("")
    path = os.path.join(out_dir, "summary.md")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    print(f"summary written to {path}")
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = {
        "coeffs": cmd_coeffs,
        "evolve": cmd_evolve,
        "ladder": cmd_ladder,
        "verify": cmd_verify,
        "report": cmd_report,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LandauError as exc:
        print(f"numerical failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
