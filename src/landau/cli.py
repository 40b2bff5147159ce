"""Command-line entry point.

    landau <cmd> --config <path> [--suite <name>] [--out <dir>]

Commands: verify (a JSON report per suite; when the energy or smoothing
suite ran, also the trajectory it read: energy.csv, snapshot_t<t>.fld and
ladder_t<t>.csv at the configured times), report (merged markdown summary
of the reports in the out dir).
Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 suite failure,
5 report refused: a report_*.json in the out dir was written under another
config fingerprint (stale reports are never merged).
Commands write only into the out dir and build the coefficients afresh.
"""

import argparse
import datetime
import json
import os
import sys

from . import persist
from .config import load_config
from .errors import ConfigError, LandauError
from .suites import RunResources, run_suites

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SUITE = 4
EXIT_STALE_REPORT = 5


def _build_parser():
    p = argparse.ArgumentParser(
        prog="landau",
        description="numerical laboratory for the linearized Landau collision "
                    "operator with soft potentials")
    p.add_argument("command", choices=("verify", "report"))
    p.add_argument("--config", required=True, help="path to a run config file")
    p.add_argument("--suite", default=None,
                   help="run a single verification suite (verify command)")
    p.add_argument("--out", default=None, help="override io.out_dir")
    return p


def _timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _prepare(args):
    cfg = load_config(args.config)
    out_dir = args.out or cfg.io_out_dir
    os.makedirs(out_dir, exist_ok=True)
    return cfg, RunResources(cfg, log=print), out_dir


def _write_trajectory(res, out_dir):
    """The energy log, snapshots and ladders the energy and smoothing
    suites read; each snapshot header names the segment ending at it."""
    traj = res.trajectory
    persist.write_energy_csv(os.path.join(out_dir, "energy.csv"),
                             traj.energy_log, res.fingerprint)
    for t, snap in sorted(traj.snapshots.items()):
        persist.save_field_snapshot(os.path.join(out_dir, f"snapshot_t{t:g}.fld"),
                                    snap, res.cfg.gamma, traj.snapshot_steps[t], t)
    for ladder in res.ladders:
        persist.write_ladder_csv(os.path.join(out_dir, f"ladder_t{ladder.t:g}.csv"),
                                 ladder, res.fingerprint)
    print(f"energy log, {len(traj.snapshots)} snapshots and {len(res.ladders)} "
          f"ladder CSVs written to {out_dir}")


def cmd_verify(args):
    cfg, res, out_dir = _prepare(args)
    names = (args.suite,) if args.suite else cfg.verify_suites
    reports = run_suites(names, res)
    if {"energy", "smoothing"} & set(names):
        _write_trajectory(res, out_dir)
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
        if doc.get("config_fingerprint") != res.fingerprint:
            print(f"stale report {name}: fingerprint {doc.get('config_fingerprint')!r}"
                  f" is not the config's {res.fingerprint!r}", file=sys.stderr)
            return EXIT_STALE_REPORT
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
    with persist._replacing(path) as fh:
        fh.write("\n".join(lines))
    print(f"summary written to {path}")
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = {
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
