"""Summarize or compare benchmark result files, workload by workload.

    python3 bench/compare.py RESULTS.jsonl              # medians and spreads
    python3 bench/compare.py BASE.jsonl NEW.jsonl       # NEW against BASE

Result files are the JSON lines that `bench/run.py --save FILE` appends,
one per run.  For each workload and end-to-end metric the summary gives
the run count, the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json.  The comparison flags a metric whose NEW median is worse
than the BASE median by more than the bound.  When either side's spread
exceeds the bound it reports the metric as unresolved instead, unless
every NEW run reads better than every BASE run.  Traced runs
(--trace 1) are listed metric by metric without a verdict.  The exit code
is 1 when a regression, an incorrect run or a change in the share of
failed operations is found.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")


def load(path):
    """{trace: {workload: {"runs": [...], "metric": [values]}}}."""
    out = {0: defaultdict(lambda: defaultdict(list)),
           1: defaultdict(lambda: defaultdict(list))}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            w = out[run["trace"]][run["workload"]]
            w["runs"].append(run)
            for name, m in run["metrics"].items():
                w[name].append(m["value"])
    return out


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def failed_share(runs):
    return (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))


def summarize(data, spec):
    bad = False
    for name, w in sorted(data[0].items()):
        runs = w["runs"]
        f, a = failed_share(runs)
        incorrect = sum(not r["correct"] for r in runs)
        bad |= incorrect > 0
        print(f"{name}: {len(runs)} runs, seeds {sorted(r['seed'] for r in runs)}, "
              f"failed {f}/{a}, incorrect runs {incorrect}")
        for m in spec["end_to_end"]:
            med, q1, q3, spread = stats(w[m["name"]])
            flag = "" if spread <= m["bound"] / 3 else "  (spread above bound/3)"
            print(f"  {m['name']:12s} median {med:10.4f} {m['unit']:3s} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.3f} "
                  f"bound {m['bound']}{flag}")
    for name, w in sorted(data[1].items()):
        print(f"{name} (traced, {len(w['runs'])} runs, medians):")
        for m in spec["per_layer"]:
            if w[m["name"]]:
                print(f"  {m['name']:36s} {statistics.median(w[m['name']]):14.6g} {m['unit']}")
    return bad


def compare(base, new, spec):
    bad = False
    for name in sorted(set(base[0]) | set(new[0])):
        if name not in base[0] or name not in new[0]:
            print(f"{name}: only in one file, not compared")
            continue
        b, n = base[0][name], new[0][name]
        fb, fn = failed_share(b["runs"]), failed_share(n["runs"])
        if fb[0] * fn[1] != fn[0] * fb[1]:
            print(f"{name}: failed share changed {fb[0]}/{fb[1]} -> {fn[0]}/{fn[1]}")
            bad = True
        if not all(r["correct"] for r in n["runs"]):
            print(f"{name}: NEW has incorrect runs")
            bad = True
        print(f"{name}: base {len(b['runs'])} runs, new {len(n['runs'])} runs")
        for m in spec["end_to_end"]:
            mb, _, _, sb = stats(b[m["name"]])
            mn, _, _, sn = stats(n[m["name"]])
            vb, vn = b[m["name"]], n[m["name"]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (mn - mb) / mb
            all_better = (max(vn) < min(vb)) if sign > 0 else (min(vn) > max(vb))
            if max(sb, sn) > m["bound"]:
                verdict = "better" if all_better else "unresolved (spread above bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                bad = True
            elif worse < -max(sb, sn):
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"  {m['name']:12s} {mb:10.4f} -> {mn:10.4f} {m['unit']:3s} "
                  f"({(mn - mb) / mb:+.1%}, bound {m['bound']:.0%}) {verdict}")
    for name in sorted(set(base[1]) & set(new[1])):
        print(f"{name} (traced medians, base -> new):")
        for m in spec["per_layer"]:
            vb, vn = base[1][name][m["name"]], new[1][name][m["name"]]
            if vb and vn:
                print(f"  {m['name']:36s} {statistics.median(vb):14.6g} -> "
                      f"{statistics.median(vn):14.6g} {m['unit']}")
    return bad


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("files", nargs="+", metavar="FILE")
    args = p.parse_args(argv)
    if len(args.files) > 2:
        p.error("give one file to summarize or two to compare")
    with open(SPEC) as fh:
        spec = json.load(fh)
    data = [load(f) for f in args.files]
    bad = summarize(data[0], spec) if len(data) == 1 else compare(*data, spec)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
