#!/usr/bin/env python3
"""Compare two sets of bench_e2e results, metric by metric and workload by workload.

    python3 bench_e2e/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are each a result file written by `bench_e2e --out`, or a
directory of them. Runs of one workload are paired in file-name order, so
name the files of alternating parent/change runs alike (01.json, 02.json...).

For every end-to-end metric in BENCHMARK.json the verdict is:
  better      only with >= 10 pairs: the change wins >= 9/10 of the pairs and
              the medians differ by more than the parent's quartile distance
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the run-to-run spread (quartile distance / median) of either
              side exceeds the bound, and not every change run beats every
              parent run
  unchanged   otherwise
With a single run per side, each side's per-round samples give the spread,
and no gain can be claimed. Per-layer metrics are listed with their relative
change and no verdict. Exits 1 if any metric is worse or any run was
incorrect, else 0.
"""
import argparse
import json
import os
import statistics
import sys


def load_runs(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
             if os.path.isdir(path) else [path])
    runs = {}
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if "workload" not in r:
            sys.exit(f"compare.py: {f} is not a bench_e2e --out result")
        runs.setdefault(r["workload"], []).append(r)
    return runs


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def relative_spread(values):
    med = statistics.median(values)
    return iqr(values) / med if med else 0.0


def side(runs, name):
    """(run values, values that give the spread) of one metric on one side;
    with a single run, its per-round samples give the spread."""
    got = [r["metrics"][name] for r in runs if name in r["metrics"]]
    if not got:
        return None
    values = [m["value"] for m in got]
    return values, (values if len(values) > 1 else got[0].get("samples") or values)


def verdict(parent, change, better, bound):
    """parent/change: side() tuples. Returns (verdict, parent median,
    change median, the larger relative spread)."""
    (p_vals, p_spread), (c_vals, c_spread) = parent, change
    sign = 1 if better == "lower" else -1
    p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    pairs = list(zip(p_vals, c_vals)) if min(len(p_vals), len(c_vals)) >= 10 else []
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    spread = max(relative_spread(p_spread), relative_spread(c_spread))
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > iqr(p_vals):
        return "better", p_med, c_med, spread
    if worse_by > bound:
        return "worse", p_med, c_med, spread
    all_better = all(sign * (c - p) < 0 for c in c_spread for p in p_spread)
    if spread > bound and not all_better:
        return "unresolved", p_med, c_med, spread
    return "unchanged", p_med, c_med, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as fh:
        bench = json.load(fh)
    parent, change = load_runs(args.parent), load_runs(args.change)

    status = 0
    for name, runs in (("parent", parent), ("change", change)):
        for wl, rs in runs.items():
            bad = [r for r in rs if not r["correct"]]
            if bad:
                print(f"{name} {wl}: {len(bad)} of {len(rs)} runs incorrect")
                status = 1

    print(f"{'workload':14} {'metric':32} {'parent':>12} {'change':>12} {'delta':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for wl in sorted(set(parent) & set(change)):
        for m in bench["end_to_end"]:
            p, c = side(parent[wl], m["name"]), side(change[wl], m["name"])
            if not p or not c:
                continue
            v, p_med, c_med, spread = verdict(p, c, m["better"], m["bound"])
            delta = (c_med - p_med) / p_med if p_med else 0.0
            print(f"{wl:14} {m['name']:32} {p_med:12.6g} {c_med:12.6g} {delta:+8.2%} "
                  f"{spread:7.3f} {m['bound']:6.2f}  {v}")
            if v == "worse":
                status = 1
        for m in bench["per_layer"]:
            p, c = side(parent[wl], m["name"]), side(change[wl], m["name"])
            if not p or not c:
                continue
            p_med, c_med = statistics.median(p[0]), statistics.median(c[0])
            delta = f"{(c_med - p_med) / p_med:+8.2%}" if p_med else f"{'':>8}"
            print(f"{wl:14} {m['name']:32} {p_med:12.6g} {c_med:12.6g} {delta} "
                  f"{'':7} {'':6}  -")
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print("workloads on one side only: " + ", ".join(missing))
    return status


if __name__ == "__main__":
    sys.exit(main())
