#!/usr/bin/env python3
"""Compare benchmark sets written by run.py --out, metric by metric.

    python3 bench/e2e/compare.py A.json B.json
    python3 bench/e2e/compare.py A1.json A2.json -- B1.json B2.json

A is the base and B the candidate; reps are pooled per side. For every
end-to-end metric of BENCHMARK.json and every workload, one row gives each
side's median and quartiles over its reps, the change of B's median against
A's (positive = worse), A's spread (quartile distance over median), the share
of (seed, rep) pairs B wins, and a verdict against the metric's bound:

  ok          B's median is not worse than A's by more than the bound;
  regressed   it is worse by more than the bound;
  unresolved  A's spread is wider than the bound, so the rows cannot tell,
              unless every B rep beats every A rep.

Sets of the same seed must also agree exactly on everything that does not
depend on the host: each rep's outputs, ticks, msgs, bits and events, and the
traced per-layer counts. Exit status 1 on a regression, a failed rep or a
mismatch.
"""
import json
import statistics
import sys
from collections import defaultdict

from run import COUNTS, e2e_metrics, spec

HOST_UNITS = {"s", "ms", "1/s", "%"}  # per-layer metrics that are host timings


def rep_value(name, r):
    return e2e_metrics([r])[name]


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def row(metric, a, b, pairs):
    lower = metric["better"] == "lower"
    qa, qb = quartiles(a), quartiles(b)
    change = (qb[1] - qa[1]) / qa[1] * (1 if lower else -1)
    spread = (qa[2] - qa[0]) / qa[1]
    wins = sum((y < x) if lower else (y > x) for x, y in pairs)
    b_always_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if spread > metric["bound"] and not b_always_better:
        verdict = "unresolved"
    elif change > metric["bound"]:
        verdict = "regressed"
    else:
        verdict = "ok"
    return qa, qb, change, spread, f"{wins}/{len(pairs)}", verdict


def load(paths):
    sets = [json.load(open(p)) for p in paths]
    reps, traces = defaultdict(list), defaultdict(list)
    for s in sets:
        for w, d in s["workloads"].items():
            reps[w] += [dict(r, seed=s["seed"]) for r in d["reps"]]
            traces[(w, s["seed"])].append(d["per_layer"])
    return sets, reps, traces


def main(argv):
    if "--" in argv:
        cut = argv.index("--")
        a_paths, b_paths = argv[:cut], argv[cut + 1:]
    elif len(argv) == 2:
        a_paths, b_paths = argv[:1], argv[1:]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    a_sets, a_reps, a_traces = load(a_paths)
    b_sets, b_reps, b_traces = load(b_paths)
    problems = [e for s in a_sets + b_sets for e in s["errors"]]
    mismatches = []

    print(f"{'workload':12s} {'metric':13s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s}"
          f" {'change':>8s} {'spread':>7s} {'bound':>6s} {'B wins':>7s}  verdict")
    fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    for w in a_reps:
        first = {}
        for r in a_reps[w]:
            first.setdefault((r["seed"], r["rep"]), r)
        matched = [(first[(y["seed"], y["rep"])], y) for y in b_reps.get(w, [])
                   if (y["seed"], y["rep"]) in first]
        for x, y in matched:
            mismatches += [f"{w}: seed {y['seed']} rep {y['rep']}: {k} differs between sets"
                           for k in COUNTS if x[k] != y[k]]
        for metric in spec()["end_to_end"]:
            name = metric["name"]
            a = [rep_value(name, r) for r in a_reps[w]]
            b = [rep_value(name, r) for r in b_reps.get(w, [])]
            if not b:
                continue
            pairs = [(rep_value(name, x), rep_value(name, y)) for x, y in matched]
            qa, qb, change, spread, wins, verdict = row(metric, a, b, pairs)
            print(f"{w:12s} {name:13s} {fmt(qa):>34s} {fmt(qb):>34s} {change:+8.2%} {spread:7.2%}"
                  f" {metric['bound']:6.0%} {wins:>7s}  {verdict}")
            if verdict == "regressed":
                problems.append(f"{w}: {name} regressed by {change:.2%}")

    for key, a_layers in a_traces.items():
        for layers in a_layers[1:] + b_traces.get(key, []):
            mismatches += [f"{key[0]}: traced {k} {v['value']} != {a_layers[0][k]['value']}"
                           for k, v in layers.items()
                           if v["unit"] not in HOST_UNITS and v["value"] != a_layers[0][k]["value"]]
    for p in problems + mismatches:
        print("PROBLEM", p)
    print(f"counts that must repeat for the same seed: "
          f"{f'{len(mismatches)} differ' if mismatches else 'identical'}")
    return 1 if problems or mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
