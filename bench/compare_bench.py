#!/usr/bin/env python3
"""Diff two BENCH_*.json perf-trajectory files and fail on regressions.

Usage:
  compare_bench.py BASELINE.json NEW.json [--max-regression 0.25]
                   [--floor SECTION.METRIC=VALUE]... [--pin SECTION.METRIC=VALUE]...
                   [--speedup-regression F] [--include-ns] [--single-core]

Metrics present in BOTH files ("shared metrics") are diffed; metrics new in
NEW.json are listed informationally. What actually *gates* (fails the run)
depends on the metric class, inferred from its name:

  *_delta              deterministic simulator ticks, lower is better.
                       Gated relative to the baseline at --max-regression
                       (default 25%): these are machine-independent, so any
                       movement is a real protocol-logic change.
  *_speedup            kernel-vs-seed ratio, higher is better. Gated ONLY
                       against an absolute --floor (repeatable,
                       e.g. --floor micro_kernels.bank_open_L64_n64_speedup=5),
                       checked on NEW.json even when the baseline lacks the
                       metric. Rationale: ratios are same-machine quotients
                       but still drift hard across CPU generations — the
                       committed PR 2 vs PR 3 reference machines disagree by
                       up to ~65% on inversion-bound ratios with
                       bit-identical code (the Fermat-heavy seed side speeds
                       up far more on newer CPUs than the memory-bound
                       kernel side), so a relative gate tight enough to
                       catch real regressions would flake on hardware alone.
                       Floors are set ~3x below every machine observed so
                       far: they stay quiet across runners yet catch real
                       collapses. For same-machine diffs you can ALSO gate
                       relatively with --speedup-regression (off by
                       default).
  *_ns, *_ms           raw wall-clock, lower is better. Reported but never
                       gated unless --include-ns (same-machine diffs only):
                       the CI runner is not the machine that wrote the
                       committed baseline.
  *_per_sec            raw throughput rates (e.g. sim_events_per_sec_n64),
                       higher is better. Cross-machine like raw wall-clock:
                       reported, gated only with --include-ns. The
                       machine-portable form of a throughput claim is its
                       same-binary *_speedup ratio (e.g.
                       msgplane_mt_n64_speedup), gated with --floor.
  *_hit_rate           cache hit rates in [0, 1], higher is better. Gated
                       relative to the baseline at --max-regression, like
                       deterministic metrics.
  *_threads            configuration, not a result (e.g. msgplane_mt_threads
                       = min(8, hardware threads) of the host that ran the
                       bench). Reported, never gated against the baseline:
                       a 4-core runner against a 2-core baseline is not a
                       regression. --pin still applies if given.

--pin gates a metric in NEW.json on EXACT equality (machine-independent
structural counts, e.g. SBA schedules per sharing: any drift is a protocol
wiring change, not noise).

Multi-thread speedups (`*_mt_*_speedup`) are meaningless on a 1-core host:
the thread pool just adds contention, so the "ratio" records scheduler noise,
not the executor. With --single-core (or when os.cpu_count() == 1, detected
automatically) their floors are downgraded to informational so committed
1-core BENCH_*.json files stop failing — and stop pretending to measure —
them. CI runners are multi-core, so the hard >=2x gate still runs there.

Exit status: 0 if no gated metric regressed or broke a floor/pin, 1 otherwise
(also 1 on missing/malformed input files or a malformed --floor/--pin).
"""

import argparse
import json
import os
import sys


def flatten(doc):
    out = {}
    for section, metrics in doc.items():
        if not isinstance(metrics, dict):
            continue
        for name, value in metrics.items():
            if isinstance(value, (int, float)):
                out[f"{section}.{name}"] = float(value)
    return out


def classify(name):
    """Return (direction, kind): direction +1 = higher-better, -1 = lower-better,
    0 = neither (configuration)."""
    if name.endswith("_threads"):
        return 0, "config"
    if name.endswith("_speedup"):
        return 1, "speedup"
    if name.endswith("_hit_rate"):
        return 1, "deterministic"
    if name.endswith("_per_sec") or "_per_sec_" in name:
        return 1, "raw-time"
    if name.endswith("_ns") or name.endswith("_ms") or "_ms_" in name or "_ns_" in name:
        return -1, "raw-time"
    return -1, "deterministic"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("new")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="allowed fractional regression for deterministic metrics")
    ap.add_argument("--floor", action="append", default=[], metavar="SECTION.METRIC=VALUE",
                    help="absolute minimum for a metric in NEW.json (repeatable); "
                         "the machine-portable gate for *_speedup ratios")
    ap.add_argument("--pin", action="append", default=[], metavar="SECTION.METRIC=VALUE",
                    help="exact required value for a metric in NEW.json (repeatable); "
                         "for machine-independent structural counts")
    ap.add_argument("--single-core", action="store_true",
                    help="downgrade *_mt_*_speedup floors to informational "
                         "(auto-enabled when os.cpu_count() == 1)")
    ap.add_argument("--speedup-regression", type=float, default=None,
                    help="also gate *_speedup metrics relative to the baseline "
                         "(same-machine diffs only; off by default — see docstring)")
    ap.add_argument("--include-ns", action="store_true",
                    help="also gate raw *_ns/*_ms timings (same-machine diffs only)")
    args = ap.parse_args()

    def parse_specs(specs, flag):
        out = {}
        for spec in specs:
            name, sep, value = spec.partition("=")
            try:
                if not sep:
                    raise ValueError("missing '='")
                out[name] = float(value)
            except ValueError as e:
                print(f"compare_bench: bad {flag} '{spec}': {e}", file=sys.stderr)
                return None
        return out

    floors = parse_specs(args.floor, "--floor")
    pins = parse_specs(args.pin, "--pin")
    if floors is None or pins is None:
        return 1

    single_core = args.single_core or os.cpu_count() == 1
    if single_core:
        print("compare_bench: 1-core host — *_mt_*_speedup floors are informational")

    def mt_metric(name):
        return name.endswith("_speedup") and "_mt_" in name

    try:
        with open(args.baseline) as f:
            base = flatten(json.load(f))
        with open(args.new) as f:
            new = flatten(json.load(f))
    except (OSError, json.JSONDecodeError) as e:
        print(f"compare_bench: cannot load inputs: {e}", file=sys.stderr)
        return 1

    shared = sorted(set(base) & set(new))
    fresh = sorted(set(new) - set(base))
    failures = []

    def floor_verdict(name):
        """Apply an absolute floor / exact pin to NEW's value; None if neither set."""
        if name in pins:
            want = pins[name]
            if new[name] != want:
                failures.append(name)
                return f"PIN MISMATCH (want {want:g})"
            return f"ok (pinned {want:g})"
        if name not in floors:
            return None
        if new[name] < floors[name]:
            if single_core and mt_metric(name):
                return f"below floor {floors[name]:g} (informational: 1-core host)"
            failures.append(name)
            return f"BELOW FLOOR {floors[name]:g}"
        return f"ok (floor {floors[name]:g})"

    print(f"{'metric':52s} {'baseline':>12s} {'new':>12s} {'change':>8s}  verdict")
    for name in shared:
        b, n = base[name], new[name]
        direction, kind = classify(name)
        change = (n - b) / b if b else 0.0
        regressed_by = -direction * change  # movement against the good direction
        if name in pins:
            verdict = floor_verdict(name)
        elif kind == "config":
            verdict = "not gated (configuration)"
        elif kind == "raw-time" and not args.include_ns:
            verdict = "skipped (raw timing; cross-machine)"
        elif kind == "speedup":
            verdict = floor_verdict(name)
            if args.speedup_regression is not None and regressed_by > args.speedup_regression:
                failures.append(name)
                verdict = f"REGRESSED (> {args.speedup_regression:.0%} allowed)"
            elif verdict is None:
                verdict = "not gated (cross-machine ratio; use --floor)"
        else:
            tol = args.max_regression
            if regressed_by > tol:
                failures.append(name)
                verdict = f"REGRESSED (> {tol:.0%} allowed)"
            else:
                verdict = "ok"
        print(f"{name:52s} {b:12.4g} {n:12.4g} {change:+8.1%}  {verdict}")
    for name in fresh:
        verdict = floor_verdict(name) or "(no baseline)"
        print(f"{name:52s} {'-':>12s} {new[name]:12.4g} {'new':>8s}  {verdict}")
    for name in sorted((set(floors) | set(pins)) - set(new)):
        if single_core and mt_metric(name):
            print(f"{name:52s} {'-':>12s} {'absent':>12s} {'':8s}  "
                  "not emitted on a 1-core host (informational)")
            continue
        failures.append(name)
        print(f"{name:52s} {'-':>12s} {'MISSING':>12s} {'':8s}  gated metric absent from NEW")

    if failures:
        print(f"\ncompare_bench: {len(failures)} metric(s) failed: "
              + ", ".join(sorted(set(failures))), file=sys.stderr)
        return 1
    print(f"\ncompare_bench: {len(shared)} shared metric(s) ok, {len(fresh)} new, "
          f"{len(floors)} floor(s) and {len(pins)} pin(s) held.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
