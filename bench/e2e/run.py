#!/usr/bin/env python3
"""End-to-end benchmark of run_mpc: builds bench_e2e, runs it, prints JSON.

One closed loop with a single caller: every child process makes one public
run_mpc call (single-threaded), and only one child runs at a time.

One workload for a fixed time, the form BENCHMARK.json names:

    python3 bench/e2e/run.py --workload sync-crisp --seed 1 --seconds 30 --trace 0

  --trace 0 runs reps 0, 1, ... until --seconds is used up and reports the
  end-to-end metrics as medians over the reps. Before every rep a fresh
  process times a fixed reference job (bench_e2e ref), and run_wall_ref is
  the rep's run_mpc wall time divided by it. --trace 1 runs rep 0 timed,
  then the traced replica and the standalone layer runs, and reports the
  per-layer metrics. The last stdout line is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

A full set, written to a file for compare.py:

    python3 bench/e2e/run.py --seed 1 --out set.json

  runs the workloads round-robin for 16 rounds, one rep of each per round
  and the start workload rotating each round, then one traced process per
  workload, and prints every metric with its unit.

--smoke swaps in n = 4 / 5 versions of the workloads and runs one round.
A set exits 0 only when every run passed its checks; a single workload
reports that in "correct" and exits 0 whenever it printed its result.
"""
import argparse
import fcntl
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
DELTA = 1000  # ticks per Δ, as in bench_e2e.cpp
CHILD_TIMEOUT_S = 170

# Fields of a run fixed by its (seed, rep) alone. A traced replica must
# reproduce them exactly; so must every rep of a synchronous workload, whose
# delays are all exactly Δ.
COUNTS = ("finish_tick", "end_tick", "msgs", "bits", "events", "outputs", "finish", "cs")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind):
    return {m["name"]: m["unit"] for m in spec()[kind]}


def build():
    """Configures once, then brings bench_e2e up to date; returns its path."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
            sh(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        sh(["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs])
    return BUILD / "bench_e2e"


def sh(cmd):
    subprocess.run(cmd, stdout=sys.stderr, check=True)


def child(exe, mode, workload, seed, smoke, rep=None):
    cmd = [str(exe), mode, "--workload", workload, "--seed", str(seed)]
    if rep is not None:
        cmd += ["--rep", str(rep)]
    if smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S).stdout
    return json.loads(out.strip().splitlines()[-1])


def timed_rep(exe, workload, seed, smoke, rep):
    """One rep, preceded by the reference job that gauges the host's speed."""
    ref = json.loads(subprocess.run([str(exe), "ref"], stdout=subprocess.PIPE, text=True,
                                    check=True, timeout=CHILD_TIMEOUT_S).stdout)
    r = child(exe, "run", workload, seed, smoke, rep)
    r.update(ref, rep=rep)
    return r


def e2e_metrics(reps):
    med = statistics.median
    return {
        "run_wall_ref": med(r["wall_s"] / r["ref_s"] for r in reps),
        "setup_s": med(s for r in reps for s in r["setup_s"]),
        "finish_delta": med(r["finish_tick"] / DELTA for r in reps),
        "honest_msgs": med(r["msgs"] for r in reps),
        "honest_mbits": med(r["bits"] / 1e6 for r in reps),
        "peak_rss_mb": med(r["rss_mb"] for r in reps),
    }


def rep_errors(workload, reps):
    return [f"{workload}: rep {r['rep']}: {r['why']}" for r in reps if not r["ok"]]


def determinism_errors(workload, reps):
    """Reps of a synchronous workload must agree on every count, and every
    reference job on its checksum."""
    keys = ("ref_sum",) + (COUNTS if reps[0]["sync"] else ())
    return [f"{workload}: rep {r['rep']} {k} differs from rep {reps[0]['rep']}"
            for r in reps[1:] for k in keys if r[k] != reps[0][k]]


def traced(exe, workload, seed, smoke, rep0):
    """Per-layer metrics from the traced process, checked against rep 0."""
    tr = child(exe, "trace", workload, seed, smoke)
    errors = [] if tr["ok"] else [f"{workload}: traced replica failed: {tr['why']}"]
    errors += [f"{workload}: traced replica {k} {tr['replica'][k]} != run_mpc {rep0[k]}"
               for k in COUNTS if tr["replica"][k] != rep0[k]]
    m = dict(tr["metrics"])
    m["sim.events_per_s"] = m["sim.events"] / rep0["wall_s"]
    traced_s = m["core.construct_s"] + m["core.loop_s"] + m["core.teardown_s"]
    m["trace.overhead_pct"] = 100.0 * (traced_s - rep0["wall_s"]) / rep0["wall_s"]
    return m, errors


def with_units(values, unit_of):
    missing = set(unit_of) - set(values)
    if missing:
        raise RuntimeError(f"bench_e2e reported no value for {sorted(missing)}")
    return {k: {"value": values[k], "unit": unit_of[k]} for k in unit_of}


def one_workload(args, exe):
    if args.trace:
        rep0 = timed_rep(exe, args.workload, args.seed, args.smoke, 0)
        metrics, errors = traced(exe, args.workload, args.seed, args.smoke, rep0)
        attempted, failed = 2, int(not rep0["ok"]) + int(bool(errors))
        errors += rep_errors(args.workload, [rep0])
        metrics = with_units(metrics, units("per_layer"))
    else:
        deadline = time.monotonic() + args.seconds
        reps = []
        while True:
            t0 = time.monotonic()
            reps.append(timed_rep(exe, args.workload, args.seed, args.smoke, len(reps)))
            if time.monotonic() + (time.monotonic() - t0) > deadline:
                break
        errors = rep_errors(args.workload, reps)
        attempted, failed = len(reps), len(errors)
        errors += determinism_errors(args.workload, reps)
        metrics = with_units(e2e_metrics(reps), units("end_to_end"))
    for e in errors:
        print(e, file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def full_set(args, exe):
    workloads = [w["name"] for w in spec()["workloads"]]
    rounds = 1 if args.smoke else 16
    reps = {w: [] for w in workloads}
    for r in range(rounds):
        k = r % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            reps[w].append(timed_rep(exe, w, args.seed, args.smoke, r))
            print(f"round {r} {w}: {reps[w][-1]['wall_s']:.3f} s", file=sys.stderr)
    e2e_unit, layer_unit = units("end_to_end"), units("per_layer")
    doc = {"seed": args.seed, "smoke": args.smoke, "rounds": rounds,
           "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                    "system": platform.system()},
           "workloads": {}}
    errors = []
    for w in workloads:
        failed = rep_errors(w, reps[w])
        errors += failed + determinism_errors(w, reps[w])
        layer, trace_errors = traced(exe, w, args.seed, args.smoke, reps[w][0])
        errors += trace_errors
        doc["workloads"][w] = {
            "reps": reps[w],
            "fail_rate": len(failed) / len(reps[w]),
            "replica_matches": not trace_errors,
            "end_to_end": with_units(e2e_metrics(reps[w]), e2e_unit),
            "per_layer": with_units(layer, layer_unit),
        }
    doc["errors"] = errors
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")

    for w, d in doc["workloads"].items():
        print(f"== {w} ({len(d['reps'])} reps; end-to-end values are medians)")
        for name, m in d["end_to_end"].items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
        print(f"  {'fail_rate':32s} {d['fail_rate']:>16.6g} failed/attempted")
        for name, m in d["per_layer"].items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    for e in errors:
        print("ERROR", e)
    print(f"wrote {args.out}")
    return not errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="run a full round-robin set and write it here")
    ap.add_argument("--smoke", action="store_true", help="n = 4 / 5 workloads, one round")
    args = ap.parse_args()
    if bool(args.out) == bool(args.workload):
        ap.error("give either --workload or --out")
    try:
        exe = build()
        if args.out:
            return 0 if full_set(args, exe) else 1
        result = one_workload(args, exe)
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
