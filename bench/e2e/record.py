#!/usr/bin/env python3
"""Record the swft_e2e baseline into baseline.json.

Run from the repository root:

    python3 bench/e2e/record.py [--runs 10] [--out bench/e2e/baseline.json]

Makes two independent sets of --runs untraced runs of every workload, each
run with its own seed and the workloads interleaved within a set, then one
traced run per workload at seed 0. For every end-to-end metric it records
each set's median and quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median, and how far the second set's median lies from the
first's, against the bound BENCHMARK.json fixes.
"""
import argparse
import json
import os
import statistics
import sys
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def worse_by(metric, first, second):
    """Relative change of `second` against `first` in the metric's bad direction."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=os.path.join(bench.HERE, "baseline.json"))
    args = ap.parse_args()

    spec = bench.load_json(os.path.join(bench.ROOT, "BENCHMARK.json"))
    with open("/proc/loadavg", encoding="utf-8") as f:
        loadavg = f.read().split()[:3]
    out = bench.build_dir()
    binary = bench.build(out)
    work = os.path.join(out, "work")
    names = [w["name"] for w in spec["workloads"]]
    machine = None
    sets = []
    started = time.time()
    for s in range(2):
        seeds = [1 + s * args.runs + i for i in range(args.runs)]
        values = {n: {m["name"]: [] for m in spec["end_to_end"]} for n in names}
        for seed in seeds:
            for name in names:
                rc, res = bench.run_binary(binary, name, seed, spec["run_seconds"], work)
                if res is None or rc != 0 or res["failed"] != 0:
                    bench.log(f"record: {name} seed {seed} failed")
                    return 1
                machine = res["machine"]
                for m, v in res["metrics"].items():
                    values[name][m].append(v["value"])
                bench.log(f"record: set {s + 1} seed {seed} {name} done "
                          f"({time.time() - started:.0f} s)")
        sets.append({"seeds": seeds,
                     "workloads": {n: {m: summarize(v) for m, v in values[n].items()}
                                   for n in names}})

    agreement = {}
    for n in names:
        agreement[n] = {}
        for m in spec["end_to_end"]:
            a = sets[0]["workloads"][n][m["name"]]
            b = sets[1]["workloads"][n][m["name"]]
            worse = worse_by(m, a["median"], b["median"])
            agreement[n][m["name"]] = {
                "second_worse_by": worse, "bound": m["bound"],
                "within_bound": worse <= m["bound"],
                "spreads_within_third_of_bound": max(a["spread"], b["spread"]) < m["bound"] / 3}

    traced = {}
    status = 0
    for name in names:
        trace_file = os.path.join(out, f"trace-{name}.json")
        rc, res = bench.run_binary(binary, name, 0, spec["run_seconds"], work, trace_file)
        if res is None or rc != 0 or res["failed"] != 0:
            bench.log(f"record: traced {name} failed")
            traced[name] = {"failed": True, "errors": res["errors"] if res else []}
            status = 1
            continue
        traced[name] = {"digest": res["digest"], "metrics": res["metrics"],
                        "per_layer": {k: v["value"] for k, v in res["per_layer"].items()}}

    baseline = {
        "schema": "swft-e2e-baseline-v1",
        "claim": None,
        "command": spec["command"],
        "paths": spec["paths"],
        "run_seconds": spec["run_seconds"],
        "workloads": spec["workloads"],
        "end_to_end": spec["end_to_end"],
        "per_layer": spec["per_layer"],
        "digests": bench.load_json(os.path.join(bench.HERE, "digests.json")),
        "machine": dict(machine or {}, loadavg_at_start=loadavg),
        "recorded_seconds": round(time.time() - started),
        "untraced_sets": sets,
        "agreement": agreement,
        "traced_seed0": traced,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    bench.log(f"record: wrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
