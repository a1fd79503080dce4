#!/usr/bin/env python3
"""Build swft_e2e, run one workload, print one JSON result line.

Run from the repository root:

    python3 bench/e2e/run.py --workload fig3_cold [--seed N] [--seconds T] [--trace 0|1]
    python3 bench/e2e/run.py --smoke [--binary PATH]

The first form builds the benchmark package (bench/e2e/CMakeLists.txt) into
$CARGO_TARGET_DIR/e2e (default .bench_build/e2e), runs the workload in a fresh
swft_e2e process and prints, as its last stdout line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of the traced
pass (--trace 1). For seed 0 the result digest must also equal the one pinned
in digests.json. The exit status is 0 only for a correct run.

--smoke runs the tiny version of every workload, traced, and checks that each
metric BENCHMARK.json names is printed with its unit and that every digest
matches digests.json's smoke entry. It is the package's tier1 ctest.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170
# Environment knobs that would change what the workloads compute or how.
SCRUBBED_ENV = ("SWFT_SCALE", "SWFT_CACHE_DIR", "SWFT_RESULTS_DIR", "SWFT_FORCE_SCALAR")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "e2e")


def build(out):
    """Configure and build swft_e2e; returns the binary path (exits on failure)."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries in the checkout
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "swft_e2e", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            log("run.py: build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "swft_e2e")


def run_binary(binary, workload, seed, seconds, work, trace_file=None, smoke=False):
    """Run one workload in a fresh process; returns (exit code, parsed JSON or None)."""
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--work-dir", work]
    if trace_file:
        cmd += ["--trace", trace_file]
    if smoke:
        cmd.append("--smoke")
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"run.py: {workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 1, None


def digest_ok(result, pinned):
    if pinned is not None and result["digest"] != pinned:
        log(f"run.py: {result['workload']} digest {result['digest']} != pinned {pinned}")
        return False
    return True


def smoke(binary):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    pinned = load_json(os.path.join(HERE, "digests.json"))["smoke"]
    work = os.path.join(os.path.dirname(os.path.abspath(binary)), "smoke")
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        t0 = time.monotonic()
        rc, res = run_binary(binary, name, 0, 0, work,
                             trace_file=os.path.join(work, name + ".trace.json"), smoke=True)
        took = time.monotonic() - t0
        if res is None or rc != 0 or res["failed"] != 0:
            log(f"smoke {name}: FAILED (exit {rc})")
            ok = False
            continue
        missing = []
        for section, key in (("end_to_end", "metrics"), ("per_layer", "per_layer")):
            for m in spec[section]:
                got = res[key].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    missing.append(m["name"])
        if missing:
            log(f"smoke {name}: metrics missing or with another unit: {', '.join(missing)}")
            ok = False
        if not digest_ok(res, pinned.get(name)):
            ok = False
        log(f"smoke {name}: digest {res['digest']}, {res['attempted']} ops, {took:.2f} s")
    log("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this swft_e2e instead of building one")
    args = ap.parse_args()

    out = build_dir()
    binary = args.binary or build(out)
    if args.smoke:
        return smoke(binary)
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    work = os.path.join(out, "work")
    trace_file = None
    if args.trace:
        trace_file = os.path.join(out, f"trace-{args.workload}.json")
    rc, res = run_binary(binary, args.workload, args.seed, args.seconds, work, trace_file)
    if res is None:
        return 1
    correct = rc == 0 and res["failed"] == 0
    if args.seed == 0:
        correct = digest_ok(res, load_json(os.path.join(HERE, "digests.json"))["default"]
                            .get(args.workload)) and correct
    failed = res["failed"]
    if not correct and failed == 0:
        failed = res["attempted"]  # a pinned-digest mismatch fails every point
    metrics = res["per_layer"] if args.trace else res["metrics"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
