#!/usr/bin/env python3
"""End-to-end benchmark of the proof engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record-dir DIR]

Run from the root of a source checkout. Builds the library, boosting_served
and perfbench_measure from the checkout's sources (Release) into
$CARGO_TARGET_DIR (default .bench_build), measures one workload, prints every
metric with its unit and sample count, and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics. --trace 0 gives
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones from a
separate traced run. --record-dir also saves the full record (host context
included) for perfbench/compare.py. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEASURE_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s has no %s: run from the root of a source checkout" % (ROOT, needed))
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", out, "--target", "perfbench_measure", "-j", jobs]

    def run(cmd):
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    configured = os.path.exists(os.path.join(out, "CMakeCache.txt"))
    # A build tree configured from older build files may not know the
    # target yet: configure again once before giving up.
    if not (configured and run(make)) and not (run(configure) and run(make)):
        fail("build failed in " + out, 1)
    return (os.path.join(out, "perfbench_measure"),
            os.path.join(out, "boosting", "tools", "boosting_served"))


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat; (0, 0) if unreadable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields)
    except (OSError, ValueError):
        return 0, 0


def fmt(v):
    return "%.6g" % v


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="End-to-end benchmark of the proof engine.")
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record-dir", help="also save the full record as JSON here")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    measure, served = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [measure, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--served", served, "--out-dir", out_dir]
    t0 = time.monotonic()
    ticks0 = cpu_ticks()
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench_measure exceeded %d s" % MEASURE_TIMEOUT_S, 1)
    ticks1 = cpu_ticks()
    total = ticks1[1] - ticks0[1]
    # Time the hypervisor ran other guests on this VM's CPUs: the main
    # source of run-to-run noise on a shared host.
    steal_share = (ticks1[0] - ticks0[0]) / total if total > 0 else 0.0
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("perfbench_measure failed with exit code %d" % r.returncode, 1)
    res = json.loads(lines[-1])

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = res["metrics"]
    correct = res["failed"] == 0 and res["attempted"] >= 1
    final = {}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print("perfbench: metric %s missing or in the wrong unit" % m["name"],
                  file=sys.stderr)
            correct = False
            continue
        final[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    host = dict(res["host"])
    host["nproc"] = len(os.sched_getaffinity(0))
    host["git_sha"] = git_sha()
    print("perfbench: workload %s, seed %d, %s run of %s s (%.1f s wall)" % (
        args.workload, args.seed, "traced" if args.trace else "timed",
        fmt(args.seconds), time.monotonic() - t0))
    print("host: " + ", ".join("%s=%s" % (k, host[k]) for k in sorted(host)))
    print("steal during the run: %.1f%% of CPU time" % (100 * steal_share))
    for name in sorted(metrics):
        m = metrics[name]
        if m["applies"]:
            print("  %-40s %14s %-12s n=%d" % (name, fmt(m["value"]), m["unit"], m["samples"]))
        else:
            print("  %-40s %14s %-12s (not exercised by this workload)" % (name, "n/a", m["unit"]))
    print("attempted %d, failed %d%s" % (res["attempted"], res["failed"],
                                          ": " + res["error"] if res["error"] else ""))

    if args.record_dir:
        os.makedirs(args.record_dir, exist_ok=True)
        record = {"host": host, "workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "seconds": args.seconds,
                  "attempted": res["attempted"], "failed": res["failed"],
                  "error": res["error"], "steal_share": steal_share,
                  "metrics": metrics}
        name = "%s-trace%d-seed%d.json" % (args.workload, args.trace, args.seed)
        with open(os.path.join(args.record_dir, name), "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": final}))


if __name__ == "__main__":
    main()
