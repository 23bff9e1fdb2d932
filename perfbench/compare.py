#!/usr/bin/env python3
"""Summarize or compare sets of perfbench records (run.py --record-dir DIR).

    python3 perfbench/compare.py DIR            # medians and spreads of one set
    python3 perfbench/compare.py BASE_DIR NEW_DIR   # NEW against BASE

For each workload and end-to-end metric of BENCHMARK.json it prints the median,
the quartiles and the spread (distance between the quartiles as a share of the
median). With one set, a spread above a third of the metric's bound is marked
UNSTEADY and one above the bound (setup_s excepted) fails the run. With two
sets, a median that is worse than BASE's by more than the bound is marked
REGRESSION and fails the run. Records taken on hosts with a different core
count or from a different build type are never compared: the script refuses
and exits with code 3.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(d):
    recs = []
    for p in sorted(glob.glob(os.path.join(d, "*.json"))):
        with open(p) as f:
            recs.append(json.load(f))
    if not recs:
        sys.exit("compare: no records in %s" % d)
    return recs


def refuse_mixed_hosts(sets):
    for key in ("nproc", "build_type"):
        seen = {}
        for d, recs in sets:
            for r in recs:
                seen.setdefault(r["host"][key], d)
        if len(seen) > 1:
            print("compare: REFUSING TO COMPARE records with different %s: %s" % (
                key, ", ".join("%r (in %s)" % kv for kv in sorted(seen.items(), key=str))),
                file=sys.stderr)
            sys.exit(3)


def summary(recs, workload, metric):
    vals = [r["metrics"][metric]["value"] for r in recs
            if r["workload"] == workload and r["trace"] == 0 and metric in r["metrics"]]
    if len(vals) < 2:
        return None
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"n": len(vals), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "failed": sum(r["failed"] for r in recs if r["workload"] == workload)}


def main():
    dirs = sys.argv[1:]
    if len(dirs) not in (1, 2):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = [(d, load(d)) for d in dirs]
    refuse_mixed_hosts(sets)
    bad = False
    for w in [w["name"] for w in spec["workloads"]]:
        steal = ["%.1f%%" % (100 * statistics.median(
            [r.get("steal_share", 0.0) for r in recs if r["workload"] == w] or [0.0]))
            for _, recs in sets]
        print("%s (median host steal: %s)" % (w, ", ".join(steal)))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            s = [summary(recs, w, name) for _, recs in sets]
            if any(x is None for x in s):
                continue
            line = "  %-18s" % name
            for x in s:
                line += "  med %-11.5g q1 %-11.5g q3 %-11.5g spread %6.3f (n=%d, failed %d)" % (
                    x["median"], x["q1"], x["q3"], x["spread"], x["n"], x["failed"])
            if len(s) == 1:
                if s[0]["spread"] > bound and name != "setup_s":
                    line += "  OVER BOUND %.3f" % bound
                    bad = True
                elif s[0]["spread"] > bound / 3:
                    line += "  UNSTEADY (bound/3 = %.3f)" % (bound / 3)
            else:
                base, new = s[0]["median"], s[1]["median"]
                worse = (new - base) / base if m["better"] == "lower" else (base - new) / base
                line += "  change %+.3f" % -worse
                if worse > bound:
                    line += "  REGRESSION (bound %.3f)" % bound
                    bad = True
            print(line)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
