#!/usr/bin/env python3
"""Like-for-like comparison of benchmark records (see README.md).

    python3 rmabench/compare.py spread DIR
    python3 rmabench/compare.py diff BASE_DIR NEW_DIR

Records are the <workload>-seed<n>-trace0.json files run.py writes to
<build>/results/. `spread` prints, per workload and end-to-end metric, the
median and the interquartile range as a share of the median over the runs
in DIR, against the metric's bound in BENCHMARK.json. `diff` compares the
medians of two sets of runs. Both refuse (exit 2) to combine records that
differ in sizes, hardware concurrency, thread budget, SIMD ISA, compiler or
build type; `diff` also needs the same seeds on both sides. Exit 1 means a
spread above its bound (`spread`) or a regression beyond it (`diff`).
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    by_workload = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            rec = json.load(f)
        by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def like_for_like(records):
    """The (sizes, env) every record shares; exits 2 when they differ."""
    keys = {(r["sizes"], json.dumps(r["env"], sort_keys=True)) for r in records}
    if len(keys) > 1:
        print("refusing to compare runs that differ in sizes or environment:")
        for sizes, env in sorted(keys):
            print("  sizes=%s env=%s" % (sizes, env))
        sys.exit(2)
    return keys.pop()


def spec_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def stats(records, name):
    values = [r["metrics"][name]["value"] for r in records]
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q = statistics.quantiles(values, n=4)
    return median, (q[2] - q[0]) / abs(median)


def spread(directory):
    worst = 0
    for workload, records in sorted(load(directory).items()):
        like_for_like(records)
        bad = [r for r in records if not r["correct"]]
        print("%s: %d runs, %d incorrect" % (workload, len(records), len(bad)))
        worst = max(worst, 1 if bad else 0)
        for m in spec_metrics():
            median, iqr = stats(records, m["name"])
            verdict = "ok" if iqr <= m["bound"] else "ABOVE BOUND"
            if m["name"] == "setup_s" and iqr > m["bound"]:
                verdict = "above bound (setup_s spread is not gated)"
            elif iqr > m["bound"]:
                worst = 1
            print("  %-16s median %-14.6g spread %6.2f%%  bound %5.1f%%  %s"
                  % (m["name"], median, 100 * iqr, 100 * m["bound"], verdict))
    return worst


def diff(base_dir, new_dir):
    base, new = load(base_dir), load(new_dir)
    worst = 0
    for workload in sorted(set(base) | set(new)):
        b, n = base.get(workload, []), new.get(workload, [])
        if not b or not n:
            print("%s: missing on one side" % workload)
            worst = max(worst, 2)
            continue
        like_for_like(b + n)
        if sorted(r["seed"] for r in b) != sorted(r["seed"] for r in n):
            print("%s: refusing to compare different seed sets" % workload)
            sys.exit(2)
        print("%s: %d runs per side" % (workload, len(b)))
        for m in spec_metrics():
            mb, iqr_b = stats(b, m["name"])
            mn, _ = stats(n, m["name"])
            change = (mn - mb) / mb if mb else 0.0
            worse = -change if m["better"] == "higher" else change
            if worse > m["bound"]:
                verdict = "REGRESSION"
                worst = max(worst, 1)
            elif iqr_b > m["bound"]:
                verdict = "unresolved (base spread above bound)"
            else:
                verdict = "ok"
            print("  %-16s %-14.6g -> %-14.6g %+7.2f%%  bound %4.1f%%  %s"
                  % (m["name"], mb, mn, 100 * change, 100 * m["bound"],
                     verdict))
    return worst


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "spread":
        sys.exit(spread(sys.argv[2]))
    if len(sys.argv) == 4 and sys.argv[1] == "diff":
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    print(__doc__)
    sys.exit(2)


if __name__ == "__main__":
    main()
