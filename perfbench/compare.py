#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or summarise one.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Both files are written by collect.py. For every workload and end-to-end
metric it prints each side's median and quartiles (statistics.quantiles,
n=4) and the spread (quartile distance over the median). With two sets it
gives a verdict, following the benchmark's own bounds (BENCHMARK.json):

  better       the new median beats the base median by more than the base's
               quartile distance, and the new side wins at least 9 in 10
               pairs (runs paired by seed; ties count for neither side)
  worse        the new median is worse than the base median by more than
               the metric's bound
  unresolved   neither, and the spread of either side is wider than the
               bound, unless every new run beats every base run
  within bound neither, with both spreads inside the bound

With one set it flags each spread against its bound instead. The exit
status is 1 when any verdict is "worse" (or, for one set, any spread
other than setup_s exceeds its bound).
"""

import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if "result" not in rec or rec.get("trace", 0):
                continue
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def values(recs, metric):
    return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in recs if metric in r["result"]["metrics"]}


def summary(vals):
    xs = sorted(vals)
    if len(xs) >= 2:
        q1, med, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = med = q3 = xs[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return q1, med, q3, spread


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(base, new, m):
    bq1, bmed, bq3, bspread = summary(base.values())
    nq1, nmed, nq3, nspread = summary(new.values())
    bound, d = m["bound"], m["better"]
    worse_by = (nmed - bmed) if d == "lower" else (bmed - nmed)
    seeds = sorted(set(base) & set(new))
    pairs = list(zip([base[s] for s in seeds], [new[s] for s in seeds])) or list(
        zip(sorted(base.values()), sorted(new.values())))
    wins = sum(1 for b, n in pairs if better(n, b, d))
    gain = -worse_by
    if gain > (bq3 - bq1) and pairs and wins >= 0.9 * len(pairs):
        return "better"
    if bmed and worse_by > bound * abs(bmed):
        return "worse"
    if max(bspread, nspread) > bound and not all(better(n, b, d) for n in new.values() for b in base.values()):
        return "unresolved"
    return "within bound"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open("BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    base = load(sys.argv[1])
    new = load(sys.argv[2]) if len(sys.argv) == 3 else None
    bad = False
    for wl in sorted(base):
        print("== %s" % wl)
        for m in metrics:
            b = values(base[wl], m["name"])
            if not b:
                continue
            bq1, bmed, bq3, bs = summary(b.values())
            line = "%-24s %-10s base med %12.4f [%12.4f, %12.4f] spread %6.3f" % (
                m["name"], m["unit"], bmed, bq1, bq3, bs)
            if new is None:
                flag = ""
                if bs > m["bound"] and m["name"] != "setup_s":
                    flag, bad = "  SPREAD > bound %.2f" % m["bound"], True
                elif bs > m["bound"] / 3:
                    flag = "  spread > bound/3"
                print("%s n=%d%s" % (line, len(b), flag))
                continue
            n = values(new.get(wl, []), m["name"])
            if not n:
                print("%s  (no new runs)" % line)
                continue
            nq1, nmed, nq3, ns = summary(n.values())
            v = verdict(b, n, m)
            bad |= v == "worse"
            print("%s | new med %12.4f [%12.4f, %12.4f] spread %6.3f | %s" % (line, nmed, nq1, nq3, ns, v))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
