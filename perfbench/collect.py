#!/usr/bin/env python3
"""Run the benchmark over several seeds and append the results to a file.

    python3 perfbench/collect.py --out runs.jsonl --workloads serve-read,ycsb-tiered --seeds 1-10

Each line of the output file is one run: {"workload", "seed", "trace",
"result"} where result is the JSON line perfbench printed. Failed runs are
recorded with "error" instead of "result". Feed two such files to
compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds from BENCHMARK.json")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    seconds = a.seconds or bench["run_seconds"]
    with open(a.out, "a") as out:
        for wl in workloads:
            for seed in seeds(a.seeds):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(a.trace)]
                r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                rec = {"workload": wl, "seed": seed, "trace": a.trace}
                lines = r.stdout.decode(errors="replace").strip().splitlines()
                if r.returncode == 0 and lines:
                    rec["result"] = json.loads(lines[-1])
                else:
                    rec["error"] = r.stderr.decode(errors="replace")[-2000:]
                out.write(json.dumps(rec) + "\n")
                out.flush()
                print("%s seed %d: %s" % (wl, seed, "ok" if "result" in rec else "FAILED"), file=sys.stderr)


if __name__ == "__main__":
    main()
