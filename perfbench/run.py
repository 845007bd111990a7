#!/usr/bin/env python3
"""Build and run the perfbench benchmark for one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 12 --trace 0

It builds cmd/spitfire-serve and the perfbench program from source into
.bench_build/ (Go build cache included, so nothing is written outside the
checkout), runs the program, and relays its output. The last line of
standard output is the program's JSON result. Any build or run failure exits
non-zero without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(
        os.path.join(ROOT, "cmd", "spitfire-serve")
    ):
        sys.exit("perfbench: run from the root of a repository checkout (no go.mod or cmd/spitfire-serve here)")
    os.makedirs(BIN, exist_ok=True)
    env = go_env()
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(BIN, "spitfire-serve"), "./cmd/spitfire-serve"]),
        (os.path.join(ROOT, "perfbench"), ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
        if r.returncode != 0:
            sys.stderr.write(r.stdout.decode(errors="replace"))
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    cmd = [
        os.path.join(BIN, "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--serve-bin", os.path.join(BIN, "spitfire-serve"),
        "--out", BUILD,
        "--benchmark-json", os.path.join(ROOT, "BENCHMARK.json"),
    ]
    # The program stops the servers it starts (and they die with it); on a
    # hang the whole process group is killed and waited for.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        sys.exit("perfbench: %s timed out" % a.workload)
    out = out.decode(errors="replace")
    if p.returncode != 0:
        # Show what happened on stderr: a failed run prints no result.
        sys.stderr.write(out)
        sys.exit("perfbench: %s exited with %d" % (a.workload, p.returncode))
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
