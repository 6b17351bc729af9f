#!/usr/bin/env python3
"""Service benchmark for linkrev: goodput, batch latency and set-up time
of the sharded routing service, plus a traced per-layer ledger.

Run from the repository root:

    python3 perfbench/run.py --workload route-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The script builds perfbench/perfbench.exe with dune, has it write the
workload's seeded op stream as an lrw1 file under perfbench/_work/, and
runs the measurement on that file.  The last line of standard output is
one JSON object: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1.  The exit code is 0 only when every correctness gate
held.  Workload shapes, mixes and pinned fingerprints are in
perfbench/workloads.json.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    sys.exit("perfbench: dune not found")


def call(argv, timeout, stdout=None):
    """Run a child to completion; a child that outlives its timeout is
    killed and waited for."""
    with subprocess.Popen(argv, cwd=ROOT, stdout=stdout, text=True) as p:
        try:
            out, _ = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            sys.exit("perfbench: %s timed out after %d s" % (argv[1], timeout))
        return p.returncode, out


def build():
    # Keep every build product inside the checkout.
    os.environ.setdefault("DUNE_CACHE", "disabled")
    code, _ = call([dune(), "build", "--root", ROOT, "./perfbench/perfbench.exe"],
                   BUILD_TIMEOUT, stdout=sys.stderr)
    if code != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")


def pinned():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return {w["name"]: w for w in json.load(f)["workloads"]}


def measure(workload, seed, seconds, trace, record):
    """Generate the run's parts, streams with their own topologies and
    traffic (seeds parts*seed .. parts*seed + parts-1) so that one
    stream's outliers weigh little; measure them; remove the files.
    Part j always carries fault schedule j: the fault scenario is fixed
    and only what it lands on varies with the seed."""
    parts = record["parts"]
    os.makedirs(WORK, exist_ok=True)
    paths = [os.path.join(WORK, "%s-%d-%d.lrw" % (workload, seed, j))
             for j in range(parts)]
    try:
        for j, path in enumerate(paths):
            params = [a for k, v in record["params"].items()
                      for a in ("--" + k, str(v))]
            code, _ = call([EXE, "gen", "--workload", workload,
                            "--seed", str(parts * seed + j), "--fault-seed", str(j),
                            "--out", path]
                           + params, RUN_TIMEOUT, stdout=sys.stderr)
            if code != 0:
                sys.exit("perfbench: stream generation failed")
        argv = [EXE, "run", "--workload", workload, "--files", ",".join(paths),
                "--seconds", str(seconds), "--trace", str(trace)]
        if seed == record["fingerprint_seed"]:
            argv += ["--expect-fingerprint", record["fingerprint"]]
        code, _ = call(argv, RUN_TIMEOUT)
        return code
    finally:
        for path in paths:
            if os.path.exists(path):
                os.remove(path)


def self_test(records):
    """The known-defect stream through the batch client, then one short
    run per workload at its pinned seed (the fingerprint must match)."""
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "defect.lrw")
    try:
        code, _ = call([EXE, "defect", "--out", path], RUN_TIMEOUT)
    finally:
        if os.path.exists(path):
            os.remove(path)
    if code != 0:
        return code
    for name, record in records.items():
        code = measure(name, record["fingerprint_seed"], 1, 0, record)
        if code != 0:
            return code
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    records = pinned()
    build()
    if args.self_test:
        sys.exit(self_test(records))
    if args.workload not in records:
        sys.exit("perfbench: unknown workload %r (known: %s)"
                 % (args.workload, ", ".join(records)))
    sys.exit(measure(args.workload, args.seed, args.seconds, args.trace,
                     records[args.workload]))


if __name__ == "__main__":
    main()
