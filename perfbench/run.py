#!/usr/bin/env python3
"""Run one RAQO benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune, runs the workload's closed
loop in one process, times the program's set-up in several more fresh
processes before and after it (model training is memoized per process, so
each process pays it once), and prints two lines: the run metadata (host,
OCaml version, source identity, seed, operations, response fingerprint, the
timed figures as measured) and, last, the result object {"correct",
"attempted", "failed", "metrics"}. Times in the result are at reference
speed: scaled by a fixed reference loop timed beside them (perfbench/speed.ml),
so that the shared host's drifting speed does not move them.

--trace 0 prints the end-to-end metrics; --trace 1 the per-layer metrics.
Exits non-zero, without a result line, if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# Set-up processes on each side of the run: the host's speed drifts over
# seconds, so samples taken on both sides of the timed loop, and their
# median, are steadier than a burst of samples taken at one moment.
SETUP_PROCESSES = 8
TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a RAQO source checkout (no dune-project and lib/ here)")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")


def run_exe(args):
    try:
        done = subprocess.run(
            [EXE] + args, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(args)}: {e}")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"{' '.join(args)}: exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(args)}: no output")
    return lines


def source_identity():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if done.returncode == 0:
            return {"commit": done.stdout.strip()}
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return {"commit": None, "source_sha256": h.hexdigest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build()
    common = ["--workload", a.workload]
    setups = []

    def sample_setups():
        if a.trace == 0:
            for _ in range(SETUP_PROCESSES):
                setups.append(json.loads(run_exe(common + ["--setup-only"])[-1])["setup_s"])

    sample_setups()
    lines = run_exe(
        common + ["--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
    )
    if len(lines) < 2:
        fail("the run printed no metadata line")
    meta = json.loads(lines[-2])
    result = json.loads(lines[-1])
    sample_setups()
    if a.trace == 0:
        # The run's own set-up is one more sample; the median over fresh
        # processes is what is reported.
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        meta["setup_samples_s"] = setups
    meta.update(source_identity())
    print(json.dumps(meta))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
