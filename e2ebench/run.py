#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the served paths.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload dist-pagerank --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --all --seconds 10     # every workload, untraced

The benchmark is the Go program in this directory. It is built from
source into .bench_build/ (binary, Go build cache and temporary files
all stay inside the checkout), then run with the same arguments. Its
last line of standard output is the JSON result; the exit code is
non-zero when the build fails or a correctness check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "e2ebench"
WORKLOADS = ["admission-sim", "dist-pagerank", "dist-wcc-recover", "engine-pagerank"]
RUN_TIMEOUT_S = 175


def go_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("GO") or k == "GOROOT"}
    env.update(
        # The go command keeps its settings and telemetry counters under
        # the user config directory; keep those in the checkout too.
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOCACHE=str(BUILD / "gocache"),
        GOPATH=str(BUILD / "gopath"),
        GOTMPDIR=str(BUILD / "tmp"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
    )
    return env


def build():
    if not (ROOT / "go.mod").is_file():
        print("e2ebench: no go.mod at the checkout root; run from a full checkout", file=sys.stderr)
        return False
    for d in ("config", "gocache", "gopath", "tmp"):
        (BUILD / d).mkdir(parents=True, exist_ok=True)
    res = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", str(BINARY), "."],
        cwd=HERE, env=go_env(), stdout=sys.stderr, stderr=sys.stderr,
    )
    return res.returncode == 0


def state_dir():
    """Per-seed digests kept across runs, keyed by the binary that wrote
    them, so runs of changed code are not compared with older ones."""
    digest = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    return BUILD / "repeat" / digest


def run_one(workload, seed, seconds, trace):
    cmd = [
        str(BINARY), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--state-dir", str(state_dir()),
    ]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=go_env(), stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: {workload} did not finish within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    return res.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, one process each")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not args.all and not args.workload:
        p.error("need --workload or --all")
    if not build():
        return 1
    status = 0
    for w in WORKLOADS if args.all else [args.workload]:
        status = run_one(w, args.seed, args.seconds, args.trace) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
