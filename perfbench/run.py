#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fv-closed --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It builds the Go benchmark in this
directory (a module of its own that links the repository's packages)
into the build directory, runs it, and passes its output through; the
last line of standard output is the result object. Everything the
build and the run write stays under the build directory:
$CARGO_TARGET_DIR if set, else .bench_build, relative to the checkout.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def go_env(out):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTOOLCHAIN": "local",  # never download a toolchain
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def commit():
    """The git revision if the checkout is a repository, else a digest
    of the Go sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, timeout=10)
            if r.returncode == 0:
                return r.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    skip = os.path.basename(build_dir())
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(".") and d != skip)
        for f in sorted(filenames):
            if f.endswith(".go") or f == "go.mod":
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "perfbench")
    env = go_env(out)
    b = subprocess.run(["go", "build", "-trimpath", "-o", binary, "."], cwd=HERE, env=env,
                       timeout=BUILD_TIMEOUT)
    if b.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    with open(binary, "rb") as fh:
        bin_id = hashlib.sha256(fh.read()).hexdigest()[:16]

    r = subprocess.run([binary, "-workload", a.workload, "-seed", str(a.seed),
                        "-seconds", str(a.seconds), "-trace", str(a.trace),
                        "-state", os.path.join(out, "digests", bin_id), "-commit", commit()],
                       cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("run.py: benchmark failed: " + lines[-1], file=sys.stderr)
        return r.returncode
    res = json.loads(lines[-1])
    got, want = set(res["metrics"]), expected_metrics(a.trace == 1)
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("run.py: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(want - got), sorted(got - want)), file=sys.stderr)
        return 3
    sys.stdout.write(r.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
