#!/usr/bin/env python3
"""Builds fsbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload attack-sampled --seed 1 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare RUN_A.txt RUN_B.txt

A run prints every metric with its unit and sample count, then one JSON
result line last. It exits non-zero when the build fails, an output check
fails or an operation failed. --compare reads two saved run outputs and
refuses to compare them unless their host/build fingerprints are equal.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def checkout_env():
    """Keeps compiler and program temporaries inside the checkout."""
    tmp = os.path.join(os.path.dirname(build_dir()), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds fsbench; build output goes to stderr."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "fsbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=checkout_env()).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "fsbench")


def run(binary, args):
    work = os.path.join(os.path.dirname(build_dir()), "work",
                        "%s-%s-%s" % (args.workload or "self-test", args.seed,
                                      args.trace))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--work-dir", work]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=checkout_env())
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if args.self_test:
        print("\n".join(lines))
        return proc.returncode
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected result keys")
    except (ValueError, IndexError) as err:
        print("\n".join(lines), file=sys.stderr)
        sys.exit("perfbench: no result line (%s)" % err)
    print("\n".join(lines))
    sys.stdout.flush()
    return proc.returncode


def parse_saved(path):
    fingerprint, result = None, None
    with open(path) as f:
        for line in f:
            if line.startswith("fingerprint "):
                fingerprint = json.loads(line[len("fingerprint "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if fingerprint is None or result is None:
        sys.exit("perfbench: %s is not a saved run output" % path)
    return fingerprint, result


def compare(path_a, path_b):
    fa, ra = parse_saved(path_a)
    fb, rb = parse_saved(path_b)
    if fa != fb:
        diff = {k: (fa.get(k), fb.get(k)) for k in set(fa) | set(fb)
                if fa.get(k) != fb.get(k)}
        print("perfbench: refusing to compare, fingerprints differ: %s" % diff,
              file=sys.stderr)
        return 2
    for name, a in ra["metrics"].items():
        b = rb["metrics"].get(name)
        if b is None:
            continue
        change = (b["value"] / a["value"] - 1.0) if a["value"] else 0.0
        print("%-28s %14.6g -> %14.6g %-8s (%+.1f%%)" %
              (name, a["value"], b["value"], a["unit"], 100 * change))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["attack-sampled", "attack-full", "serve-feed"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RUN")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    return run(build(), args)


if __name__ == "__main__":
    sys.exit(main())
