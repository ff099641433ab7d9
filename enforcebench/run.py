#!/usr/bin/env python3
"""Builds the enforcement benchmark from this checkout's sources and runs it.

    python3 enforcebench/run.py --workload point --seed 1 --seconds 20 --trace 0

Every argument is passed on to the benchmark binary (see README.md here).
The Release build lives in .bench_build/enforcebench under the checkout root
and is reused by later runs; build output goes to standard error, so the last
line of standard output is always the benchmark's result line.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "enforcebench")


def source_hash():
    """Hash of the program and benchmark sources: identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """HEAD of the checkout when it is itself a git work tree, else 'unknown'."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator,
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(BUILD, "enforcebench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("enforcebench: no DataLawyer sources in %s/src" % ROOT, file=sys.stderr)
        return 1
    binary = build()
    if binary is None:
        print("enforcebench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    extra = ["--commit", commit(), "--source-hash", source_hash()]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        name = "spans-%s.json" % "-".join(
            args[i + 1] for i, a in enumerate(args[:-1]) if a in ("--workload", "--seed"))
        extra += ["--spans-out", os.path.join(BUILD, name)]
    sys.stdout.flush()
    return subprocess.run([binary] + args + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
