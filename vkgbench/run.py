#!/usr/bin/env python3
"""Builds the benchmark and runs one workload, or all three.

    python3 vkgbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 vkgbench/run.py --self-test

Run from the repository root. The benchmark is a cargo package of its
own (vkgbench/Cargo.toml) over the workspace's crates; it is built in
release mode into $CARGO_TARGET_DIR (default vkgbench/target). Each
workload runs in a process of its own, so its set-up time and peak
memory are its own. With `--workload all` the three run one after the
other and each prints its own result; the last line of a single
workload's output is its JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_freebase_100k", "serve_zipf_read", "serve_uniform_write"]


def build():
    """Builds the benchmark binary; returns its path, or exits on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Build output goes to stderr: stdout carries only results.
    result = subprocess.run(cmd, stdout=sys.stderr)
    if result.returncode != 0:
        print("vkgbench: build failed", file=sys.stderr)
        sys.exit(result.returncode or 1)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.abspath(os.path.join(target, "release", "vkgbench"))


def main(argv):
    binary = build()
    if argv == ["--self-test"]:
        return subprocess.run([binary, "--self-test"]).returncode
    args = list(argv)
    if "--workload" in args and args[args.index("--workload") + 1 :][:1] == ["all"]:
        i = args.index("--workload")
        status = 0
        for name in WORKLOADS:
            args[i + 1] = name
            status |= subprocess.run([binary, *args, "--out", os.path.join(HERE, "out")]).returncode
        return status
    return subprocess.run([binary, *args, "--out", os.path.join(HERE, "out")]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
