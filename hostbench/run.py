#!/usr/bin/env python3
"""Builds the host-time benchmark from source and runs one workload.

Usage, from the repository root:

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is built in release mode (offline; it has path dependencies
only) into $CARGO_TARGET_DIR, or hostbench/target when that is unset.
Build output goes to stderr; the benchmark's last stdout line is its JSON
result. The exit code is the benchmark's, or 1 if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run takes about a minute; the kill deadline stays under three.
RUN_TIMEOUT_S = 170


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest, "--bin", "hostbench"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("hostbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "hostbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("hostbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
