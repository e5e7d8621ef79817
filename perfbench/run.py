#!/usr/bin/env python3
"""Builds the perfbench package from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <oneshot_web|serve_gnn|streamed_rmat> \
        --seed <n> --seconds <s> --trace <0|1>

The package is built in release mode into $CARGO_TARGET_DIR (default
perfbench/target). Cargo's output goes to standard error, so the last line
of standard output is the benchmark's JSON result. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "perfbench", "target")
    target = os.path.join(ROOT, target)  # a relative target dir is relative to the root
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed with exit code {build.returncode}", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
