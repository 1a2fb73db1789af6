#!/usr/bin/env python3
"""Entry point of the DSE benchmark.

    python3 dsebench/run.py --workload campaign|retrain|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds, offline and in release mode, the
`serve` daemon from the repository's workspace and the `dsebench` harness binary
from this directory (into $CARGO_TARGET_DIR, default `.bench_build`), then
runs it with the same arguments. It prints the result
object as the last stdout line; see METRICS.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    # Build output goes to stderr: stdout carries only the result line.
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    target = os.environ.setdefault(
        "CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    workspace = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(workspace):
        sys.stderr.write("run.py: no repository workspace at %s\n" % ROOT)
        return 2
    if not build(workspace, "-p", "dynawave-core", "--bin", "serve"):
        return 2
    if not build(os.path.join(HERE, "Cargo.toml")):
        return 2
    if "serve" in sys.argv[1:]:
        # The closed-loop client and the daemon share one CPU, so each
        # request is a direct hand-off rather than a cross-CPU wake-up,
        # whose latency swings with the host's idle states.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    release = os.path.join(os.path.abspath(target), "release")
    harness = [os.path.join(release, "dsebench"), *sys.argv[1:],
              "--serve-bin", os.path.join(release, "serve")]
    return subprocess.run(harness).returncode


if __name__ == "__main__":
    sys.exit(main())
