#!/usr/bin/env python3
"""Tiny-scale smoke run of the benchmark harness.

    python3 dsebench/smoke.py

Run from the repository root. Runs every workload of BENCHMARK.json at
smoke scale (`--smoke`, one second) untraced and traced, and asserts that
each run exits 0, passes its output checks, and emits exactly the metrics
BENCHMARK.json declares for that mode, each with its declared unit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", trace, "--smoke"],
                cwd=ROOT, capture_output=True, text=True)
            label = "%s --trace %s" % (workload, trace)
            before = len(failures)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                failures.append("%s: exit %d\n%s" % (label, run.returncode, run.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append("%s: checks failed: %s" % (label, result))
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared[trace]:
                failures.append("%s: metrics differ from BENCHMARK.json: missing %s, extra or "
                                "wrong unit %s" % (
                                    label,
                                    sorted(set(declared[trace]) - set(emitted)),
                                    sorted(k for k in emitted if declared[trace].get(k) != emitted[k])))
            print("smoke: %s %s" % (label, "ok" if len(failures) == before else "FAILED"))
    for f in failures:
        print("smoke: FAIL " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
