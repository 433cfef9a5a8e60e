"""Regenerate perfbench/reference.json from the code in this checkout.

    python3 perfbench/make_reference.py

Run only when a change to the package is meant to change its outputs, and
record why in CHANGES.md: the stored summaries are what every benchmark
run compares the default seed's outputs against.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(Path.cwd() / "src"))
    import harness
    import workloads

    nproc = len(os.sched_getaffinity(0))
    work = Path(".bench_work") / f"reference-{os.getpid()}"
    stored = {}
    try:
        for name in sorted(workloads.WORKLOADS):
            result = harness.reference_pass(name, work / name, nproc, tiny=False)
            if result["failed"]:
                print(f"error: {name}: {result['messages']}", file=sys.stderr)
                return 1
            stored[name] = result["summaries"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(harness.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(harness.REFERENCE_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
