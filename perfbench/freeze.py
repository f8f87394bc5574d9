"""Freeze the answers of the current program for every pooled input.

    python3 perfbench/freeze.py

Run it only on a commit whose answers are known to be right: the benchmark
treats every later difference from these files as a wrong answer.  The
census needs no file; its answers are the counts in answers.py.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import answers
import run
import tracer
import worker
import workloads


def freeze(name: str) -> dict:
    workload = workloads.WORKLOADS[name]()
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        workload.setup(Path(tmp))
        census = tracer.CacheCensus(tracer.scan_caches(tracer.package_modules()))
        census.reset()
        records, _, failures, _ = worker.run_passes(workload, 0, 0.0, 1, census)
    if failures:
        raise SystemExit(f"{name}: cannot freeze failed operations: {failures[:3]}")
    problems = answers.check(name, records, frozen={})
    if problems:
        raise SystemExit(f"{name}: answers break the relations: {problems[:3]}")
    return {key: answer for key, answer in records}


def main() -> int:
    os.environ["CLUTTERLAB_BUDGET"] = run.STEP_BUDGET
    answers.FROZEN_DIR.mkdir(exist_ok=True)
    for name in ("systems", "clutters"):
        frozen = freeze(name)
        path = answers.FROZEN_DIR / f"{name}.json"
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(frozen.items())]
        path.write_text('{"answers": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
        print(f"{path}: {len(frozen)} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
