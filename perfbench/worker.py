"""One run of one workload in a fresh interpreter; started by run.py.

Prints `READY` once set-up (imports and inputs) is done.  Unless
`--setup-only` is given it then runs whole passes over the workload, checks
every answer and prints one `RESULT <json>` line.  Every pass starts with
all of the program's caches empty and repeats the same operations in the
same order, so each pass does the same work as a fresh process would.
Untraced runs sample the machine's speed while they measure (speed.py).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import answers  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from clutterlab.errors import ResourceExceeded, Undecided  # noqa: E402


MIN_PASSES = 3  # run.py reports the best of these passes for each operation


def run_passes(workload, seed: int, seconds: float, passes: int | None, census, trace=None):
    """Exactly `passes` whole passes or, without it, as many as fit in
    `seconds` judged by the mean pass time, but at least MIN_PASSES.

    Returns the answer records, one list of `(start, end)` perf_counter
    stamps per pass (None for a failed operation), the failures and the
    pass times.
    """
    records, spans, failures, pass_stats = [], [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        census.clear()
        t0 = time.perf_counter()
        pass_spans = []
        for key, thunk in workload.ops(seed):
            if trace is not None:
                trace.op = key
            t = time.perf_counter()
            try:
                answer = thunk()
            except Exception as exc:  # a raising operation fails; the run goes on
                reason = f"{type(exc).__name__}: {exc}"
            else:
                reason = workload.failure(answer)
            end = time.perf_counter()
            if reason is None:
                records.append((key, answer))
                pass_spans.append((t, end))
            else:
                records.append((key, None))
                pass_spans.append(None)
                failures.append(f"{key}: {reason}")
        if trace is not None:
            trace.op = None
        pass_stats.append({"ops": len(pass_spans), "seconds": time.perf_counter() - t0})
        spans.append(pass_spans)
        k += 1
        elapsed = time.perf_counter() - start
        if passes is not None:
            if k >= passes:
                break
        elif k >= MIN_PASSES and elapsed + elapsed / k > seconds:
            break
    census.clear()
    return records, spans, failures, pass_stats


def latencies_ms(spans, sampler):
    """Per pass, each operation's (corrected, wall) milliseconds or None."""
    stamps = sampler.stamps if sampler is not None else []
    durations = sampler.durations if sampler is not None else []
    return [
        [None if s is None else [1000 * x for x in speed.corrected(*s, stamps, durations)]
         for s in pass_spans]
        for pass_spans in spans
    ]


def distinct_inputs(workload: str, records) -> int:
    if workload == "clutters":
        return len({key.split(":", 1)[0] for key, _ in records})
    return len({key for key, _ in records})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(workdir)
    modules = tracer.package_modules()
    census = tracer.CacheCensus(tracer.scan_caches(modules))
    census.reset()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    trace = sampler = None
    if args.trace:
        trace = tracer.Tracer(gave_up=(Undecided, ResourceExceeded))
        trace.install(modules)
        try:
            records, spans, failures, pass_stats = run_passes(
                workload, args.seed, args.seconds, args.passes, census, trace
            )
        finally:
            trace.uninstall()
    else:
        with speed.Sampler() as sampler:
            records, spans, failures, pass_stats = run_passes(
                workload, args.seed, args.seconds, args.passes, census
            )
    problems = answers.check(args.workload, records)
    result = {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:5],
        "wrong": len(problems),
        "problems": problems[:5],
        "latencies_ms": latencies_ms(spans, sampler),
        "probes": len(sampler.durations) if sampler is not None else 0,
        "passes": pass_stats,
        "distinct_inputs": distinct_inputs(args.workload, records),
        "caches": census.totals,
    }
    if trace is not None:
        result["trace"] = trace.metrics()
        stem = f"{args.workload}-{args.seed}"
        with open(workdir / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "op", "function", "start_s", "end_s"]) + "\n")
            for span in trace.spans:
                fh.write(json.dumps(span) + "\n")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
