"""clutterlab benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload {systems,clutters,census} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each run starts fresh worker
interpreters one after another (never two at once):

* `--trace 0`: several set-up-only workers, then one worker that also
  measures whole passes for about S seconds.  Prints the end-to-end
  metrics, with times corrected for the machine's speed (speed.py); the
  context line also carries the uncorrected wall-clock figures.
* `--trace 1`: one untraced and one traced worker, each running exactly one
  pass, so every count repeats exactly for a given seed.  Prints the
  per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A wrong answer makes the
command exit with 1; a missing program or a crashed worker exits with 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("systems", "clutters", "census")
SETUPS = 9  # set-up is timed this many times per run; the median is reported
STEP_BUDGET = "10000000"  # pinned so an ambient CLUTTERLAB_BUDGET cannot change the work
DEADLINE_S = 170.0

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_CALLS = {
    "kernel": ("dot", "vsub", "vscale", "rank", "determinant", "solve", "primitive",
               "clear_denominators", "smith_normal_form", "integer_kernel_basis",
               "integer_solve", "unimodular_inverse"),
    "polyhedron": ("dd_convert", "cone_generators_to_hrep", "cone_hrep_to_generators",
                   "lattice_points", "relative_interior_lattice_points", "minimal_faces",
                   "is_integral", "dimension", "contains_point", "canonical_hrep"),
    "lattice": ("hilbert_basis", "is_hilbert_basis", "semigroup_member"),
    "tdi": ("is_tdi", "sufficiency_check", "is_mfmc", "covering_system"),
    "ehrhart": ("analyze", "a_invariant_interior", "check_regularity_bounds"),
    "ideals": ("power", "symbolic_power", "closure_power", "closure_contains",
               "is_normal_upto", "edge_ideal"),
    "combinat": ("minimal_covers", "maximal_cliques", "adjacency_masks", "is_meyniel",
                 "is_perfect_small", "is_meyniel_via_hoang", "odd_hole", "hoang_witness",
                 "maximal_stable_sets", "induced_subgraph", "complement", "clique_clutter",
                 "blocker", "covering_number", "is_uniform", "is_unmixed"),
    "families": ("canonical_form", "graphs_upto_iso"),
    "cli": ("main", "cmd_check", "cmd_invariants", "run_check", "load_instance",
            "make_certificate", "emit"),
}
_CACHES = (
    "combinat.adjacency_masks", "combinat.minimal_covers", "combinat.maximal_cliques",
    "lattice._cone_normals", "lattice._extreme_rays", "lattice._triangulate",
    "lattice._hilbert_basis_cached", "tdi._hb_verdict", "ehrhart.analyze",
    "ideals._newton_inequalities",
)
_LAYERS = tuple(_CALLS)

PER_LAYER = (
    tuple((f"{layer}.self_s", "s") for layer in _LAYERS)
    + tuple((f"{layer}.gave_up", "count") for layer in _LAYERS)
    + tuple((f"{layer}.{fn}.calls", "count") for layer, fns in _CALLS.items() for fn in fns)
    + tuple((f"{c}.{kind}", "count") for c in _CACHES for kind in ("cache_hits", "cache_misses"))
    + (
        ("polyhedron.dd.calls", "count"),
        ("polyhedron.dd.self_s", "s"),
        ("polyhedron.box.calls", "count"),
        ("polyhedron.box.self_s", "s"),
        ("polyhedron.box.points", "count"),
        ("lattice.basis_size", "count"),
        ("tdi.faces_checked", "count"),
        ("ideals.closure_power.gens", "count"),
        ("trace.ops", "count"),
        ("trace.distinct_inputs", "count"),
        ("trace.spans", "count"),
        ("trace.overhead_pct", "%"),
    )
)


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["CLUTTERLAB_BUDGET"] = STEP_BUDGET
    return env


def spawn(args: list[str], deadline: float):
    """Run one worker to the end.

    Returns (set-up seconds corrected for machine speed, wall set-up
    seconds, result, peak RSS MB).  The set-up is corrected by the faster
    of two probes timed here just before the start and just after `READY`.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workdir", str(WORKDIR), *args]
    before = speed.probe_time()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env())
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    setup = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup is None:
                setup = time.perf_counter() - t0
                after = speed.probe_time()
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    if proc.returncode != 0 or setup is None:
        raise WorkerError(f"worker {' '.join(args)} exited with {proc.returncode}")
    corrected = setup * speed.REF_PROBE_S / min(before, after)
    return corrected, setup, result, usage.ru_maxrss / 1024


def best_latencies(passes: list[list], which: int = 0) -> list[float]:
    """Each operation's fastest time over the passes of a run.

    Every pass repeats the same operations from cold caches, and machine
    noise only ever slows an operation down, so the minimum is the steadiest
    estimate of its cost.  An operation that failed in any pass is infinite.
    `which` picks the corrected (0) or the wall-clock (1) time.
    """
    return [
        math.inf if any(x is None for x in times) else min(x[which] for x in times)
        for times in zip(*passes)
    ]


def latency_metrics(latencies: list[float]) -> dict:
    done = [x for x in latencies if not math.isinf(x)]
    return {
        "throughput_ops_s": 1000 * len(done) / sum(done),
        "latency_p50_ms": percentile(latencies, 50)[0],
        "latency_p90_ms": percentile(latencies, 90)[0],
    }


def end_to_end(args, deadline: float):
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups, walls = [], []
    for _ in range(SETUPS - 1):
        setup, wall, _, _ = spawn(base + ["--setup-only"], deadline)
        setups.append(setup)
        walls.append(wall)
    setup, wall, res, rss = spawn(base + ["--seconds", str(args.seconds)], deadline)
    setups.append(setup)
    walls.append(wall)
    latencies = best_latencies(res["latencies_ms"])
    metrics = latency_metrics(latencies)
    if math.isinf(metrics["latency_p90_ms"]):
        raise WorkerError(f"more than a tenth of the operations failed: {res['failures']}")
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = rss
    wall_clock = latency_metrics(best_latencies(res["latencies_ms"], which=1))
    wall_clock["setup_s"] = statistics.median(walls)
    context = {
        "samples": len(latencies),
        "beyond_p90": percentile(latencies, 90)[1],
        "failed_share": res["failed"] / res["attempted"],
        "wall_clock": wall_clock,
        "speed_probes": res["probes"],
        "passes": res["passes"],
        "setup_samples_s": setups,
        "distinct_inputs": res["distinct_inputs"],
        "caches": res["caches"],
    }
    return res, metrics, context, [res]


def per_layer(args, deadline: float):
    base = ["--workload", args.workload, "--seed", str(args.seed), "--passes", "1"]
    _, _, plain, _ = spawn(base, deadline)
    _, _, res, _ = spawn(base + ["--trace"], deadline)
    found = dict(res["trace"])
    for name, (hits, misses) in res["caches"].items():
        found[f"{name}.cache_hits"] = hits
        found[f"{name}.cache_misses"] = misses
    found["trace.ops"] = res["attempted"]
    found["trace.distinct_inputs"] = res["distinct_inputs"]
    untraced_s, traced_s = (
        sum(x[1] for x in r["latencies_ms"][0] if x is not None) / 1000 for r in (plain, res)
    )
    found["trace.overhead_pct"] = 100 * (traced_s / untraced_s - 1)
    (WORKDIR / f"trace-{args.workload}-{args.seed}.json").write_text(
        json.dumps(found, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    # a function or cache that a later version removes reads 0
    metrics = {name: found.get(name, 0) for name, _ in PER_LAYER}
    context = {"untraced_ops_s": untraced_s, "traced_ops_s": traced_s}
    return res, metrics, context, [plain, res]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="clutterlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "clutterlab" / "__init__.py").is_file():
        print(f"error: no clutterlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    load_before = os.getloadavg()
    try:
        if args.trace:
            res, metrics, context, runs = per_layer(args, deadline)
            units = dict(PER_LAYER)
        else:
            res, metrics, context, runs = end_to_end(args, deadline)
            units = dict(END_TO_END)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wrong = sum(r["wrong"] for r in runs)
    context.update({
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "wrong": wrong,
        "problems": [p for r in runs for p in r["problems"]][:5],
        "failures": res["failures"],
    })
    for name, value in metrics.items():
        print(f"{args.workload:9s} {name:48s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"{args.workload:9s} {'failed_share':48s} {context['failed_share']:14.6g} 1")
        print(f"{args.workload:9s} {'latency_samples':48s} {context['samples']:14d} count")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
