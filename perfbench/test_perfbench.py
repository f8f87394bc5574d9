"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import answers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from clutterlab.errors import ResourceExceeded, Undecided  # noqa: E402
from stats import percentile  # noqa: E402


# ---------------------------------------------------------------------------
# Percentiles and the per-operation best over passes
# ---------------------------------------------------------------------------


def test_percentile_nearest_rank_and_samples_beyond():
    samples = list(range(100, 0, -1))  # 1..100 in reverse
    assert percentile(samples, 50) == (50, 50)
    assert percentile(samples, 90) == (90, 10)
    assert percentile(samples, 100) == (100, 0)
    assert percentile([7.0], 90) == (7.0, 0)
    assert percentile([1, 2, 3], 50) == (2, 1)


def test_percentile_counts_failures_as_slowest():
    value, beyond = percentile([1.0] * 95 + [math.inf] * 5, 90)
    assert (value, beyond) == (1.0, 10)
    value, _ = percentile([1.0] * 85 + [math.inf] * 15, 90)
    assert math.isinf(value)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_best_latencies_take_the_fastest_pass_and_fail_any_failure():
    passes = [
        [[3.0, 30.0], [2.0, 20.0], None],
        [[1.0, 50.0], [5.0, 10.0], [4.0, 4.0]],
        [[2.0, 20.0], [4.0, 40.0], [1.0, 1.0]],
    ]
    assert run.best_latencies(passes) == [1.0, 2.0, math.inf]
    assert run.best_latencies(passes, which=1) == [20.0, 10.0, math.inf]


# ---------------------------------------------------------------------------
# Machine-speed correction
# ---------------------------------------------------------------------------


def test_corrected_divides_each_piece_by_the_faster_probe_around_it():
    stamps, durations = [1.0, 2.0], [0.1, 0.2]
    # pieces: 0.5 s at probe 0.1 (x1), 0.9 s between probes 0.1 and 0.2
    # (x1), 0.3 s after the 0.2 probe (x0.5); probe time is left out
    got, wall = speed.corrected(0.5, 2.5, stamps, durations, ref=0.1)
    assert got == pytest.approx(1.55)
    assert wall == pytest.approx(1.7)
    got, wall = speed.corrected(1.2, 1.5, stamps, durations, ref=0.05)
    assert (got, wall) == (pytest.approx(0.15), pytest.approx(0.3))
    assert speed.corrected(0.0, 0.4, [], []) == (0.4, 0.4)


def test_sampler_probes_on_a_timer_and_restores_the_handler():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(interval=0.005) as sampler:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            sum(range(1000))
    assert sampler.stamps and len(sampler.stamps) == len(sampler.durations)
    assert sampler.stamps == sorted(sampler.stamps)
    assert signal.getsignal(signal.SIGALRM) == previous


# ---------------------------------------------------------------------------
# Tracing: self time, spans, counts
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _module(name: str, source: str, **env) -> types.ModuleType:
    mod = types.ModuleType(name)
    mod.__dict__.update(env)
    exec(source, mod.__dict__)
    return mod


@pytest.fixture
def fake_layers():
    clock = FakeClock()
    kernel = _module("fake.kernel", "def dot():\n    clock.advance(2)\n", clock=clock)
    lattice = _module(
        "fake.lattice",
        "def hilbert_basis():\n"
        "    clock.advance(1)\n"
        "    kernel.dot()\n"
        "    kernel.dot()\n"
        "    clock.advance(3)\n"
        "    return (1, 2, 3)\n"
        "def is_hilbert_basis():\n"
        "    clock.advance(1)\n"
        "    return hilbert_basis()\n"
        "def give_up():\n"
        "    raise Undecided('budget')\n",
        clock=clock, kernel=kernel, Undecided=Undecided,
    )
    tdi = _module(
        "fake.tdi",
        "def is_mfmc():\n"
        "    clock.advance(5)\n"
        "    lattice.is_hilbert_basis()\n"
        "    clock.advance(5)\n",
        clock=clock, lattice=lattice,
    )
    return clock, {"kernel": kernel, "lattice": lattice, "tdi": tdi}


def test_self_time_subtracts_child_spans(fake_layers):
    clock, mods = fake_layers
    tr = tracer.Tracer(gave_up=(Undecided,), clock=clock)
    tr.install(mods)
    try:
        tr.op = "op-1"
        mods["tdi"].is_mfmc()
    finally:
        tr.uninstall()
    m = tr.metrics()
    # tdi: 10 own out of 19; lattice: 1 + 1 + 3 = 5 own; kernel: 2 x 2
    assert m["tdi.self_s"] == 10
    assert m["lattice.self_s"] == 5
    assert m["kernel.self_s"] == 4
    assert clock.now == 19
    assert m["lattice.is_hilbert_basis.calls"] == 1
    assert m["lattice.hilbert_basis.calls"] == 1
    assert m["kernel.dot.calls"] == 2
    assert m["lattice.basis_size"] == 3
    # spans: tdi (root) and lattice (boundary); the intra-layer call and the
    # aggregated kernel calls are not stored one by one
    assert [(s[3], s[2]) for s in tr.spans] == [("lattice.is_hilbert_basis", "op-1"),
                                                 ("tdi.is_mfmc", "op-1")]
    lattice_span, tdi_span = tr.spans
    assert lattice_span[1] == tdi_span[0] and tdi_span[1] == 0
    assert m["trace.spans"] == 2


def test_gave_up_counts_boundary_calls_and_uninstall_restores(fake_layers):
    clock, mods = fake_layers
    original = mods["lattice"].give_up
    tr = tracer.Tracer(gave_up=(Undecided, ResourceExceeded), clock=clock)
    tr.install(mods)
    with pytest.raises(Undecided):
        mods["lattice"].give_up()
    tr.uninstall()
    assert tr.metrics()["lattice.gave_up"] == 1
    assert mods["lattice"].give_up is original


def test_cache_census_finds_every_lru_cache_and_keeps_totals():
    mods = tracer.package_modules()
    caches = tracer.scan_caches(mods)
    assert {"combinat.maximal_cliques", "ehrhart.analyze", "tdi._hb_verdict"} <= set(caches)
    census = tracer.CacheCensus(caches)
    census.reset()
    from clutterlab import combinat, families

    g = families.cycle(5)
    combinat.maximal_cliques(g)
    combinat.maximal_cliques(g)
    census.clear()
    combinat.maximal_cliques(g)
    census.clear()
    assert census.totals["combinat.maximal_cliques"] == [1, 2]


# ---------------------------------------------------------------------------
# Answer checking
# ---------------------------------------------------------------------------


def _frozen_records(workload):
    return list(answers.load_frozen(workload).items())


def test_checker_accepts_frozen_answers():
    for name in ("systems", "clutters"):
        records = _frozen_records(name)
        assert records
        assert answers.check(name, records) == []


def test_checker_rejects_a_flipped_verdict():
    records = _frozen_records("systems")
    key, ans = next((k, a) for k, a in records if a["tdi"] is True)
    flipped = [(k, dict(a, tdi=False) if k == key else a) for k, a in records]
    problems = answers.check("systems", flipped)
    assert any(key in p for p in problems)

    records = _frozen_records("clutters")
    key = next(k for k, a in records if k.endswith("check mfmc"))
    flipped = [(k, dict(a, verdict=False) if k == key else a) for k, a in records]
    problems = answers.check("clutters", flipped)
    assert any("differs from frozen" in p for p in problems)
    assert any("exit 0 for verdict False" in p for p in problems)


def test_checker_relations_hold_without_frozen_answers():
    bad = [("s1", {"integral": True, "lifted_hilbert": True, "tdi": False,
                   "implication_respected": False})]
    assert answers.check("systems", bad, frozen={})
    clutter = [
        ("c:check mfmc", {"exit": 0, "verdict": True, "witnesses": {}}),
        ("c:check normal", {"exit": 1, "verdict": False, "witnesses": {}}),
    ]
    assert any("normality" in p for p in answers.check("clutters", clutter, frozen={}))


def _census_records():
    records = []
    for n in range(1, 8):
        total, perfect, meyniel = (answers.CENSUS_COUNTS[f][n - 1]
                                   for f in ("graphs", "perfect", "meyniel"))
        records.append((f"enumerate:{n}", {"graphs": total}))
        for i in range(total):
            records.append((f"classify:{n}:{i}", {
                "perfect": i < perfect, "meyniel": i < meyniel, "meyniel_via_hoang": i < meyniel,
            }))
    return records


def test_census_checker_counts_and_pass_consistency():
    records = _census_records()
    assert answers.check("census", records + records) == []
    flipped = [(k, dict(a, perfect=not a["perfect"]) if k == "classify:7:1000" else a)
               for k, a in records]
    assert answers.check("census", flipped)
    assert answers.check("census", records + flipped)
    # a failed operation is not a wrong answer
    failed = [(k, None) if k == "classify:7:3" else (k, a) for k, a in records]
    assert answers.check("census", failed) == []


# ---------------------------------------------------------------------------
# Bypass: the layers a workload must not reach
# ---------------------------------------------------------------------------


def _traced_pass(monkeypatch, name, **sizes):
    for attr, value in sizes.items():
        monkeypatch.setattr(workloads, attr, value)
    monkeypatch.setenv("CLUTTERLAB_BUDGET", run.STEP_BUDGET)
    workload = workloads.WORKLOADS[name]()
    workload.setup(HERE.parent / ".perfbench")
    mods = tracer.package_modules()
    census = tracer.CacheCensus(tracer.scan_caches(mods))
    census.reset()
    tr = tracer.Tracer(gave_up=(Undecided, ResourceExceeded))
    tr.install(mods)
    try:
        records, _, failures, _ = worker.run_passes(workload, 1, 0.0, 1, census, tr)
    finally:
        tr.uninstall()
    assert records and not failures
    return tr.metrics()


def _calls_into(metrics, prefixes):
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") and k.startswith(prefixes) and v}


def test_census_bypasses_the_polyhedral_layers(monkeypatch):
    m = _traced_pass(monkeypatch, "census", CENSUS_MAX_N=5)
    bypassed = ("kernel.", "polyhedron.", "lattice.", "ideals.", "tdi.", "ehrhart.", "cli.")
    assert _calls_into(m, bypassed) == {}
    assert m["families.canonical_form.calls"] > 0
    assert m["combinat.is_meyniel_via_hoang.calls"] > 0


def test_systems_bypasses_box_scan_ideals_and_families(monkeypatch):
    m = _traced_pass(monkeypatch, "systems", SYSTEMS_POOL_SIZE=20)
    box = ("polyhedron.lattice_points", "polyhedron.relative_interior_lattice_points")
    assert _calls_into(m, box + ("ideals.", "families.")) == {}
    assert m["polyhedron.box.calls"] == 0
    assert m["tdi.sufficiency_check.calls"] == 20
    assert m["lattice.hilbert_basis.calls"] > 0


# ---------------------------------------------------------------------------
# The declared metrics
# ---------------------------------------------------------------------------


def test_benchmark_json_declares_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert len(run.PER_LAYER) <= 128
