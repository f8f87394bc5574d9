"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Every tolerance and bound is pinned here.
"""

import json
import random
import time
from pathlib import Path

import pytest

from clutterlab import cli, combinat, ehrhart, families, ideals, tdi
from clutterlab.combinat import Clutter
from clutterlab.tdi import LinearSystem

from conftest import random_system

GOLDEN = Path(__file__).parent / "golden"


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_line_graph_k24():
    """Clique clutter of the line graph of K_{2,4}: perfect, ideal, flow
    property, not lattice-spanning, with the height-3 gap witness."""
    t0 = time.monotonic()
    g, c = families.line_graph_k24()
    perfect, _ = combinat.is_perfect_small(g)
    ideal_ok, _ = tdi.is_ideal_clutter(c)
    mfmc_ok = tdi.is_mfmc(c).holds
    ehr_ok, witnesses = ehrhart.is_ehrhart_clutter(c)
    elapsed = time.monotonic() - t0
    ok = (
        perfect
        and ideal_ok
        and mfmc_ok
        and not ehr_ok
        and witnesses == ((1, 1, 1, 1, 1, 1, 1, 1, 3),)
        and elapsed < 10.0
    )
    report("1 (line graph of K24)", ok, f"{elapsed:.1f}s")


def test_criterion_02_sharpness_family_exact():
    """Both series bounds attained exactly across the transversal family."""
    t0 = time.monotonic()
    for d, g in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]:
        c = families.sharpness_clutter(d, g)
        a = ehrhart.analyze(c)
        assert a.is_ehrhart, (d, g)
        assert a.a_invariant == -g, (d, g, a.a_invariant)
        assert ehrhart.a_invariant_interior(c) == -g, (d, g)
        assert a.regularity == (d - 1) * (g - 1), (d, g, a.regularity)
    elapsed = time.monotonic() - t0
    report("2 (sharp bounds on the transversal family)", elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_03_unmixed_bipartite_sweep():
    """Every connected unmixed bipartite graph with at most 8 vertices:
    the blocker spans its cone lattice and regularity <= n/2 - 1."""
    t0 = time.monotonic()
    graphs = families.unmixed_bipartite_graphs(8)
    assert graphs, "enumeration must be nonempty"
    violations = []
    for g in graphs:
        b = combinat.blocker(Clutter(g.n, g.edges))
        a = ehrhart.analyze(b)
        if not a.is_ehrhart or a.regularity > g.n // 2 - 1:
            violations.append(g)
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 600.0
    report("3 (unmixed bipartite blockers, n <= 8)", ok,
           f"{len(graphs)} graphs, {elapsed:.1f}s")


def test_criterion_04_equivalence_suite():
    """200 seeded Meyniel instances: clique clutters span their cone
    lattice and the verdict vector is internally consistent."""
    t0 = time.monotonic()
    fams = ["chordal", "bipartite", "meyniel-closure"]
    violations = []
    for idx in range(200):
        fam = fams[idx % 3]
        g = families.conjecture_instance(fam, idx, 8, 421)
        assert combinat.is_meyniel(g)[0], (fam, idx)
        c = combinat.clique_clutter(g)
        v = tdi.clutter_verdicts(c)
        mfmc = v.mfmc is True or v.mfmc == "vacuous"
        if not v.is_ehrhart:
            violations.append((fam, idx, "not lattice-spanning"))
        if v.ideal != mfmc:
            violations.append((fam, idx, "ideal and flow property disagree"))
        if (not v.ntf.ok or not v.closure_vs_symbolic.ok) and v.ideal:
            violations.append((fam, idx, "bounded power failure on an ideal instance"))
        if not v.consistent:
            violations.append((fam, idx, "inconsistent verdict vector"))
    elapsed = time.monotonic() - t0
    report("4 (200-instance equivalence suite)", not violations,
           f"{elapsed:.1f}s, violations: {violations[:3]}")


def test_criterion_05_perfection_crosscheck_exhaustive():
    """Perfection, stability-polytope integrality and dual integrality agree
    on every graph with at most 6 vertices (up to isomorphism)."""
    t0 = time.monotonic()
    disagreements = []
    total = 0
    for n in range(1, 7):
        for g in families.graphs_upto_iso(n):
            rep = tdi.perfection_crosscheck(g)
            total += 1
            if not rep.agree:
                disagreements.append((g, rep))
    elapsed = time.monotonic() - t0
    ok = not disagreements and elapsed < 900.0
    report("5 (three-way perfection agreement, n <= 6)", ok,
           f"{total} graphs, {elapsed:.1f}s")


def test_criterion_06_meyniel_differential():
    """Chord counting and the stable-set characterization agree on every
    graph with at most 7 vertices (up to isomorphism)."""
    t0 = time.monotonic()
    disagreements = []
    total = 0
    for n in range(1, 8):
        for g in families.graphs_upto_iso(n):
            direct, _ = combinat.is_meyniel(g)
            if direct != combinat.is_meyniel_via_hoang(g):
                disagreements.append(g)
            total += 1
    elapsed = time.monotonic() - t0
    report("6 (Meyniel differential, n <= 7)", not disagreements,
           f"{total} graphs, {elapsed:.1f}s")


def test_criterion_07a_sufficiency_never_violated():
    """500 seeded systems: integral polyhedron + lifted Hilbert basis
    always forces dual integrality."""
    t0 = time.monotonic()
    rng = random.Random(2024)
    bad = []
    for _ in range(500):
        cols, w = random_system(rng, -3)
        rep = tdi.sufficiency_check(LinearSystem(cols, w))
        if not rep.implication_respected:
            bad.append((cols, w, rep))
    elapsed = time.monotonic() - t0
    report("7a (sufficiency on 500 systems)", not bad, f"{elapsed:.1f}s")


def test_criterion_07b_nonnegative_equivalence():
    """500 seeded nonnegative systems: two-sided agreement of the stated
    equivalence.  The lifted set includes e_{n+1}; without it the only-if
    direction is false whenever no weight equals one: x >= 0, x1+x2 <= 2
    is dually integral with an integral polyhedron, yet the lifted set
    cannot reach height 1.  See CHANGES.md for the full analysis."""
    t0 = time.monotonic()
    rng = random.Random(2025)
    disagreements = []
    for _ in range(500):
        cols, w = random_system(rng, 0)
        rep = tdi.nonnegative_equivalence_check(cols, w)
        if not rep.iff_respected:
            disagreements.append((cols, w, rep))
    elapsed = time.monotonic() - t0
    report(
        "7b (two-sided nonnegative equivalence on 500 systems)",
        not disagreements,
        f"{elapsed:.1f}s, first disagreement: {disagreements[0][:2] if disagreements else None}",
    )


def test_criterion_07c_edmonds_giles_necessity():
    """Dual integrality always forces an integral polyhedron."""
    t0 = time.monotonic()
    rng = random.Random(2026)
    from clutterlab import polyhedron

    bad = []
    for _ in range(500):
        cols, w = random_system(rng, -3)
        system = LinearSystem(cols, w)
        cert = tdi.is_tdi(system)  # also asserts necessity internally
        if cert.verdict is True:
            h = system.hrep()
            ok, _ = polyhedron.is_integral(polyhedron.dd_convert(h), h)
            if not ok:
                bad.append((cols, w))
    elapsed = time.monotonic() - t0
    report("7c (necessity on 500 systems)", not bad, f"{elapsed:.1f}s")


def test_criterion_08_classical_witnesses(triangle, square):
    """Triangle: (1,1,1) separates symbolic from ordinary squares, closure
    stays equal, not ideal, no flow property, no Koenig.  Square cycle:
    everything holds."""
    it = ideals.edge_ideal(triangle)
    s2 = ideals.symbolic_power(triangle, 2)
    p2 = ideals.power(it, 2)
    c2 = ideals.closure_power(it, 2)
    tri_ok = (
        s2.contains((1, 1, 1))
        and not p2.contains((1, 1, 1))
        and c2.gens == p2.gens
        and not tdi.is_ideal_clutter(triangle)[0]
        and tdi.is_mfmc(triangle).verdict is False
        and not combinat.has_konig(triangle)
    )
    sq_ok = (
        ideals.is_ntf(square).ok
        and tdi.is_ideal_clutter(square)[0]
        and tdi.is_mfmc(square).holds
        and combinat.has_konig(square)
    )
    report("8 (classical witnesses)", tri_ok and sq_ok)


def test_criterion_09_nonnormal_chordal_search():
    """The default search returns a chordal (hence Meyniel, perfect) graph
    whose clique-clutter edge ideal fails normality, with a verified
    witness, matching the frozen golden instance."""
    t0 = time.monotonic()
    hit = families.search_nonnormal_chordal()
    assert hit is not None, "search must find an instance within budget"
    ok = (
        families.is_chordal(hit.graph)
        and combinat.is_meyniel(hit.graph)[0]
        and combinat.is_perfect_small(hit.graph)[0]
    )
    ide = ideals.edge_ideal(hit.clutter)
    ok = ok and ideals.closure_contains(ide, hit.power, hit.witness)
    ok = ok and not ideals.power(ide, hit.power).contains(hit.witness)
    golden = json.loads((GOLDEN / "nonnormal_chordal.json").read_text())
    got = {
        "schema_version": 1,
        "graph": cli.instance_payload(hit.graph),
        "clutter": cli.instance_payload(hit.clutter),
        "power": hit.power,
        "witness": list(hit.witness),
    }
    ok = ok and json.loads(cli.canonical_json(got)) == golden
    elapsed = time.monotonic() - t0
    report("9 (non-normal chordal search + golden file)", ok,
           f"n={hit.graph.n}, power={hit.power}, {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    """Re-running with the same seed produces byte-identical certificates."""
    sq = tmp_path / "sq.json"
    sq.write_text('{"kind":"clutter","n":4,"edges":[[0,1],[1,2],[2,3],[0,3]]}')
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        assert cli.main(["check", "mfmc", "--input", str(sq), "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]

    batches = []
    for name in ("c", "d"):
        out = tmp_path / f"{name}.json"
        code = cli.main([
            "conjecture", "--families", "chordal,bipartite", "--max-n", "6",
            "--seed", "31", "--count", "6", "--output", str(out),
        ])
        assert code == 0
        batches.append(out.read_bytes())
    ok = ok and batches[0] == batches[1]

    ex = []
    for name in ("e", "f"):
        d = tmp_path / name
        assert cli.main(["examples", "--name", "blocker-c4", "--outdir", str(d)]) == 0
        ex.append((d / "blocker-c4.cert.json").read_bytes())
    ok = ok and ex[0] == ex[1]
    report("10 (byte-identical certificates)", ok)
