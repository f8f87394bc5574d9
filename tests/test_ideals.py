import itertools
import random
from fractions import Fraction

import pytest

from clutterlab import combinat, errors, families, ideals
from clutterlab.combinat import Clutter, RawClutter
from clutterlab.errors import Undecided, UsageError
from clutterlab.ideals import MonomialIdeal

from conftest import (
    brute_staircase_min,
    closure_power_oracle,
    minimalize_parent_oracle,
    power_comparisons_oracle,
    staircase_points_oracle,
    symbolic_power_oracle,
)


def random_clutters(seed, count, nmin=3, nmax=6, max_edges=5):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(nmin, nmax)
        cand = [
            tuple(sorted(rng.sample(range(n), rng.randint(2, min(3, n)))))
            for _ in range(rng.randint(2, max_edges))
        ]
        keep = [e for e in cand if not any(set(f) < set(e) for f in cand)]
        if {v for e in keep for v in e} != set(range(n)):
            continue
        out.append(Clutter(n, keep))
    return out


def test_monomial_ideal_rejects_non_integers():
    for n, gens in ((2.0, [(1, 0)]), ("2", [(1, 0)]), (2, [(0.5, 1)]), (2, [("1", 0)]),
                    (2, [(Fraction(1), 0)])):
        with pytest.raises(UsageError, match="expected an integer"):
            MonomialIdeal(n, gens)
    assert MonomialIdeal(2, [(True, 1)]).gens == ((1, 1),)  # bools are integers


def test_minimalize_matches_the_parent_scan():
    rng = random.Random(34)
    for _ in range(500):
        n = rng.randint(0, 5)
        vectors = [tuple(rng.choice([0, 0, 1, 2, 3, 4]) for _ in range(n))
                   for _ in range(rng.randint(0, 12))]
        assert ideals._minimalize(vectors) == minimalize_parent_oracle(vectors), vectors


def test_minimalisation_spends_the_budget():
    # {01, 123} is not uniform: the sums of its cube differ in total, and
    # minimalising them takes 6 comparisons; the edge ideal itself takes 1
    ideal = ideals.edge_ideal(RawClutter(4, [(0, 1), (1, 2, 3)]))
    cube = ideals.power(ideal, 3)
    assert cube.gens == ((0, 3, 3, 3), (1, 3, 2, 2), (2, 3, 1, 1), (3, 3, 0, 0))
    with errors.budget(5), pytest.raises(Undecided, match="monomial minimalisation"):
        ideals.power(ideal, 3)
    with errors.budget(6):
        assert ideals.power(ideal, 3) == cube
    with errors.budget(0), pytest.raises(Undecided, match="monomial minimalisation"):
        ideals.edge_ideal(RawClutter(4, [(0, 1), (1, 2, 3)]))
    # every sum of a uniform clutter's generators has one total: no comparison
    with errors.budget(0):
        c5 = ideals.edge_ideal(families.cycle_clutter(5))
        cube = ideals.power(c5, 3)
    sums = [tuple(map(sum, zip(*combo))) for combo in itertools.combinations_with_replacement(c5.gens, 3)]
    assert cube.gens == minimalize_parent_oracle(sums)


def test_edge_ideal(triangle, square):
    assert ideals.edge_ideal(triangle).gens == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert len(ideals.edge_ideal(square).gens) == 4
    assert ideals.edge_ideal(Clutter(3, [(0, 1, 2)])).gens == ((1, 1, 1),)


def test_power(triangle):
    it = ideals.edge_ideal(triangle)
    p2 = ideals.power(it, 2)
    assert len(p2.gens) == 6 and all(sum(g) == 4 for g in p2.gens)
    assert ideals.power(it, 1).gens == it.gens
    assert ideals.power(MonomialIdeal(3, [(1, 1, 1)]), 3).gens == ((3, 3, 3),)


def test_symbolic_power_triangle(triangle):
    s2 = ideals.symbolic_power(triangle, 2)
    assert s2.gens == ((0, 2, 2), (1, 1, 1), (2, 0, 2), (2, 2, 0))
    assert ideals.symbolic_power(triangle, 1).gens == ideals.edge_ideal(triangle).gens


def test_symbolic_power_square_equals_power(square):
    assert ideals.symbolic_power(square, 2).gens == ideals.power(
        ideals.edge_ideal(square), 2
    ).gens


def test_staircase_against_box_scan():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 4)
        s = rng.randint(1, 4)
        normals = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(s)]
        rhs = [rng.randint(0, 5) for _ in range(s)]
        got = staircase_points_oracle(n, normals, rhs)
        assert got == brute_staircase_min(n, normals, rhs, 10)


def test_closure_power_triangle(triangle):
    it = ideals.edge_ideal(triangle)
    c2 = ideals.closure_power(it, 2)
    assert c2.gens == ideals.power(it, 2).gens  # (1,1,1) stays excluded
    assert ideals.closure_power(it, 1).gens == it.gens
    assert ideals.closure_power(MonomialIdeal(2, [(2, 0)]), 1).gens == ((2, 0),)


def test_membership(triangle):
    s2 = ideals.symbolic_power(triangle, 2)
    p2 = ideals.power(ideals.edge_ideal(triangle), 2)
    assert s2.contains((1, 1, 1))
    assert not p2.contains((1, 1, 1))
    assert set(s2.gens) - set(p2.gens) == {(1, 1, 1)}


def test_scaffolded_closure_matches_direct():
    # the oracle's two staircase routes, and the Rees-cone basis
    for c in random_clutters(9, 12):
        ide = ideals.edge_ideal(c)
        for i in (1, 2, 3):
            direct = closure_power_oracle(ide, i)
            scaffolded = closure_power_oracle(ide, i, within=symbolic_power_oracle(c, i))
            assert direct.gens == scaffolded.gens == ideals.closure_power(ide, i).gens


def test_power_chain():
    for c in random_clutters(10, 10):
        ide = ideals.edge_ideal(c)
        for i in (1, 2, 3):
            pw = ideals.power(ide, i)
            cl = ideals.closure_power(ide, i)
            sym = ideals.symbolic_power(c, i)
            assert all(cl.contains(g) for g in pw.gens)
            assert all(sym.contains(g) for g in cl.gens)
            for big in (pw, cl, sym):
                gens = big.gens
                for a in gens:
                    for b in gens:
                        if a != b:
                            assert not all(x <= y for x, y in zip(a, b))


def test_first_powers_coincide_for_squarefree():
    for c in random_clutters(11, 8):
        ide = ideals.edge_ideal(c)
        assert ideals.symbolic_power(c, 1).gens == ide.gens
        assert ideals.closure_power(ide, 1).gens == ide.gens


def test_ntf_triangle_fails_at_two(triangle):
    rep = ideals.is_ntf(triangle)
    assert not rep.ok
    assert rep.failure_power == 2
    assert rep.witness == (1, 1, 1)


def test_ntf_square_holds(square):
    rep = ideals.is_ntf(square)
    assert rep.ok and rep.witness is None
    assert ideals.is_ntf(combinat.blocker(square)).ok


def test_normality_reports(triangle, square):
    rep = ideals.is_normal(triangle)
    assert rep.ok and rep.witness is None
    rep = ideals.closure_vs_symbolic(triangle)
    assert not rep.ok and rep.failure_power == 2
    assert ideals.is_normal(square).ok and ideals.closure_vs_symbolic(square).ok


def _cycle(n):
    return Clutter(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


# For n = 2k + 1, x_1...x_n lies in I(C_n)^(k+1), since every vertex cover
# of C_n has at least k + 1 vertices, but not in I^(k+1), whose generators
# have degree 2k + 2 > n.  Two disjoint pentagons: x_1...x_10 lies in the
# closure of I^5, as half the sum of the ten edges, but not in I^5, whose
# degree-10 generators are products of perfect matchings, and an odd cycle
# has none.  The staircase search confirms C_7 at powers 1..4; for C_9 and
# the pentagons it needs about 10 s and 28 s, so they are pinned here.
def test_exact_verdicts_above_power_three():
    c7 = _cycle(7)
    rep = ideals.is_ntf(c7)
    assert (rep.failure_power, rep.witness) == (4, (1,) * 7)
    assert power_comparisons_oracle(c7, 4)[0]["ntf"] == (4, (1,) * 7)
    rep = ideals.is_ntf(_cycle(9))
    assert (rep.failure_power, rep.witness) == (5, (1,) * 9)
    pentagons = Clutter(10, [(a + s, b + s) for s in (0, 5) for a, b in _cycle(5).edges])
    rep = ideals.is_normal(pentagons)
    assert (rep.failure_power, rep.witness) == (5, (1,) * 10)


def _agrees_with_staircase(rep, fail, r=3) -> bool:
    """An exact report against the staircase search for i = 1..r: equal
    where the search finds a failure, otherwise no failure at all or one
    above r."""
    if fail is not None:
        return (rep.failure_power, rep.witness) == fail
    return rep.ok or (rep.failure_power > r and rep.witness is not None)


def test_closure_vs_symbolic_shortcut_matches_full():
    # the symbolic-cone basis against the full staircase comparison
    for c in random_clutters(12, 10):
        fail = power_comparisons_oracle(c, 3)[0]["closure_vs_symbolic"]
        assert _agrees_with_staircase(ideals.closure_vs_symbolic(c), fail), c


# four triples covering each of six points twice, no two disjoint: ideal
# (closures of powers equal symbolic powers) but not normal
FOUR_TRIANGLES = Clutter(6, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)])


def test_four_triangle_configuration_not_normal():
    rep = ideals.is_normal(FOUR_TRIANGLES)
    assert not rep.ok
    assert rep.failure_power == 2
    assert rep.witness == (1, 1, 1, 1, 1, 1)


def _compare_with_staircase(clutters) -> dict:
    """Each report (failure power and witness) and the symbolic powers and
    closures for i = 1..3 against the staircase search; returns the number
    of failures the search finds at those powers, of each kind."""
    counts = {"ntf": 0, "closure_vs_symbolic": 0, "normal": 0}
    for c in clutters:
        fails, found = power_comparisons_oracle(c, 3)
        got = {
            "ntf": ideals.is_ntf(c),
            "closure_vs_symbolic": ideals.closure_vs_symbolic(c),
            "normal": ideals.is_normal(c),
        }
        for kind, rep in got.items():
            assert _agrees_with_staircase(rep, fails[kind]), (c, kind)
        ide = ideals.edge_ideal(c)
        for i, (sym, cl) in found.items():
            assert ideals.symbolic_power(c, i) == sym, (c, i)
            assert ideals.closure_power(ide, i) == cl, (c, i)
        for kind, fail in fails.items():
            counts[kind] += fail is not None
    return counts


def test_power_comparisons_match_staircase_search():
    fams = ["chordal", "bipartite", "meyniel-closure"]
    criterion_04 = [
        combinat.clique_clutter(families.conjecture_instance(fams[idx % 3], idx, 8, 421))
        for idx in range(200)
    ]
    counts = _compare_with_staircase(
        criterion_04 + random_clutters(13, 285, 3, 7, 7) + [FOUR_TRIANGLES]
    )
    assert all(counts.values()), counts
    assert counts["ntf"] > counts["closure_vs_symbolic"], counts


def test_nonnormal_search_candidates_match_staircase_search():
    # the candidates `search_nonnormal_chordal` examines, up to its hit
    candidates = [families.random_chordal(n, 7 * n + k) for n in range(4, 9) for k in range(2)]
    candidates += families._gadget_candidates()[:3]
    hit = families.search_nonnormal_chordal()
    assert candidates[-1] == hit.graph
    counts = _compare_with_staircase([combinat.clique_clutter(g) for g in candidates])
    assert counts["normal"] == 1 and counts["ntf"] > 0, counts


def test_nonnormal_search_spends_the_budget_in_force(monkeypatch):
    # a hit found under the default budget must not answer a lower one
    monkeypatch.delenv("CLUTTERLAB_BUDGET", raising=False)
    assert families.search_nonnormal_chordal() is not None
    monkeypatch.setenv("CLUTTERLAB_BUDGET", "3")
    with pytest.raises(Undecided):
        families.search_nonnormal_chordal()
