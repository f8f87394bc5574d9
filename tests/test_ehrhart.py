import pytest

from clutterlab import combinat, ehrhart
from clutterlab.combinat import Clutter, RawClutter
from clutterlab.errors import Undecided, UsageError
from clutterlab.families import line_graph_k24, sharpness_clutter


@pytest.fixture
def blocker_square(square):
    return combinat.blocker(square)  # the two diagonals


@pytest.fixture
def unit_square_clutter():
    return sharpness_clutter(2, 2)  # edge polytope is a unit square


def test_counting_function(triangle, blocker_square, unit_square_clutter):
    assert ehrhart.ehrhart_function(triangle, 0) == 1
    assert ehrhart.ehrhart_function(unit_square_clutter, 2) == 9
    assert ehrhart.ehrhart_function(blocker_square, 3) == 4


def test_hvectors(triangle, blocker_square, unit_square_clutter):
    assert ehrhart.hvector(unit_square_clutter) == (1, 1)
    assert ehrhart.hvector(blocker_square) == (1,)
    assert ehrhart.hvector(RawClutter(2, [(0, 1)])) == (1,)
    assert ehrhart.hvector(triangle) == (1,)


def test_series_degree_both_routes(triangle, blocker_square, unit_square_clutter):
    for c, want in [
        (unit_square_clutter, -2),
        (blocker_square, -2),
        (RawClutter(2, [(0, 1)]), -1),
        # the edge polytope of the triangle is a unimodular 2-simplex, so
        # its first dilation with an interior lattice point is the third
        (triangle, -3),
    ]:
        assert ehrhart.a_invariant_series(c) == want
        assert ehrhart.a_invariant_interior(c) == want


def test_regularity(triangle, blocker_square, unit_square_clutter):
    assert ehrhart.regularity(unit_square_clutter) == 1
    assert ehrhart.regularity(sharpness_clutter(2, 3)) == 2
    assert ehrhart.regularity(blocker_square) == 0
    assert ehrhart.regularity(triangle) == 0


def test_hvector_consistency_random():
    import random

    rng = random.Random(17)
    done = 0
    while done < 12:
        n = rng.randint(3, 6)
        cand = [
            tuple(sorted(rng.sample(range(n), rng.randint(2, min(3, n)))))
            for _ in range(rng.randint(2, 5))
        ]
        keep = [e for e in cand if not any(set(f) < set(e) for f in cand)]
        if {v for e in keep for v in e} != set(range(n)):
            continue
        c = Clutter(n, keep)
        a = ehrhart.analyze(c)
        assert a.hvector[0] == 1
        assert all(h >= 0 for h in a.hvector)
        assert a.regularity == len(a.hvector) - 1
        assert a.regularity >= 0
        # h(1) equals the normalized leading coefficient of the counting
        # polynomial: dim! * vol = the dim-th finite difference of counts
        from math import comb

        counts = [ehrhart.ehrhart_function(c, b) for b in range(a.dim + 1)]
        lead = sum((-1) ** (a.dim - j) * comb(a.dim, j) * counts[j] for j in range(a.dim + 1))
        assert lead == sum(a.hvector)
        done += 1


def test_ehrhart_clutter_verdicts(triangle, square, blocker_square):
    assert ehrhart.is_ehrhart_clutter(triangle)[0]
    assert ehrhart.is_ehrhart_clutter(square)[0]
    assert ehrhart.is_ehrhart_clutter(blocker_square)[0]
    _, cl = line_graph_k24()
    ok, witnesses = ehrhart.is_ehrhart_clutter(cl)
    assert not ok
    assert witnesses == ((1, 1, 1, 1, 1, 1, 1, 1, 3),)


def test_canonical_degrees(blocker_square, unit_square_clutter):
    gens = ehrhart.canonical_degrees(blocker_square)
    assert min(b for _, b in gens) == 2
    assert ((1, 1, 1, 1, 2), 2) in gens
    gens = ehrhart.canonical_degrees(unit_square_clutter)
    assert min(b for _, b in gens) == 2
    assert ((1, 1, 1, 1, 2), 2) in gens


def test_canonical_degrees_cover_inequalities(unit_square_clutter, square):
    # interior generators have all entries >= 1; cover sums meet the degree,
    # strictly so for covers that cut a proper face (some edge met twice)
    for c in (unit_square_clutter, combinat.blocker(square), square):
        covers = combinat.minimal_covers(c)
        for vec, b in ehrhart.canonical_degrees(c):
            assert all(x >= 1 for x in vec[:-1])
            for cov in covers:
                total = sum(vec[i] for i in cov)
                assert total >= b
                proper = any(len(set(cov) & set(e)) >= 2 for e in c.edges)
                if proper:
                    assert total >= b + 1


def test_canonical_degrees_requires_spanning():
    _, cl = line_graph_k24()
    with pytest.raises(UsageError):
        ehrhart.canonical_degrees(cl)


def test_bound_report(triangle, blocker_square, unit_square_clutter):
    rep = ehrhart.check_regularity_bounds(unit_square_clutter)
    assert rep.hypotheses_met and rep.ok
    assert rep.a_invariant == -2 and rep.a_tight
    assert rep.regularity == 1 and rep.reg_tight
    rep = ehrhart.check_regularity_bounds(blocker_square)
    assert rep.hypotheses_met and rep.ok
    assert rep.regularity == 0 and rep.reg_bound == 1 and not rep.reg_tight
    rep = ehrhart.check_regularity_bounds(triangle)
    assert not rep.hypotheses_met
    assert "mfmc" in rep.missing


def test_bound_check_undecided_under_budget():
    # budget 1 cannot decide the flow property, which sharpness_clutter(3, 2)
    # does have: the hypothesis is undecided, not missing
    c = sharpness_clutter(3, 2)
    with pytest.raises(Undecided):
        ehrhart.check_regularity_bounds(c, budget=1)
    rep = ehrhart.check_regularity_bounds(c)
    assert rep.hypotheses_met and not rep.missing


def test_rank_bound_for_flow_instances():
    # rank of the edge incidence matrix stays within g + (d-1)(g-1)
    from clutterlab import kernel

    for d, g in [(2, 2), (2, 3), (3, 2)]:
        c = sharpness_clutter(d, g)
        rank = kernel.rank(c.matrix_rows())
        assert rank <= g + (d - 1) * (g - 1)
        assert rank == g + (d - 1) * (g - 1)  # attained by this family


def test_konig_for_flow_instances():
    for d, g in [(2, 2), (2, 3), (3, 2)]:
        c = sharpness_clutter(d, g)
        assert combinat.has_konig(c)
