import functools
import itertools
import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clutterlab import combinat, ehrhart, errors, kernel, lattice, polyhedron, tdi
from clutterlab.combinat import Clutter, RawClutter, SimpleGraph
from clutterlab.errors import DEFAULT_STEP_BUDGET, Undecided, UsageError
from clutterlab.families import cycle_clutter, line_graph_k24, sharpness_clutter
from clutterlab.lattice import ConeWithLattice

from conftest import Q6_EDGES, brute_lattice_points, rank_oracle, two_k4_graph


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
    assert ehrhart.analyze(unit_square_clutter).hvector == (1, 1)
    assert ehrhart.analyze(blocker_square).hvector == (1,)
    assert ehrhart.analyze(RawClutter(2, [(0, 1)])).hvector == (1,)
    assert ehrhart.analyze(triangle).hvector == (1,)


def test_series_degree_both_routes(triangle, blocker_square, unit_square_clutter):
    for c, want in [
        (unit_square_clutter, -2),
        (blocker_square, -2),
        (RawClutter(2, [(0, 1)]), -1),
        # the edge polytope of the triangle is a unimodular 2-simplex, so
        # its first dilation with an interior lattice point is the third
        (triangle, -3),
    ]:
        a = ehrhart.analyze(c)
        assert (len(a.hvector) - 1) - (a.dim + 1) == want  # degree of the series
        assert ehrhart.a_invariant_interior(c) == want


def test_regularity(triangle, blocker_square, unit_square_clutter):
    assert ehrhart.analyze(unit_square_clutter).regularity == 1
    assert ehrhart.analyze(sharpness_clutter(2, 3)).regularity == 2
    assert ehrhart.analyze(blocker_square).regularity == 0
    assert ehrhart.analyze(triangle).regularity == 0


def test_hvector_consistency_random():
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
        points = _brute_dilations(c.characteristic_vectors())
        counts = [len(points(b)[0]) for b in range(a.dim + 1)]
        lead = sum((-1) ** (a.dim - j) * comb(a.dim, j) * counts[j] for j in range(a.dim + 1))
        assert lead == sum(a.hvector)
        done += 1


# ---------------------------------------------------------------------------
# The half-open decompositions against brute-force lattice points
# ---------------------------------------------------------------------------


def _hrep(vertices):
    """(facets, normals) of the cone over P = conv(vertices) at height 1:
    the facet normals, and those with every equation normal in both signs,
    so that (x, b) lies in the cone, x in bP, exactly when every normal has
    <a, (x, b)> <= 0."""
    lifted = [tuple(v) + (1,) for v in vertices]
    facets, eqs = polyhedron.cone_generators_to_hrep(lifted, len(lifted[0]))
    return facets, facets + eqs + tuple(tuple(-x for x in c) for c in eqs)


def _brute_dilations(vertices):
    """b -> (points, relative-interior points) of bP for nonnegative
    vertices, by a scan of the box [0, b * largest coordinate]^n."""
    facets, normals = _hrep(vertices)
    top = max(max(v) for v in vertices)

    @functools.cache
    def points(b):
        closed = brute_lattice_points(normals, b, (0, b * top))
        strict = [p for p in closed if all(kernel.dot(a, p + (b,)) < 0 for a in facets)]
        return closed, strict

    return points


def _series_count(points, dim: int, b: int) -> int:
    """Lattice points of height b in the union of the half-open simplicial
    cones p + N*simplex over the given points p (every generator at height 1)."""
    return sum(comb(b - x[-1] + dim, dim) for x in points if x[-1] <= b)


def _random_clutters(seed: int, count: int, cost: int):
    """Seeded clutters with n 2..6 and edges of one or two sizes, kept when
    a box scan of (dim + 2)P costs at most `cost` points."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 6)
        s = rng.randint(1, n - 1)
        sizes = (s,) if rng.random() < 0.5 else (s, s + 1)
        cand = [tuple(sorted(rng.sample(range(n), rng.choice(sizes)))) for _ in range(rng.randint(2, 10))]
        edges = sorted({e for e in cand if not any(set(f) < set(e) for f in cand)})
        c = RawClutter(n, edges)
        dim = rank_oracle([v + (1,) for v in c.characteristic_vectors()]) - 1
        if (dim + 3) ** n <= cost:
            out.append(c)
    return out


def _check_decompositions(vertices, bmax: int):
    """Both decompositions of the lifted cone count bP and its relative
    interior for b = 1..bmax exactly as the brute-force scan does."""
    cone = ConeWithLattice.from_vectors([tuple(v) + (1,) for v in vertices])
    closed, interior = lattice.half_open_points(cone)
    assert len(set(closed)) == len(closed) and len(set(interior)) == len(interior)
    assert all(cone.contains(x) for x in closed + interior)
    dim = rank_oracle(cone.generators) - 1
    points = _brute_dilations(vertices)
    for b in range(1, bmax + 1):
        got_closed, got_strict = points(b)
        assert _series_count(closed, dim, b) == len(got_closed), (vertices, b)
        assert _series_count(interior, dim, b) == len(got_strict), (vertices, b)
    return closed, interior


def test_half_open_decompositions_on_box_scan_instances():
    # the instances of the retired box-scan tests in test_polyhedron
    unit_square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    closed, interior = _check_decompositions(unit_square, 4)
    assert sorted(x[-1] for x in closed) == [0, 1]
    assert [x for x in interior if x[-1] == 2] == [(1, 1, 2)]  # (1, 1) inside 2P
    embedded_square = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
    _check_decompositions(embedded_square, 3)
    segment = [(1, 0, 1, 0), (0, 1, 0, 1)]
    closed, interior = _check_decompositions(segment, 3)
    assert closed == [(0, 0, 0, 0, 0)] and interior == [(1, 1, 1, 1, 2)]
    # a point polytope is its own relative interior
    point = ConeWithLattice.from_vectors([(3, 5, 1)])
    assert lattice.half_open_points(point) == ([(0, 0, 0)], [(3, 5, 1)])


def test_half_open_decompositions_match_brute_force_on_random_clutters():
    dims = set()
    for c in _random_clutters(41, 40, 60_000):
        vecs = c.characteristic_vectors()
        dim = rank_oracle([v + (1,) for v in vecs]) - 1
        _check_decompositions(vecs, dim + 1)
        dims.add((c.n, dim))
    # edge polytopes of dimension 0 to 4, some below n - 1 (the dimension
    # of a uniform clutter's polytope)
    assert any(d < n - 1 for n, d in dims) and max(d for _, d in dims) == 4


def test_half_open_decompositions_match_brute_force_on_random_polytopes():
    # lattice polytopes with vertices in {0, ..., 3}^n have simplices of
    # determinant above 1, so the parallelepipeds hold more than the origin
    rng = random.Random(23)
    deep = 0
    for _ in range(40):
        n = rng.randint(2, 3)
        pts = sorted({tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))})
        dim = rank_oracle([p + (1,) for p in pts]) - 1
        closed, interior = _check_decompositions(pts, dim + 1)
        deep += any(x[-1] >= 2 for x in closed)
    assert deep >= 10


def test_line_graph_k24_decompositions():
    # not Ehrhart; n = 8 puts b = dim + 1 out of brute-force reach, but the
    # counts of bP for b <= 3 already fix h_0..h_3, and those of its
    # interior fix h_3..h_5
    _, c = line_graph_k24()
    _check_decompositions(c.characteristic_vectors(), 3)
    assert ehrhart.analyze(c).hvector == (1, 0, 0, 1)


def _brute_canonical_degrees(c, dim, points):
    """Interior points of bP up to b = dim + 2, lifted, that no interior point
    of a smaller dilation divides (difference in (b - b')P), sorted."""
    _, normals = _hrep(c.characteristic_vectors())
    interior = [(p + (b,), b) for b in range(1, dim + 3) for p in points(b)[1]]

    def in_dilation(x, k):
        return all(kernel.dot(a, x + (k,)) <= 0 for a in normals)

    gens = [
        (x, b)
        for x, b in interior
        if not any(
            b2 < b and in_dilation(tuple(p - q for p, q in zip(x[:-1], y)), b - b2)
            for y, b2 in interior
        )
    ]
    return tuple(sorted(gens))


def test_series_invariants_match_brute_force():
    ehrhart_seen = 0
    complete_graphs = [Clutter(n, list(itertools.combinations(range(n), 2))) for n in (4, 5)]
    named = [sharpness_clutter(2, 2)] + complete_graphs
    for c in _random_clutters(43, 30, 20_000) + named:
        a = ehrhart.analyze(c)
        points = _brute_dilations(c.characteristic_vectors())
        first_interior = None
        for b in range(a.dim + 2):
            closed, strict = points(b)
            assert ehrhart.ehrhart_function(c, b) == len(closed), (c, b)
            if b and strict and first_interior is None:
                first_interior = b
        assert a.a_invariant == ehrhart.a_invariant_interior(c) == -first_interior
        if a.is_ehrhart:
            ehrhart_seen += 1
            assert ehrhart.canonical_degrees(c) == _brute_canonical_degrees(c, a.dim, points), c
    assert ehrhart_seen >= 10


def test_analyze_checks_reciprocity(monkeypatch):
    # a repeated interior point leaves h and the least interior height, so
    # the a-invariant and the regularity, as they were: only reciprocity
    # sees it
    real = lattice.half_open_points

    def extra_interior_point(cone):
        closed, interior = real(cone)
        return closed, interior + [max(interior, key=lambda x: x[-1])]

    monkeypatch.setattr(lattice, "half_open_points", extra_interior_point)
    with pytest.raises(AssertionError, match="reciprocity"):
        ehrhart.analyze.__wrapped__(sharpness_clutter(2, 3))


def test_analyze_cache_keys_on_the_resolved_budget(monkeypatch):
    # the bull's Hilbert basis takes 6 steps: an analysis cached under the
    # default budget must not answer once CLUTTERLAB_BUDGET lowers it to 3
    bull = Clutter(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)])
    monkeypatch.delenv("CLUTTERLAB_BUDGET", raising=False)
    ehrhart.analyze.cache_clear()
    ehrhart.analyze(bull)
    with errors.budget(DEFAULT_STEP_BUDGET):  # the same key as no scope
        ehrhart.analyze(bull)
    assert ehrhart.analyze.cache_info().hits == 1
    monkeypatch.setenv("CLUTTERLAB_BUDGET", "3")
    with pytest.raises(Undecided):
        ehrhart.analyze(bull)
    monkeypatch.setenv("CLUTTERLAB_BUDGET", "6")
    assert ehrhart.analyze(bull).is_ehrhart


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


def test_canonical_degrees_spend_the_budget():
    # K_{3,3}'s lifted cone has one canonical generator; reducing its
    # interior points takes 5 comparisons, while its analysis spends none
    c = sharpness_clutter(2, 3)
    with errors.budget(0):
        assert ehrhart.analyze(c).is_ehrhart
    with errors.budget(4), pytest.raises(Undecided, match="canonical module generators"):
        ehrhart.canonical_degrees(c)
    with errors.budget(5):
        assert ehrhart.canonical_degrees(c) == (((1, 1, 1, 1, 1, 1, 3), 3),)


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
    # budget 10 lets `analyze` finish on the two K4s but cannot decide their
    # flow property, which they do have: the hypothesis is undecided, not
    # missing
    c = combinat.clique_clutter(two_k4_graph())
    with errors.budget(10), pytest.raises(Undecided, match="flow property"):
        ehrhart.check_regularity_bounds(c)
    assert ehrhart.check_regularity_bounds(c).missing == ("uniform",)
    # an Ehrhart clutter's flow property is its idealness, which spends no
    # step, so budget 1 decides sharpness_clutter(3, 2) and the pentagon
    with errors.budget(1):
        rep = ehrhart.check_regularity_bounds(sharpness_clutter(3, 2))
        assert rep.hypotheses_met and not rep.missing
        assert ehrhart.check_regularity_bounds(cycle_clutter(5)).missing == ("mfmc",)


def test_flow_property_pins_off_the_ehrhart_route():
    # two instances whose flow property takes the face checks: the two K4s
    # are ideal and MFMC, Q6 is ideal and not MFMC; neither is Ehrhart
    k4s = combinat.clique_clutter(two_k4_graph())
    q6 = combinat.as_clutter_or_raw(6, Q6_EDGES)
    for c, mfmc, missing in ((k4s, True, ("uniform",)), (q6, False, ("unmixed", "mfmc"))):
        assert tdi.is_ideal_clutter(c)[0]
        assert not ehrhart.analyze(c).is_ehrhart
        assert tdi.is_mfmc(c).verdict is mfmc
        assert ehrhart.check_regularity_bounds(c).missing == missing


@st.composite
def drawn_clutters(draw):
    """A clutter with at least one edge, of one of three kinds: the minimal
    sets among drawn subsets of at most 6 vertices (mostly Ehrhart), 7 to 11
    drawn triples on 7 vertices (some not Ehrhart) or the clique clutter of
    a drawn graph on at most 8 vertices."""
    kind = draw(st.sampled_from(("subsets", "triples", "cliques")))
    if kind == "cliques":
        n = draw(st.integers(1, 8))
        pairs = itertools.combinations(range(n), 2)
        return combinat.clique_clutter(SimpleGraph(n, [e for e in pairs if draw(st.booleans())]))
    if kind == "triples":
        n = 7
        triple = st.frozensets(st.integers(0, n - 1), min_size=3, max_size=3)
        masks = [sum(1 << i for i in e) for e in draw(st.sets(triple, min_size=7, max_size=11))]
    else:
        n = draw(st.integers(1, 6))
        masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=7))
    minimal = {m for m in masks if not any(o != m and o & m == o for o in masks)}
    edges = [tuple(i for i in range(n) if m >> i & 1) for m in sorted(minimal)]
    return combinat.as_clutter_or_raw(n, edges)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drawn_clutters())
@example(combinat.as_clutter_or_raw(6, Q6_EDGES))
@example(combinat.clique_clutter(two_k4_graph()))
@example(cycle_clutter(5))
def test_flow_property_by_idealness_matches_the_face_checks(c):
    # the bounds check reads an Ehrhart clutter's flow property off its
    # idealness; the face-by-face certificate must agree on every clutter
    missing = ehrhart.check_regularity_bounds(c).missing
    assert ("mfmc" in missing) == (not tdi.is_mfmc(c).holds)


def test_rank_bound_for_flow_instances():
    # rank of the edge incidence matrix stays within g + (d-1)(g-1)
    for d, g in [(2, 2), (2, 3), (3, 2)]:
        c = sharpness_clutter(d, g)
        rank = rank_oracle(c.characteristic_vectors())
        assert rank <= g + (d - 1) * (g - 1)
        assert rank == g + (d - 1) * (g - 1)  # attained by this family


def test_konig_for_flow_instances():
    for d, g in [(2, 2), (2, 3), (3, 2)]:
        c = sharpness_clutter(d, g)
        assert combinat.has_konig(c)
