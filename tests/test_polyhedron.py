import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clutterlab import kernel, polyhedron, tdi
from clutterlab.combinat import RawClutter
from clutterlab.errors import UsageError
from clutterlab.polyhedron import HRep, VRep, cone_generators_to_hrep, dd_convert

from conftest import brute_vertices, dd_cone_oracle, face_heights_oracle, random_system

F = Fraction

UNIT_SQUARE = HRep(2, (((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)))

TRIANGLE_COVERING = HRep(3, (
    ((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0),
    ((-1, -1, 0), -1), ((0, -1, -1), -1), ((-1, 0, -1), -1),
))


def value(vertex):
    """The point q/t of a vertex pair (q, t), as Fractions."""
    q, t = vertex
    return tuple(F(x, t) for x in q)


def square_covering():
    ineqs = [(tuple(-int(i == j) for i in range(4)), 0) for j in range(4)]
    for a, b in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        ineqs.append((tuple(-int(i in (a, b)) for i in range(4)), -1))
    return HRep(4, tuple(ineqs))


def test_unit_square_vertices():
    v = dd_convert(UNIT_SQUARE)
    assert v.vertices == (((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), 1))
    assert not v.rays and not v.lines
    assert list(map(value, v.vertices)) == brute_vertices(UNIT_SQUARE)


def test_triangle_covering_has_half_vertex():
    v = dd_convert(TRIANGLE_COVERING)
    assert ((1, 1, 1), 2) in v.vertices
    assert set(v.vertices) == {((1, 1, 1), 2), ((1, 1, 0), 1), ((1, 0, 1), 1), ((0, 1, 1), 1)}
    assert set(v.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    ok, witness = polyhedron.is_integral(v, TRIANGLE_COVERING)
    assert not ok and witness == (F(1, 2), F(1, 2), F(1, 2))


def test_square_covering_integral():
    h = square_covering()
    v = dd_convert(h)
    assert set(v.vertices) == {((1, 0, 1, 0), 1), ((0, 1, 0, 1), 1)}
    assert polyhedron.is_integral(v, h)[0]


def test_minimal_faces_of_square_covering():
    h = square_covering()
    v = dd_convert(h)
    faces = polyhedron.minimal_faces(h, v)
    assert len(faces) == 2 and not v.lines  # pointed: every minimal face is a vertex
    for f in faces:
        # active constraints really are tight, all others strict
        for i, (a, b) in enumerate(h.ineqs):
            val = kernel.dot(a, f.point)
            assert (val == b) == (i in f.active)


def test_minimal_face_of_plane_cone():
    h = HRep(2, (((1, 2), 0), ((2, 1), 0)))
    v = dd_convert(h)
    assert v.vertices == (((0, 0), 1),)
    faces = polyhedron.minimal_faces(h, v)
    assert len(faces) == 1
    assert set(faces[0].active) == {0, 1}


def _faces_with_facets(h: HRep) -> int:
    """Check every face's edge-read facets against the face cone's double
    description; returns how many faces carry facets."""
    v = dd_convert(h)
    read = 0
    for face in polyhedron.minimal_faces(h, v):
        if face.facets is None:
            assert v.lines
            continue
        read += 1
        columns = [h.ineqs[i][0] for i in face.active]
        assert cone_generators_to_hrep(columns, h.n) == (face.facets, ())
    return read


def test_face_facets_match_the_face_cone_dd():
    rng = random.Random(2024)
    systems = [random_system(rng, -3) for _ in range(1200)]
    read = sum(_faces_with_facets(HRep(len(cols[0]), tuple(zip(cols, w)))) for cols, w in systems)
    assert read >= 1000
    rng = random.Random(19)
    read = 0
    for _ in range(80):
        n = rng.randint(3, 7)
        edges = {tuple(sorted(rng.sample(range(n), rng.randint(1, 3)))) for _ in range(rng.randint(2, 8))}
        edges = [e for e in edges if not any(set(f) < set(e) for f in edges)]
        read += _faces_with_facets(tdi.covering_system(RawClutter(n, edges)).hrep())
    assert read >= 150


def _faces_with_heights(h: HRep) -> int:
    """Check every face's slack-table heights against the dot products of
    its facets with its active rows; returns how many faces carry them."""
    read = 0
    for face in polyhedron.minimal_faces(h, dd_convert(h)):
        assert (face.heights is None) == (face.facets is None)
        if face.heights is not None:
            read += 1
            assert face.heights == face_heights_oracle(h, face)
    return read


def test_face_heights_match_the_dot_products():
    rng = random.Random(2024)
    read = 0
    for _ in range(1200):
        cols, w = random_system(rng, -3)
        read += _faces_with_heights(HRep(len(cols[0]), tuple(zip(cols, w))))
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(3, 7)
        edges = {tuple(sorted(rng.sample(range(n), rng.randint(1, 3)))) for _ in range(rng.randint(2, 8))}
        edges = [e for e in edges if not any(set(f) < set(e) for f in edges)]
        read += _faces_with_heights(tdi.covering_system(RawClutter(n, edges)).hrep())
    assert read >= 1500  # 1,800 at these seeds


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(st.tuples(*[st.integers(-3, 3)] * n), st.integers(-3, 3)),
    min_size=1, max_size=2 * n + 2)))
def test_face_heights_match_the_dot_products_on_drawn_systems(rows):
    rows = [(a, b) for a, b in rows if any(a)]
    assume(rows)
    _faces_with_heights(HRep(len(rows[0][0]), tuple(rows)))


def test_integral_vertices_are_int_tuples():
    # every vertex is a pair (q, t) of ints in lowest terms, so t = 1
    # exactly at the integral vertices; q/t becomes Fractions only at a
    # face's point, and an integral one stays the tuple q
    h = TRIANGLE_COVERING
    v = dd_convert(h)
    assert all(type(x) is int for q, t in v.vertices for x in q + (t,))
    assert [t for _, t in v.vertices] == [1, 2, 1, 1]  # (1, 1, 1)/2 second by value
    points = [f.point for f in polyhedron.minimal_faces(h, v)]
    assert [tuple(map(type, p)) for p in points] == [(int,) * 3, (F,) * 3, (int,) * 3, (int,) * 3]
    assert points == list(map(value, v.vertices))


def test_face_facets_of_a_lower_dimensional_polyhedron():
    # x1 = 1/2 and 0 <= x2 <= 1: pointed, yet every face cone has a line
    h = HRep(2, (((2, 0), 1), ((-2, 0), -1), ((0, 1), 1), ((0, -1), 0)))
    faces = polyhedron.minimal_faces(h, dd_convert(h))
    assert [(f.point, f.facets) for f in faces] == [
        ((F(1, 2), F(0)), ((0, 1),)),
        ((F(1, 2), F(1)), ((0, -1),)),
    ]
    assert _faces_with_facets(h) == 2


def test_face_facets_of_a_polyhedron_with_equations():
    # the simplex x >= 0, x1 + x2 + x3 = 1, its hyperplane written as two
    # rows: both are tight at every vertex, so every edge is read
    rows = [(tuple(-int(i == j) for i in range(3)), 0) for j in range(3)]
    simplex = HRep(3, tuple(rows + [((1, 1, 1), 1), ((-1, -1, -1), -1)]))
    faces = polyhedron.minimal_faces(simplex, dd_convert(simplex))
    edges = [((0, 1, -1), (1, 0, -1)), ((0, -1, 1), (1, -1, 0)), ((-1, 0, 1), (-1, 1, 0))]
    assert [f.facets for f in faces] == edges
    assert _faces_with_facets(simplex) == 3


def _facets_of(v: VRep) -> HRep:
    """The inequalities of a pointed polyhedron read off its homogenised
    cone by `cone_generators_to_hrep`, as P = conv(A) takes its facets, each
    equation of the cone written as two rows."""
    gens = [q + (t,) for q, t in v.vertices]
    ineqs, eqs = cone_generators_to_hrep(gens + [r + (0,) for r in v.rays], v.n + 1)
    normals = ineqs + eqs + tuple(tuple(-x for x in c) for c in eqs)
    return HRep(v.n, tuple((a[:-1], -a[-1]) for a in normals))


def test_roundtrip_fixed():
    for h in (UNIT_SQUARE, TRIANGLE_COVERING, square_covering()):
        v1 = dd_convert(h)
        assert dd_convert(_facets_of(v1)) == v1


def test_roundtrip_random_property():
    rng = random.Random(7)
    for _ in range(80):
        n = rng.randint(1, 3)
        ineqs = []
        for _ in range(rng.randint(1, 5)):
            a = tuple(rng.randint(-3, 3) for _ in range(n))
            ineqs.append((a, rng.randint(-2, 3)))
        h = HRep(n, tuple(ineqs))
        v1 = dd_convert(h)
        if v1.is_empty:
            continue
        _check_vertex_pairs(v1)
        for q, t in v1.vertices:
            tight = [i for i, (a, b) in enumerate(ineqs) if kernel.dot(a, q) == b * t]
            assert all(kernel.dot(a, q) <= b * t for a, b in ineqs)
            assert tight  # a generating point of a nonempty system is on the boundary
        if not v1.lines:
            assert list(map(value, v1.vertices)) == brute_vertices(h)
            assert dd_convert(_facets_of(v1)) == v1


def _check_vertex_pairs(v: VRep):
    """Each vertex is (q, t) with t >= 1 in lowest terms, and the vertices
    strictly increase by value: q1/t1 < q2/t2 as q1*t2 < q2*t1."""
    for q, t in v.vertices:
        assert len(q) == v.n and t >= 1 and math.gcd(*q, t) == 1
    for (q1, t1), (q2, t2) in zip(v.vertices, v.vertices[1:]):
        assert tuple(x * t2 for x in q1) < tuple(y * t1 for y in q2)


def degenerate_cones(rng, count):
    """Generator sets of the cones that Hilbert-basis tests meet: lifted 0/1
    vectors (v, 1), and negated 0/1 vectors with every -e_j, as in a
    covering system.  Both have many rays on each facet."""
    cones = []
    for _ in range(count):
        n = rng.randint(2, 5)
        vecs = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(1, 2 * n))]
        cones.append(([v[1:] + (1,) for v in vecs], n))
        negated = [tuple(-x for x in v) for v in vecs]
        cones.append((negated + [tuple(-int(i == j) for i in range(n)) for j in range(n)], n))
    return cones


def test_dd_cone_matches_fraction_oracle():
    # rays, tight-set masks and lines, in order, equal to the Fraction
    # projections and the rank test on every pair
    rng = random.Random(5)
    with_lines = with_rays_and_lines = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        normals = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, n + 4))]
        rays, lines = polyhedron._dd_cone(normals, n)
        assert (rays, lines) == dd_cone_oracle(normals, n)
        with_lines += bool(lines)
        with_rays_and_lines += bool(lines and rays)
    assert with_lines >= 50 and with_rays_and_lines >= 20
    for gens, n in degenerate_cones(rng, 100):
        for normals in (gens, sorted(set(gens))):
            assert polyhedron._dd_cone(normals, n) == dd_cone_oracle(normals, n)


@st.composite
def cone_normals(draw):
    """Up to n + 4 normals in dimension n <= 5, with entries in [-1, 1] or
    [-3, 3]; the small range gives the degenerate cones of 0/1 systems."""
    n = draw(st.integers(1, 5))
    r = draw(st.sampled_from((1, 3)))
    normal = st.tuples(*[st.integers(-r, r)] * n)
    return draw(st.lists(normal, max_size=n + 4)), n


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cone_normals())
def test_dd_cone_matches_fraction_oracle_on_drawn_normals(case):
    normals, n = case
    assert polyhedron._dd_cone(normals, n) == dd_cone_oracle(normals, n)


def test_dd_conversions_match_fraction_oracle(monkeypatch):
    rng = random.Random(17)
    cones, hreps = [], []
    for _ in range(150):
        n = rng.randint(1, 4)
        cones.append(([tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n + 3))], n))
        ineqs = [(tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-3, 3)) for _ in range(rng.randint(1, n + 3))]
        for _ in range(rng.randint(0, 1)):  # a hyperplane, as two rows
            c, d = tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-2, 2)
            ineqs += [(c, d), (tuple(-x for x in c), -d)]
        hreps.append(HRep(n, tuple(ineqs)))
    cones += degenerate_cones(rng, 50)

    def convert_all():
        return (
            [polyhedron.cone_generators_to_hrep(g, n) for g, n in cones],
            [dd_convert(h) for h in hreps],
        )

    got = convert_all()
    monkeypatch.setattr(polyhedron, "_dd_cone", dd_cone_oracle)
    assert convert_all() == got
    # the one polar conversion serves both ways: the equations of cone(g)
    # are the lines of {x : <a, x> <= 0 for a in g}
    to_h, h_to_v = got
    assert sum(bool(eqs) for _, eqs in to_h) >= 20  # lineality of the dual cone
    assert sum(bool(v.lines) for v in h_to_v) >= 10
    assert sum(any(t != 1 for _, t in v.vertices) for v in h_to_v) >= 40
    for h, v in zip(hreps, h_to_v):
        _check_vertex_pairs(v)
        for face in polyhedron.minimal_faces(h, v):  # tight sets at rational points
            assert face.active == tuple(
                i for i, (a, b) in enumerate(h.ineqs) if sum(x * y for x, y in zip(a, face.point)) == b
            )


@st.composite
def systems_with_lineality(draw):
    """Inequality systems in dimension n <= 5 with entries -3..3 whose
    normals vanish off a drawn set of coordinates, so the lineality is at
    least n minus its size; sometimes one hyperplane, as two rows."""
    n = draw(st.integers(1, 5))
    used = draw(st.sets(st.integers(0, n - 1), min_size=1))
    entry = st.integers(-3, 3)

    def row():
        return tuple(draw(entry) if i in used else 0 for i in range(n)), draw(entry)

    rows = [row() for _ in range(draw(st.integers(1, 2 * n + 2)))]
    if draw(st.booleans()):
        a, b = row()
        rows += [(a, b), (tuple(-x for x in a), -b)]
    rows = [(a, b) for a, b in rows if any(a)]
    assume(rows)
    return HRep(n, tuple(rows))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(systems_with_lineality())
@example(HRep(4, (((1, 1, 0, 0), 1), ((-1, 2, 0, 0), 0), ((0, -1, 0, 0), 1))))  # lineality 2
@example(HRep(3, (((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((-1, -1, -1), -1))))
def test_dd_row_order_is_invisible(h):
    # `dd_convert` feeds `_dd_cone` its rows sparsest first; in `sorted`
    # order, as before, the V-representation and the minimal faces are the
    # same, lines and the vertices of non-pointed polyhedra included
    v = dd_convert(h)
    dd = polyhedron._dd_cone
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedron, "_dd_cone", lambda normals, n: dd(sorted(normals), n))
        sorted_v = dd_convert(h)
    assert v == sorted_v
    assert polyhedron.minimal_faces(h, v) == polyhedron.minimal_faces(h, sorted_v)


@st.composite
def padded_systems(draw):
    """An HRep in dimension n <= 4 with entries -3..3, sometimes with a
    hyperplane as two rows, and a shuffled copy in which every row comes
    one to three times, each time scaled by a positive integer, with up to
    two rows 0 <= 0 joined in.  `origin` gives, per row of the copy, the
    row of the first it came from and its factor, (None, 0) for 0 <= 0."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    row = st.tuples(st.tuples(*[entry] * n), entry)
    rows = draw(st.lists(row, min_size=1, max_size=n + 3))
    if draw(st.booleans()):
        a, b = draw(row)
        rows += [(a, b), (tuple(-x for x in a), -b)]
    factors = st.lists(st.integers(1, 4), min_size=1, max_size=3)
    origin = [(i, k) for i in range(len(rows)) for k in draw(factors)]
    origin = draw(st.permutations(origin + [(None, 0)] * draw(st.integers(0, 2))))
    padded = [
        ((0,) * n, 0) if i is None else (tuple(k * x for x in rows[i][0]), k * rows[i][1])
        for i, k in origin
    ]
    return HRep(n, tuple(rows)), HRep(n, tuple(padded)), origin


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(padded_systems())
@example((  # a zero row, a scaled duplicate and a hyperplane, as two rows
    HRep(2, (((1, 1), 1), ((-1, -1), -1), ((-1, 0), 0))),
    HRep(2, (((0, 0), 0), ((2, 2), 2), ((-1, -1), -1), ((-3, 0), 0), ((1, 1), 1))),
    [(None, 0), (0, 2), (1, 1), (2, 3), (0, 1)],
))
def test_scaled_repeated_and_zero_rows_change_nothing(case):
    # `dd_convert` makes every homogenised row primitive and skips 0 <= 0,
    # so the copy has the same V-representation; its minimal faces are the
    # same, with active sets over the copy's rows and each row's heights
    # scaled by its factor (a 0 <= 0 row is tight everywhere, at height 0)
    h, padded, origin = case
    v = dd_convert(h)
    assert dd_convert(padded) == v
    faces = polyhedron.minimal_faces(h, v)
    padded_faces = polyhedron.minimal_faces(padded, v)
    assert len(padded_faces) == len(faces)
    for face, got in zip(faces, padded_faces):
        assert (got.point, got.facets) == (face.point, face.facets)
        assert got.active == tuple(k for k, (i, _) in enumerate(origin) if i is None or i in face.active)
        if face.heights is None:
            assert got.heights is None
            continue
        by_row = dict(zip(face.active, face.heights))
        assert got.heights == tuple(
            tuple(f * x for x in by_row[i]) if i is not None else (0,) * len(face.facets)
            for i, f in (origin[k] for k in got.active)
        )
    if not v.is_empty:
        assert polyhedron.is_integral(v, padded) == polyhedron.is_integral(v, h)


def test_cone_conversions_reject_ragged_normals():
    with pytest.raises(UsageError):
        polyhedron.cone_generators_to_hrep([(1, 0), (1,)], 2)
    with pytest.raises(UsageError):
        polyhedron.cone_generators_to_hrep([(1, 0), (0, 1, 1)], 2)
    with pytest.raises(UsageError):
        polyhedron.cone_generators_to_hrep([(1, 0, 0)], 2)


def test_point_polytope():
    # the point (3, 5) as two hyperplanes of two rows each; its VRep is no
    # input to dd_convert, which converts inequalities only
    h = HRep(2, (((1, 0), 3), ((-1, 0), -3), ((0, 1), 5), ((0, -1), -5)))
    pt = dd_convert(h)
    assert pt == VRep(2, (((3, 5), 1),))
    with pytest.raises(UsageError):
        dd_convert(pt)


def test_empty_polyhedron_is_a_value():
    empty = HRep(2, (((1, 0), 0), ((-1, 0), -1)))
    v = dd_convert(empty)
    assert v.is_empty
    assert polyhedron.minimal_faces(empty, v) == ()
    with pytest.raises(UsageError):
        polyhedron.is_integral(v, empty)


def test_halfplane_lineality():
    h = HRep(2, (((-1, 0), 0),))
    v = dd_convert(h)
    assert v.vertices == (((0, 0), 1),)
    assert v.lines == ((0, 1),)
    assert v.rays == ((1, 0),)
    faces = polyhedron.minimal_faces(h, v)
    assert len(faces) == 1  # of dimension len(v.lines) == 1
    assert faces[0].facets is None  # edges are fixed only up to the line


def test_integrality_with_lineality():
    # a line with no integer points vs a line with them
    bad = HRep(2, (((2, 2), 1), ((-2, -2), -1)))
    ok, _ = polyhedron.is_integral(dd_convert(bad), bad)
    assert not ok
    good = HRep(2, (((1, 2), 1), ((-1, -2), -1)))
    ok, _ = polyhedron.is_integral(dd_convert(good), good)
    assert ok
