"""Exact polyhedra over the rationals: double description, faces, integrality.

A polyhedron is given by inequalities, `HRep`: <normal, x> <= rhs with
integer data, a hyperplane written as two opposite rows.  `dd_convert` finds
its generators, `VRep`: generating points (vertices when the polyhedron is
pointed), recession rays and lineality directions.

The conversion runs the double description method on the homogenization
cone in exact integer arithmetic, deciding adjacency from tight-set bitmasks
alone.  The empty polyhedron is a value, not an error.  Cones given by
generators take their facets from `cone_generators_to_hrep`.  Lattice points
are counted in `lattice`, from the half-open parallelepipeds of a
triangulation.

At a vertex x of a pointed polyhedron the cone of the active rows is the
normal cone N(x), the polar of the tangent cone cone(P - x) (Schrijver,
Theory of Linear and Integer Programming, 1986, section 22).  The tangent
cone is pointed and its extreme rays are the directions of the edges at x,
so `minimal_faces` reads the facet normals of every N(x) off the edges of
P, found by the same tight-set adjacency test, with no double description
per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from . import kernel
from .errors import DEFAULT_RAY_CAP, ResourceExceeded, UsageError

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


@dataclass(frozen=True)
class HRep:
    """Inequalities <a,x> <= b with integer data; the hyperplane <c,x> = d
    is the two rows <c,x> <= d and <-c,x> <= -d."""

    n: int
    ineqs: tuple[tuple[IntVec, int], ...]

    def __post_init__(self):
        for a, _ in self.ineqs:
            if len(a) != self.n:
                raise UsageError("HRep: normal of wrong dimension")


@dataclass(frozen=True)
class VRep:
    """Generators: conv(vertices) + cone(rays) + span(lines).

    An integral vertex is a tuple of ints, any other a tuple of Fractions;
    both compare, hash and print alike, and both carry `denominator`."""

    n: int
    vertices: tuple[RatVec, ...]
    rays: tuple[IntVec, ...] = ()
    lines: tuple[IntVec, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.vertices


@dataclass(frozen=True)
class Face:
    """A minimal face: active inequality indices, interior point, and the
    inequality normals of the cone of the active rows when `minimal_faces`
    reads them off the edges (None otherwise).  Every minimal face has the
    dimension of the lineality space, `len(v.lines)`.

    `heights` goes with `facets`: per active row a, in `active` order, its
    heights -<d, a> >= 0 over the facets d, read off the slack table."""

    active: tuple[int, ...]
    point: RatVec
    facets: tuple[IntVec, ...] | None
    heights: tuple[IntVec, ...] | None


def _canon_ineq(a: Sequence[int], b: int) -> tuple[IntVec, int]:
    g = 0
    for x in a:
        g = gcd(g, abs(x))
    g = gcd(g, abs(b))
    if g > 1:
        return tuple(x // g for x in a), b // g
    return tuple(a), b


def canonical_hrep(h: HRep) -> HRep:
    """Deduplicated, normalized, lexicographically sorted copy of `h`."""
    return HRep(h.n, tuple(sorted({_canon_ineq(a, b) for a, b in h.ineqs})))


# ---------------------------------------------------------------------------
# Double description on cones:  {x : <a,x> <= 0 for a in normals}
# ---------------------------------------------------------------------------


def _dd_cone(normals: Sequence[IntVec], n: int):
    """Generators (rays, lines) of the cone cut out by homogeneous normals.

    Rays come back as primitive integer vectors together with their tight-set
    bitmask over `normals`; lines form a basis of the lineality space and are
    tight at every processed constraint.  Two rays are adjacent when no third
    ray's tight set contains their common one (Fukuda & Prodon, "Double
    description method revisited", LNCS 1120, 1996).  Every vector stays
    integral: a projection along a line and a combination of two rays are
    both positive integer combinations, made primitive afterwards.
    """
    if any(len(a) != n for a in normals):
        raise UsageError(f"double description: normal of dimension other than {n}")
    lines: list[IntVec] = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    rays: list[tuple[IntVec, int]] = []

    def project(x: IntVec, vx: int, l0: IntVec, v0: int) -> IntVec:
        # -v0 * x + vx * l0 lies in the hyperplane <a,.> = 0; -v0 > 0 keeps
        # the direction of x - (vx / v0) * l0
        return kernel.primitive([vx * y - v0 * x for x, y in zip(x, l0)])

    for idx, a in enumerate(normals):
        bit = 1 << idx
        if all(x == 0 for x in a):
            rays = [(r, m | bit) for r, m in rays]
            continue
        cut = next((i for i, l in enumerate(lines) if sum(map(mul, a, l)) != 0), None)
        if cut is not None:
            l0 = lines.pop(cut)
            v0 = sum(map(mul, a, l0))
            if v0 > 0:
                l0 = tuple(-x for x in l0)
                v0 = -v0
            new_lines = []
            for l in lines:
                vl = sum(map(mul, a, l))
                new_lines.append(project(l, vl, l0, v0) if vl != 0 else l)
            lines = new_lines
            new_rays = []
            for r, m in rays:
                vr = sum(map(mul, a, r))
                new_rays.append((project(r, vr, l0, v0) if vr != 0 else r, m | bit))
            # the cut line survives as the ray pointing into the halfspace
            mask_all = (1 << idx) - 1  # tight at every earlier constraint
            new_rays.append((l0, mask_all))
            rays = new_rays
            continue
        # all lines lie in the hyperplane; split rays by sign
        vals = [sum(map(mul, a, r)) for r, _ in rays]
        if all(v <= 0 for v in vals):
            rays = [(r, m | bit if v == 0 else m) for (r, m), v in zip(rays, vals)]
            continue
        neg = [(r, m, v) for (r, m), v in zip(rays, vals) if v < 0]
        zero = [(r, m | bit) for (r, m), v in zip(rays, vals) if v == 0]
        pos = [(r, m, v) for (r, m), v in zip(rays, vals) if v > 0]
        target = n - len(lines) - 2
        combos = []
        for rp, mp, vp in pos:
            for rm, mm, vm in neg:
                common = mp & mm
                # a face of dimension two needs `target` tight constraints
                if common.bit_count() < target or sum(common & m == common for _, m in rays) > 2:
                    continue
                combos.append((kernel.primitive([vp * x - vm * y for x, y in zip(rm, rp)]), common | bit))
        rays = [(r, m) for r, m, _ in neg] + zero + combos
        if len(rays) > DEFAULT_RAY_CAP:
            raise ResourceExceeded("double description ray count", DEFAULT_RAY_CAP)

    return rays, lines


def dd_convert(h: HRep) -> VRep:
    """The minimal V-representation of the polyhedron of an `HRep`."""
    if not isinstance(h, HRep):
        raise UsageError(f"dd_convert: expected HRep, got {type(h).__name__}")
    h = canonical_hrep(h)
    n = h.n
    normals: list[IntVec] = [(0,) * n + (-1,)]  # homogenization: t >= 0
    for a, b in h.ineqs:
        normals.append(tuple(a) + (-b,))
    raw_rays, raw_lines = _dd_cone(sorted(set(normals)), n + 1)
    vertices: list[RatVec] = []
    rays: list[IntVec] = []
    lines: list[IntVec] = []
    for l in raw_lines:
        if l[n] != 0:
            raise AssertionError("homogenization line with nonzero height")
        lines.append(l[:n])
    for r, _ in raw_rays:
        t = r[n]
        if t == 1:
            vertices.append(r[:n])  # r is primitive, so only t == 1 is integral
        elif t > 0:
            vertices.append(tuple(Fraction(x, t) for x in r[:n]))
        elif any(x != 0 for x in r[:n]):
            rays.append(r[:n])
    if not vertices:
        return VRep(n, (), (), ())
    return VRep(n, tuple(sorted(vertices)), tuple(sorted(rays)), tuple(sorted(lines)))


def cone_generators_to_hrep(generators: Sequence[IntVec], n: int):
    """Minimal H-description (ineq normals, eq normals) of cone(generators).

    Convention: x in cone  iff  <a,x> <= 0 for every inequality normal a and
    <c,x> = 0 for every equation normal c.
    """
    normals = sorted({kernel.primitive(g) for g in generators if any(x != 0 for x in g)})
    raw_rays, raw_lines = _dd_cone(normals, n)
    ineq_normals = tuple(sorted(r for r, _ in raw_rays))
    eq_normals = tuple(sorted(raw_lines))
    return ineq_normals, eq_normals


def cone_hrep_to_generators(ineq_normals: Sequence[IntVec], n: int):
    """Generators (rays, lines) of {x : <a,x> <= 0 for all a}."""
    raw_rays, raw_lines = _dd_cone(sorted(set(ineq_normals)), n)
    return tuple(sorted(r for r, _ in raw_rays)), tuple(sorted(raw_lines))


# ---------------------------------------------------------------------------
# Faces and integrality
# ---------------------------------------------------------------------------


def minimal_faces(h: HRep, v: VRep) -> tuple[Face, ...]:
    """All minimal faces of the H-polyhedron h, given its minimal
    V-representation v as `dd_convert` returns it (empty input: no faces).

    Active sets index into h.ineqs as given.  Each face carries one exact
    relative-interior point; for a pointed polyhedron these are the vertices.

    When v is pointed, each face also carries `facets`: the sorted primitive
    directions of the edges at its vertex.  These are the extreme rays of the
    tangent cone, the polar of the cone of the active rows, so they equal the
    inequality normals `cone_generators_to_hrep` returns for the active rows,
    whose equation normals are then (), even when the polyhedron is not
    full-dimensional: both rows of a hyperplane are tight at every vertex.
    With lines an edge direction is fixed only up to the lineality space, so
    `facets` is None.

    The face's `heights` come off one slack row per generator of the
    homogenised cone, s(a) = b*t - <a, q> for the generator (q, t), whose
    zeros are its tight set.  For the edge from the vertex q_i/t_i to the
    vertex q_j/t_j, d = (t_i*q_j - t_j*q_i)/g with g the gcd, and a row a
    tight at q_i has height -<a, d> = t_i*s_j(a)/g; for an extreme ray
    (q_j, 0), d = q_j and the height is s_j(a).
    """
    if v.is_empty:
        return ()
    # generators (t*x, t) of the homogenised cone {(x, t) : <a,x> <= b*t, t >= 0}:
    # <a,x> == b  iff  <a,t*x> == b*t;  rays (r, 0) only when edges are read
    gens = [kernel.integer_multiple(p) for p in v.vertices]
    read_edges = not v.lines
    if read_edges:
        gens += [(r, 0) for r in v.rays]
    slack = [[b * t - sum(map(mul, a, q)) for a, b in h.ineqs] for q, t in gens]
    tight = [tuple([i for i, s in enumerate(row) if not s]) for row in slack]
    edges = _edge_directions(h, gens, tight) if read_edges else None
    faces = []
    seen = set()
    for i, (p, active) in enumerate(zip(v.vertices, tight)):
        if active in seen:
            continue
        seen.add(active)
        facets = heights = None
        if edges is not None:
            at = sorted(edges[i])  # the directions are distinct, so they alone order
            facets = tuple([d for d, _, _, _ in at])
            heights = tuple(
                tuple([s * slack[j][k] // g for _, j, s, g in at]) for k in active
            )
        faces.append(Face(active=active, point=p, facets=facets, heights=heights))
    return tuple(faces)


def _edge_directions(h: HRep, gens, tight) -> list[list[tuple[IntVec, int, int, int]]]:
    """Per vertex of a pointed polyhedron, its edges as
    (d, j, s, g): the primitive direction d towards the generator j, y - x
    towards an adjacent vertex y or an adjacent extreme ray r, and the scale
    s/g that turns the slack row of generator j into the heights over d
    (see `minimal_faces`).

    `gens` are the homogenised cone's generators, (t*x, t) per vertex and
    then (r, 0) per extreme ray, and `tight` their tight rows in h.ineqs;
    a ray is also tight at t >= 0.  Two generators span a 2-face, an edge
    of the polyhedron when one is a vertex, exactly when no third one is
    tight wherever both are (Fukuda & Prodon, LNCS 1120, 1996).  A 2-face
    of the cone in R^(n+1) has at least n - 1 tight rows, all of them in
    h.ineqs, so smaller common sets are dropped before that count.
    """
    ray_bit = 1 << len(h.ineqs)
    masks = [sum([1 << i for i in rows]) | (0 if t else ray_bit) for rows, (_, t) in zip(tight, gens)]
    need = h.n - 1
    edges: list[list[tuple[IntVec, int, int, int]]] = [[] for _, t in gens if t]  # one per vertex
    for i, (x, tx) in enumerate(gens[: len(edges)]):
        commons = [masks[i] & m for m in masks]
        for j in range(i + 1, len(gens)):
            c = commons[j]
            # commons[i] and commons[j] contain c; a third one rules the edge out
            if c.bit_count() < need or sum([c & o == c for o in commons]) > 2:
                continue
            y, ty = gens[j]
            if not ty:
                edges[i].append((y, j, 1, 1))  # `dd_convert` returns primitive rays
                continue
            diff = [tx * b - ty * a for a, b in zip(x, y)]  # along y/ty - x/tx
            g = gcd(*diff)
            d = tuple([a // g for a in diff])
            edges[i].append((d, j, tx, g))
            edges[j].append((tuple([-a for a in d]), i, ty, g))
    return edges


def face_integral_point(h: HRep, face: Face) -> IntVec | None:
    """An integer point of the face, or None when the face has none."""
    if all(x.denominator == 1 for x in face.point):
        return tuple(int(x) for x in face.point)
    rows = [h.ineqs[i][0] for i in face.active]
    rhs = [h.ineqs[i][1] for i in face.active]
    return kernel.integer_solve(rows, rhs)


def is_integral(v: VRep, h: HRep):
    """Whether every minimal face of the polyhedron contains an integer
    point, plus a witness; v and h are its two descriptions.

    For pointed polyhedra this is vertex integrality; the witness on failure
    is a fractional vertex (relative-interior point of a lattice-free face).
    """
    if v.is_empty:
        raise UsageError("is_integral: empty polyhedron")
    if not v.lines:
        for p in v.vertices:
            if any(x.denominator != 1 for x in p):
                return False, p
        return True, None
    for face in minimal_faces(h, v):
        if face_integral_point(h, face) is None:
            return False, face.point
    return True, None
