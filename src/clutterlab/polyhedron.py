"""Exact polyhedra over the rationals: double description, faces, integrality.

Both descriptions are first-class:

* `HRep`: inequalities <normal, x> <= rhs plus equations, integer data.
* `VRep`: generating points (vertices when the polyhedron is pointed),
  recession rays and lineality directions.

Conversions run the double description method on the homogenization cone in
exact integer arithmetic, deciding adjacency from tight-set bitmasks alone.
The empty polyhedron is a value, not an error.  Lattice points are counted
in `lattice`, from the half-open parallelepipeds of a triangulation.
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
    """Inequalities <a,x> <= b and equations <c,x> = d with integer data."""

    n: int
    ineqs: tuple[tuple[IntVec, int], ...]
    eqs: tuple[tuple[IntVec, int], ...] = ()

    def __post_init__(self):
        for a, _ in self.ineqs + self.eqs:
            if len(a) != self.n:
                raise UsageError("HRep: normal of wrong dimension")


@dataclass(frozen=True)
class VRep:
    """Generators: conv(vertices) + cone(rays) + span(lines)."""

    n: int
    vertices: tuple[RatVec, ...]
    rays: tuple[IntVec, ...] = ()
    lines: tuple[IntVec, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.vertices


@dataclass(frozen=True)
class Face:
    """A minimal face: active inequality indices, dimension, interior point."""

    active: tuple[int, ...]
    dimension: int
    point: RatVec


def _canon_ineq(a: Sequence[int], b: int) -> tuple[IntVec, int]:
    g = 0
    for x in a:
        g = gcd(g, abs(x))
    g = gcd(g, abs(b))
    if g > 1:
        return tuple(x // g for x in a), b // g
    return tuple(a), b


def _canon_eq(a: Sequence[int], b: int) -> tuple[IntVec, int]:
    a2, b2 = _canon_ineq(a, b)
    for x in a2:
        if x < 0:
            return tuple(-y for y in a2), -b2
        if x > 0:
            break
    if all(x == 0 for x in a2) and b2 < 0:
        return a2, -b2
    return a2, b2


def canonical_hrep(h: HRep) -> HRep:
    """Deduplicated, normalized, lexicographically sorted copy of `h`."""
    ineqs = sorted({_canon_ineq(a, b) for a, b in h.ineqs})
    eqs = sorted({_canon_eq(a, b) for a, b in h.eqs})
    return HRep(h.n, tuple(ineqs), tuple(eqs))


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
        return kernel.primitive(tuple([vx * y - v0 * x for x, y in zip(x, l0)]))

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
                new = tuple([vp * x - vm * y for x, y in zip(rm, rp)])
                combos.append((kernel.primitive(new), common | bit))
        rays = [(r, m) for r, m, _ in neg] + zero + combos
        if len(rays) > DEFAULT_RAY_CAP:
            raise ResourceExceeded("double description ray count", DEFAULT_RAY_CAP)

    return rays, lines


def dd_convert(rep):
    """Exact dual description: HRep -> VRep or VRep -> HRep (both minimal)."""
    if isinstance(rep, HRep):
        return _h_to_v(rep)
    if isinstance(rep, VRep):
        return _v_to_h(rep)
    raise UsageError(f"dd_convert: expected HRep or VRep, got {type(rep).__name__}")


def _h_to_v(h: HRep) -> VRep:
    h = canonical_hrep(h)
    n = h.n
    normals: list[IntVec] = [(0,) * n + (-1,)]  # homogenization: t >= 0
    for a, b in h.ineqs:
        normals.append(tuple(a) + (-b,))
    for c, d in h.eqs:
        normals.append(tuple(c) + (-d,))
        normals.append(tuple(-x for x in c) + (d,))
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
        if t > 0:
            vertices.append(tuple(Fraction(x, t) for x in r[:n]))
        elif any(x != 0 for x in r[:n]):
            rays.append(r[:n])
    if not vertices:
        return VRep(n, (), (), ())
    return VRep(n, tuple(sorted(vertices)), tuple(sorted(rays)), tuple(sorted(lines)))


def _v_to_h(v: VRep) -> HRep:
    n = v.n
    if v.is_empty:
        return HRep(n, (((0,) * n, -1),), ())
    normals: list[IntVec] = []
    for p in v.vertices:
        normals.append(kernel.primitive(tuple(p) + (1,)))
    for r in v.rays:
        normals.append(tuple(r) + (0,))
    for l in v.lines:
        normals.append(tuple(l) + (0,))
        normals.append(tuple(-x for x in l) + (0,))
    raw_rays, raw_lines = _dd_cone(sorted(normals), n + 1)
    ineqs = []
    eqs = []
    for r, _ in raw_rays:
        a, c = r[:n], r[n]
        if all(x == 0 for x in a):
            continue  # 0 <= -c with c <= 0: trivial
        ineqs.append(_canon_ineq(a, -c))
    for l in raw_lines:
        a, c = l[:n], l[n]
        if all(x == 0 for x in a):
            continue
        eqs.append(_canon_eq(a, -c))
    return HRep(n, tuple(sorted(set(ineqs))), tuple(sorted(set(eqs))))


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
    """All minimal faces of the H-polyhedron h, given its V-representation v
    (empty input: no faces).

    Active sets index into h.ineqs as given.  Each face carries one exact
    relative-interior point; for a pointed polyhedron these are the vertices.
    """
    if v.is_empty:
        return ()
    dim = len(v.lines)
    faces = []
    seen = set()
    for p in v.vertices:
        q, t = kernel.integer_multiple(p)  # <a,p> == b  iff  <a,t*p> == b*t
        active = tuple(i for i, (a, b) in enumerate(h.ineqs) if kernel.dot(a, q) == b * t)
        if active in seen:
            continue
        seen.add(active)
        faces.append(Face(active=active, dimension=dim, point=p))
    return tuple(faces)


def face_integral_point(h: HRep, face: Face) -> IntVec | None:
    """An integer point of the face, or None when the face has none."""
    if all(x.denominator == 1 for x in face.point):
        return tuple(int(x) for x in face.point)
    rows = [h.ineqs[i][0] for i in face.active] + [a for a, _ in h.eqs]
    rhs = [h.ineqs[i][1] for i in face.active] + [b for _, b in h.eqs]
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
