"""Hilbert bases of rational cones and affine semigroup membership.

The central predicate is `is_hilbert_basis(H)`: do the nonnegative integer
combinations of H reach every lattice point of the cone spanned by H?
For pointed cones this reduces to computing the unique minimal Hilbert basis
of the cone and checking set containment.  The basis comes in two steps:
the cone is triangulated, and the lattice points of each simplex's half-open
parallelepiped are enumerated in integer arithmetic from one Smith normal
form per simplex; the candidates are then reduced in support form, by
comparing their facet-height tuples in order of total height.  Cones with
lineality are split along their lineality lattice and the pointed quotient
is handled as usual.

The same parallelepipeds, made half-open by a lexicographic generic point,
tile the cone and its relative interior (`half_open_points`); binned by
height they give the Ehrhart series and its interior series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import prod
from operator import add, mul

from . import kernel, polyhedron
from .errors import StepCounter, Undecided, UsageError, step_budget

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class ConeWithLattice:
    """Rational cone given by integer generators, queried against Z^n."""

    n: int
    generators: tuple[IntVec, ...]

    @classmethod
    def from_vectors(cls, vectors, n: int | None = None) -> "ConeWithLattice":
        vecs = [tuple(v) for v in vectors]
        if n is None:
            if not vecs:
                raise UsageError("ConeWithLattice: dimension required for empty generator set")
            n = len(vecs[0])
        gens = sorted({kernel.primitive(v) for v in vecs if any(x != 0 for x in v)})
        return cls(n=n, generators=tuple(gens))

    @cached_property
    def hrep_normals(self):
        """(inequality normals, equation normals); <a,x> <= 0 resp. = 0."""
        return _cone_normals(self)

    def contains(self, x) -> bool:
        ineqs, eqs = self.hrep_normals
        return all(kernel.dot(a, x) <= 0 for a in ineqs) and all(
            kernel.dot(c, x) == 0 for c in eqs
        )

    @property
    def is_pointed(self) -> bool:
        ineqs, eqs = self.hrep_normals
        return kernel.rank(ineqs + eqs) == self.n

    @property
    def extreme_rays(self) -> tuple[IntVec, ...]:
        return _extreme_rays(self)

    @property
    def lineality_lattice_basis(self) -> tuple[IntVec, ...]:
        ineqs, eqs = self.hrep_normals
        if not ineqs and not eqs:
            return tuple(tuple(int(i == j) for i in range(self.n)) for j in range(self.n))
        return kernel.integer_kernel_basis(ineqs + eqs)


@dataclass(frozen=True)
class HilbertBasisReport:
    """Outcome of `is_hilbert_basis`: verdict plus evidence.

    `basis` is the generating set of the cone's lattice semigroup that was
    checked (the minimal Hilbert basis when the cone is pointed);
    `witnesses` are lattice points of the cone unreachable from H.
    """

    verdict: bool
    basis: tuple[IntVec, ...]
    witnesses: tuple[IntVec, ...]


@lru_cache(maxsize=4096)
def _cone_normals(cone: ConeWithLattice):
    return polyhedron.cone_generators_to_hrep(cone.generators, cone.n)


@lru_cache(maxsize=4096)
def _extreme_rays(cone: ConeWithLattice) -> tuple[IntVec, ...]:
    ineqs, eqs = _cone_normals(cone)
    lin_dim = cone.n - kernel.rank(ineqs + eqs)
    out = []
    for g in cone.generators:
        tight = [a for a in ineqs if kernel.dot(a, g) == 0]
        if kernel.rank(tuple(tight) + eqs) == cone.n - lin_dim - 1:
            out.append(g)
    return tuple(out)


def _parallelepiped_points(
    gens: tuple[IntVec, ...], n: int, steps: StepCounter
) -> list[tuple[IntVec, IntVec]]:
    """Lattice points of the half-open box {sum l_i g_i : 0 <= l_i < 1}.

    The generators must be linearly independent.  With G the n x k matrix
    whose columns are the generators and U*G*V = D its Smith normal form,
    the residue classes of (Z^n meet span) modulo the generator lattice are
    indexed by y with 0 <= y_i < d_i, and the class of y has coefficients
    l = V*(y_i / d_i).  Scaled by the largest invariant factor d_k these
    are integers r = d_k*l mod d_k, so the box point is G*r / d_k and every
    point costs two integer mat-vecs.  Each point comes with its r (so
    l_i = 0 exactly when r_i = 0).  Points come in `product` order of the
    y_i, which `_member_general` relies on.
    """
    k = len(gens)
    origin = ((0,) * n, (0,) * k)
    if k == 0:
        return [origin]
    mat = tuple(tuple(g[i] for g in gens) for i in range(n))  # n x k, columns = gens
    _, d, v = kernel.smith_normal_form(mat)
    diag = [d[i][i] for i in range(k)]
    if prod(diag) == 1:
        return [origin]
    dk = diag[-1]
    scale = [dk // di for di in diag]
    out = []
    for combo in product(*[range(di) for di in diag]):
        steps.spend()
        z = [c * s for c, s in zip(combo, scale)]
        r = tuple([sum(map(mul, row, z)) % dk for row in v])
        num = [sum(map(mul, row, r)) for row in mat]
        if any(x % dk for x in num):
            raise AssertionError("parallelepiped representative outside span")
        out.append((tuple(x // dk for x in num), r))
    return out


@lru_cache(maxsize=1024)
def _triangulate(rays: tuple[IntVec, ...], n: int) -> tuple[tuple[IntVec, ...], ...]:
    """Pulling triangulation of a pointed cone into simplicial subcones."""
    if not rays:
        return ((),)
    if kernel.rank(rays) == len(rays):
        return (rays,)
    ineqs, _ = polyhedron.cone_generators_to_hrep(rays, n)
    r0 = rays[0]
    simplices = []
    for f in ineqs:
        if kernel.dot(f, r0) == 0:
            continue
        sub = tuple(r for r in rays if kernel.dot(f, r) == 0)
        for s in _triangulate(sub, n):
            simplices.append(s + (r0,))
    return tuple(simplices)


def hilbert_basis(cone: ConeWithLattice, budget: int | None = None) -> tuple[IntVec, ...]:
    """The unique minimal Hilbert basis of a pointed cone, sorted."""
    if not cone.is_pointed:
        raise UsageError(
            "hilbert_basis: cone is not pointed; use is_hilbert_basis, which "
            "handles lineality"
        )
    return _hilbert_basis_cached(cone, step_budget(budget))


@lru_cache(maxsize=4096)
def _hilbert_basis_cached(cone: ConeWithLattice, budget: int) -> tuple[IntVec, ...]:
    steps = StepCounter(budget, "hilbert basis enumeration")
    rays = cone.extreme_rays
    candidates: set[IntVec] = set(rays)
    for simplex in _triangulate(rays, cone.n):
        for pt, _ in _parallelepiped_points(simplex, cone.n, steps):
            if any(x != 0 for x in pt):
                candidates.add(pt)
    # x - h lies in the cone exactly when h's facet heights are at most x's;
    # the equations hold for both already.  The total height grades the
    # pointed cone, so x can only be reduced by an irreducible of strictly
    # smaller total height, and every irreducible is a candidate.
    ineqs, _ = cone.hrep_normals
    graded = []
    for x in candidates:
        heights = tuple(-sum(map(mul, f, x)) for f in ineqs)
        graded.append((sum(heights), heights, x))
    graded.sort()
    irreducible: list[tuple[int, IntVec, IntVec]] = []
    for total, heights, x in graded:
        reducible = False
        for h_total, h_heights, _ in irreducible:
            if h_total == total:
                break
            steps.spend()
            if all(a <= b for a, b in zip(h_heights, heights)):
                reducible = True
                break
        if not reducible:
            irreducible.append((total, heights, x))
    return tuple(sorted(x for _, _, x in irreducible))


def half_open_points(cone: ConeWithLattice, budget: int | None = None):
    """Stanley's half-open decompositions of a pointed cone: (closed, interior).

    Let y be the sum of the extreme rays, perturbed lexicographically by the
    extreme rays in sorted order; it lies in the relative interior and on no
    facet hyperplane of any simplex of the triangulation.  A lattice point x
    of the cone belongs to the one simplex that contains x + e*y for small
    e > 0, so each simplex keeps its facets on y's side and drops the
    others.  Then x = p + sum n_j g_j for one point p of that simplex's
    half-open parallelepiped, in which the coefficient of g_j runs over
    (0, 1] on a dropped facet and [0, 1) otherwise: a box point whose j-th
    coefficient is 0 on a dropped facet gets g_j added.  Using x - e*y
    instead drops the other facets and tiles the relative interior.

    Returns the points p of both decompositions, each list free of repeats:
    with every generator of height 1, binning them by height gives the
    numerators of the two Hilbert series.  See Stanley, "Decompositions of
    rational convex polytopes" (1980), and Koeppe & Verdoolaege (2008) for
    the lexicographic rule.
    """
    if not cone.is_pointed:
        raise UsageError("half_open_points: cone is not pointed")
    steps = StepCounter(step_budget(budget), "half-open decomposition")
    n = cone.n
    rays = cone.extreme_rays
    perturbation = (tuple(map(sum, zip(*rays))),) + rays
    closed: list[IntVec] = []
    interior: list[IntVec] = []
    for simplex in _triangulate(rays, n):
        signs = _lexicographic_signs(simplex, n, perturbation)
        for pt, r in _parallelepiped_points(simplex, n, steps):
            for out, dropped in ((closed, -1), (interior, 1)):
                x = pt
                for g, sign, rj in zip(simplex, signs, r):
                    if rj == 0 and sign == dropped:
                        x = tuple(map(add, x, g))
                out.append(x)
    return closed, interior


def _lexicographic_signs(simplex: tuple[IntVec, ...], n: int, perturbation) -> list[int]:
    """Signs of the simplex coordinates of y0 + e*y1 + e^2*y2 + ... (small e).

    The sign of coordinate j is that of its first nonzero value over the
    perturbation vectors.  Every generator g_j is among them, with
    coordinate j equal to 1, so no sign stays 0.
    """
    mat = tuple(tuple(g[i] for g in simplex) for i in range(n))
    signs = [0] * len(simplex)
    for y in perturbation:
        if all(signs):
            break
        lam = kernel.solve(mat, y)
        if lam is None:
            raise AssertionError("perturbation vector outside the simplex span")
        for j, l in enumerate(lam):
            if not signs[j] and l:
                signs[j] = 1 if l > 0 else -1
    return signs


# ---------------------------------------------------------------------------
# Semigroup membership
# ---------------------------------------------------------------------------


def semigroup_member(a, vectors, budget: int | None = None):
    """Is `a` a nonnegative integer combination of `vectors`?

    Returns (True, coefficients) with the coefficient per input vector, or
    (False, None).  Raises Undecided when the step budget runs out.
    """
    a = tuple(a)
    vecs = [tuple(v) for v in vectors]
    counts = [0] * len(vecs)
    if all(x == 0 for x in a):
        return True, tuple(counts)
    live = [(i, v) for i, v in enumerate(vecs) if any(x != 0 for x in v)]
    if not live:
        return False, None
    n = len(a)
    cone = ConeWithLattice.from_vectors([v for _, v in live], n)
    if not cone.contains(a):
        return False, None
    steps = StepCounter(step_budget(budget), f"semigroup membership of {a}")
    if cone.is_pointed:
        got = _member_pointed(a, [v for _, v in live], cone, steps)
    else:
        got = _member_general(a, [v for _, v in live], steps)
    if got is None:
        return False, None
    for (i, _), c in zip(live, got):
        counts[i] = c
    return True, tuple(counts)


def _grading_functional(vecs, cone: ConeWithLattice) -> IntVec:
    """Integer functional strictly positive on cone minus the origin.

    Fast path: a shared last coordinate 1 (graded sets).  Otherwise the
    negated sum of the facet normals: zero value would mean tight on every
    facet, which in a pointed cone only the origin achieves.
    """
    n = cone.n
    if all(v[-1] == 1 for v in vecs):
        return (0,) * (n - 1) + (1,)
    ineqs, _ = cone.hrep_normals
    phi = tuple(-sum(f[i] for f in ineqs) for i in range(n))
    if not all(kernel.dot(phi, v) > 0 for v in vecs):
        raise AssertionError("no grading functional found for pointed cone")
    return phi


def _member_pointed(a, vecs, cone: ConeWithLattice, steps: StepCounter):
    phi = _grading_functional(vecs, cone)
    order = sorted(range(len(vecs)), key=lambda i: (-kernel.dot(phi, vecs[i]), vecs[i]))
    ordered = [vecs[i] for i in order]
    weights = [kernel.dot(phi, v) for v in ordered]
    failed: set[tuple[int, IntVec]] = set()

    def rec(idx: int, rem: IntVec, rem_w: int):
        if rem_w == 0:
            return [] if all(x == 0 for x in rem) else None
        if idx == len(ordered):
            return None
        key = (idx, rem)
        if key in failed:
            return None
        v, w = ordered[idx], weights[idx]
        if idx == len(ordered) - 1:
            steps.spend()
            if rem_w % w == 0:
                c = rem_w // w
                if all(r == c * x for r, x in zip(rem, v)):
                    return [(idx, c)]
            failed.add(key)
            return None
        for c in range(rem_w // w, -1, -1):
            steps.spend()
            nxt = tuple(r - c * x for r, x in zip(rem, v))
            if c > 0 and not cone.contains(nxt):
                continue
            got = rec(idx + 1, nxt, rem_w - c * w)
            if got is not None:
                return [(idx, c)] + got
        failed.add(key)
        return None

    got = rec(0, tuple(a), kernel.dot(phi, a))
    if got is None:
        return None
    counts = [0] * len(vecs)
    for idx, c in got:
        counts[order[idx]] = c
    return counts


def _member_general(a, vecs, steps: StepCounter):
    """Membership for cones with lineality.

    Feasibility of sum(c_i v_i) = a over c in N^q is decided through the
    pointed solution cone K = {(c, t) >= 0 : sum c_i v_i = t a}: solutions
    with t = 1 exist iff the candidate generators of K's lattice semigroup
    contain one with t = 1.
    """
    q = len(vecs)
    n = len(a)
    normals: list[IntVec] = []
    for j in range(q + 1):
        normals.append(tuple(-int(i == j) for i in range(q + 1)))
    for row in range(n):
        eq = tuple(v[row] for v in vecs) + (-a[row],)
        if any(x != 0 for x in eq):
            normals.append(eq)
            normals.append(tuple(-x for x in eq))
    rays, lines = polyhedron.cone_hrep_to_generators(tuple(normals), q + 1)
    if lines:
        raise AssertionError("solution cone must be pointed")
    solution_cone = ConeWithLattice.from_vectors(rays, q + 1) if rays else None
    if solution_cone is None:
        return None
    for r in rays:
        if r[q] == 1:
            return list(r[:q])
    extremes = solution_cone.extreme_rays
    for simplex in _triangulate(extremes, q + 1):
        for pt, _ in _parallelepiped_points(simplex, q + 1, steps):
            if pt[q] == 1:
                return list(pt[:q])
    return None


# ---------------------------------------------------------------------------
# The Hilbert-basis predicate
# ---------------------------------------------------------------------------


def is_hilbert_basis(vectors, budget: int | None = None) -> HilbertBasisReport:
    """Decide whether N*H covers every lattice point of cone(H)."""
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        raise UsageError("is_hilbert_basis: empty vector set")
    n = len(vecs[0])
    nonzero = sorted({v for v in vecs if any(x != 0 for x in v)})
    if not nonzero:
        return HilbertBasisReport(verdict=True, basis=(), witnesses=())
    cone = ConeWithLattice.from_vectors(nonzero, n)
    if cone.is_pointed:
        basis = hilbert_basis(cone, budget)
        hset = set(nonzero)
        witnesses = tuple(t for t in basis if t not in hset)
        return HilbertBasisReport(verdict=not witnesses, basis=basis, witnesses=witnesses)
    return _is_hilbert_basis_lineality(nonzero, cone, budget)


def _is_hilbert_basis_lineality(vecs, cone: ConeWithLattice, budget) -> HilbertBasisReport:
    """Split along the lineality lattice; check the pointed quotient.

    In coordinates where the lineality lattice is Z^m x 0, the cone factors
    as R^m x C' with C' pointed, so its lattice semigroup is generated by
    +-e_1..e_m and any lift of the Hilbert basis of C'.
    """
    n = cone.n
    lin_basis = cone.lineality_lattice_basis
    m = len(lin_basis)
    bmat = tuple(tuple(l[i] for l in lin_basis) for i in range(n))  # n x m
    u, d, _ = kernel.smith_normal_form(bmat)
    if any(d[i][i] != 1 for i in range(m)):
        raise AssertionError("lineality kernel lattice must be saturated")
    uinv = kernel.unimodular_inverse(u)

    def to_new(x):
        return tuple(kernel.dot(u[i], x) for i in range(n))

    def to_old(y):
        return tuple(kernel.dot(uinv[i], y) for i in range(n))

    projected = [to_new(v)[m:] for v in vecs]
    quotient = ConeWithLattice.from_vectors([p for p in projected if any(p)], n - m)
    if quotient.generators and not quotient.is_pointed:
        raise AssertionError("quotient by lineality must be pointed")
    checks: list[IntVec] = []
    for j in range(m):
        e = tuple(int(i == j) for i in range(n))
        checks.append(to_old(e))
        checks.append(to_old(tuple(-x for x in e)))
    for h in hilbert_basis(quotient, budget) if quotient.generators else ():
        checks.append(to_old((0,) * m + h))
    checks = sorted(set(checks))
    witnesses = []
    for t in checks:
        try:
            ok, _ = semigroup_member(t, vecs, budget)
        except Undecided as exc:
            raise Undecided(exc.what, vector=t) from exc
        if not ok:
            witnesses.append(t)
    return HilbertBasisReport(
        verdict=not witnesses, basis=tuple(checks), witnesses=tuple(witnesses)
    )
