"""Shared brute-force oracles and instance builders for the test suite.

The oracles are deliberately independent of the library's own algorithms:
naive Fraction elimination, subset scans, exhaustive combination searches.
Expected values in the tests were computed with these and then frozen.
Five helpers came here from the library, which has no caller for them:
`solve_oracle`, the `Fraction` solve that `kernel.scaled_solve` replaced;
`semigroup_member`, the exact membership oracle for cones with lineality;
`suspension`, the clutter side of the graph-cone identity;
`canonical_graph`, the relabeling that realises a canonical form; and
`mfmc_ilp_crosscheck`, packing LPs against packing ILPs.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from fractions import Fraction

import pytest

from clutterlab import combinat, families, ideals, kernel
from clutterlab.combinat import SimpleGraph
from clutterlab.errors import (
    DEFAULT_RAY_CAP, ResourceExceeded, StepCounter, UsageError, step_budget,
)
from clutterlab.ideals import MonomialIdeal
from clutterlab.lattice import (
    ConeWithLattice, HilbertBasisReport, _parallelepiped_points, _reduce,
)
from clutterlab.polyhedron import HRep, cone_generators_to_hrep


def pivots_oracle(matrix) -> tuple[list[int], list[int]]:
    """Plain Gaussian elimination over Fraction, taking in each column the
    first nonzero entry at or below the current row: the input indices of
    the pivot rows, in pivot order, and the pivot columns."""
    m = [[Fraction(x) for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rows = list(range(nrows))
    cols = []
    for c in range(ncols):
        r = len(cols)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nrows):
            f = m[i][c] / m[r][c]
            for j in range(c, ncols):
                m[i][j] -= f * m[r][j]
        cols.append(c)
    return rows[:len(cols)], cols


def rank_oracle(matrix) -> int:
    """Rank by plain Gaussian elimination over Fraction."""
    return len(pivots_oracle(matrix)[1])


def pivot_minor_oracle(matrix) -> Fraction:
    """The minor of `matrix` on the rows and columns that elimination pivots
    on (`pivots_oracle`), rows in pivot order; 1 for a zero matrix.  A
    Bareiss elimination pivots on the same rows and columns, since its
    entries are nonzero multiples of these."""
    rows, cols = pivots_oracle(matrix)
    return det_oracle([[matrix[i][j] for j in cols] for i in rows])


def solve_oracle(matrix, rhs):
    """One exact solution of M x = b over the rationals, with every free
    variable zero, or None if the system is inconsistent: Gauss-Jordan
    elimination over Fraction.

    The pivot columns are those not spanned by the columns before them,
    whatever the row order, and a solution with every free variable zero is
    unique; so this is the solution `kernel.scaled_solve` scales.
    """
    nrows = len(matrix)
    if nrows != len(rhs):
        raise UsageError(f"solve: {nrows} rows vs {len(rhs)} rhs entries")
    if nrows == 0:
        return ()
    ncols = len(matrix[0])
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    if any(len(row) != ncols + 1 for row in m):
        raise UsageError("solve: ragged matrix")
    piv_cols = []
    for c in range(ncols):
        r = len(piv_cols)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        piv_cols.append(c)
    if any(m[i][ncols] != 0 for i in range(len(piv_cols), nrows)):
        return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(piv_cols):
        sol[c] = m[i][ncols]
    return tuple(sol)


def lexicographic_signs_oracle(simplex, n, perturbation):
    """`lattice._lexicographic_signs` before its signs came in integers: one
    Fraction solve per perturbation vector, until every sign is known."""
    mat = tuple(tuple(g[i] for g in simplex) for i in range(n))
    signs = [0] * len(simplex)
    for y in perturbation:
        if all(signs):
            break
        lam = solve_oracle(mat, y)
        if lam is None:
            raise AssertionError("perturbation vector outside the simplex span")
        for j, l in enumerate(lam):
            if not signs[j] and l:
                signs[j] = 1 if l > 0 else -1
    return signs


def det_oracle(matrix) -> Fraction:
    """Determinant by plain Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            for j in range(c, n):
                m[i][j] -= f * m[c][j]
    return det


def _primitive_oracle(vec):
    """Primitive integer vector parallel to a rational vector, over Fraction."""
    fr = [Fraction(x) for x in vec]
    den = 1
    for x in fr:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    return tuple(x // g for x in ints)


def dd_cone_oracle(normals, n, ray_cap=DEFAULT_RAY_CAP):
    """Double description with Fraction projections and a rank test per pair.

    The insertion order and tight-set masks are those of
    `polyhedron._dd_cone`; a projection along a line divides by the line's
    value.  Adjacency is the algebraic test: a pair is adjacent when the
    rank of its common tight set is two less than the dimension modulo the
    lines.  It is the reference for the library's combinatorial test.
    Ranks come from `rank_oracle`, so no integer shortcut of the library
    is involved.
    """

    def dot(u, v):
        if len(u) != len(v):
            raise UsageError("dimension mismatch")
        return sum(x * y for x, y in zip(u, v))

    lines = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    rays = []
    rank_cache = {}
    for idx, a in enumerate(normals):
        bit = 1 << idx
        if all(x == 0 for x in a):
            rays = [(r, m | bit) for r, m in rays]
            continue
        cut = next((i for i, l in enumerate(lines) if dot(a, l) != 0), None)
        if cut is not None:
            l0 = lines.pop(cut)
            v0 = dot(a, l0)
            if v0 > 0:
                l0 = tuple(-x for x in l0)
                v0 = -v0
            new_lines = []
            for l in lines:
                vl = dot(a, l)
                if vl != 0:
                    f = Fraction(vl, v0)
                    l = _primitive_oracle([x - f * y for x, y in zip(l, l0)])
                new_lines.append(l)
            lines = new_lines
            new_rays = []
            for r, m in rays:
                vr = dot(a, r)
                if vr != 0:
                    f = Fraction(vr, v0)
                    r = _primitive_oracle([x - f * y for x, y in zip(r, l0)])
                new_rays.append((r, m | bit))
            new_rays.append((l0, (1 << idx) - 1))
            rays = new_rays
            continue
        vals = [dot(a, r) for r, _ in rays]
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
                if common not in rank_cache:
                    rows = [normals[i] for i in range(idx) if common >> i & 1]
                    rank_cache[common] = rank_oracle(rows)
                if rank_cache[common] != target:
                    continue
                new = [vp * x - vm * y for x, y in zip(rm, rp)]
                combos.append((_primitive_oracle(new), common | bit))
        rays = [(r, m) for r, m, _ in neg] + zero + combos
        if len(rays) > ray_cap:
            raise ResourceExceeded("double description ray count", ray_cap)
    return rays, lines


def extreme_rays_oracle(cone):
    """Generators of a pointed cone whose tight facets have rank dim - 1."""
    ineqs, eqs = cone.hrep_normals
    return tuple(
        g for g in cone.generators
        if rank_oracle([a for a in ineqs if kernel.dot(a, g) == 0] + list(eqs))
        == cone.n - 1
    )


def triangulate_oracle(rays, n):
    """Pulling triangulation with a new double description per face.

    A face given by its rays is a simplex when their rank equals their
    count; otherwise it is pulled at its first ray, recursing into the
    facets of a fresh `cone_generators_to_hrep` that miss that ray.
    """
    if not rays:
        return ((),)
    if rank_oracle(rays) == len(rays):
        return (rays,)
    ineqs, _ = cone_generators_to_hrep(rays, n)
    simplices = []
    for f in ineqs:
        if kernel.dot(f, rays[0]) != 0:
            sub = tuple(r for r in rays if kernel.dot(f, r) == 0)
            simplices.extend(s + (rays[0],) for s in triangulate_oracle(sub, n))
    return tuple(simplices)


def is_pointed_rank_oracle(cone) -> bool:
    """Pointedness as `ConeWithLattice.is_pointed` decided it before it read
    facet heights: the inequality and equation normals have full rank."""
    ineqs, eqs = cone.hrep_normals
    return rank_oracle(ineqs + eqs) == cone.n


def hilbert_basis_triangulation_oracle(cone, steps: StepCounter):
    """`lattice.hilbert_basis` before compressed cones skipped their
    triangulation: every simplex's box is enumerated, and the candidates are
    reduced, or, when every box is empty, the reduction's comparisons are
    charged and the extreme rays returned.  Spends from `steps`."""
    rays = cone.extreme_rays
    candidates = {
        pt
        for simplex in cone.triangulation
        for pt, _ in _parallelepiped_points(simplex, cone.n, steps, simplex in cone.unimodular)
        if any(pt)
    }
    if not candidates:
        totals = sorted(sum(cone.heights[r]) for r in rays)
        steps.spend(sum(bisect_left(totals, t) for t in totals))
        return tuple(sorted(rays))
    return tuple(sorted(_reduce([(cone.heights_of(x), x) for x in candidates | set(rays)], steps)))


def minimalize_parent_oracle(vectors):
    """`ideals._minimalize` before it read `lattice._reduce`: each vector, in
    order of (total, vector), is kept unless a kept one lies below it."""
    vecs = sorted(set(tuple(v) for v in vectors), key=lambda v: (sum(v), v))
    kept = []
    for v in vecs:
        if not any(all(x <= y for x, y in zip(k, v)) for k in kept):
            kept.append(v)
    return tuple(sorted(kept))


def brute_vertices(h: HRep):
    """All vertices of a pointed H-polyhedron by scanning constraint subsets."""
    n = h.n
    verts = set()
    for sub in itertools.combinations(h.ineqs, n):
        rows = [a for a, _ in sub]
        if rank_oracle(rows) != n:
            continue
        x = solve_oracle(rows, [b for _, b in sub])
        if x is not None and all(kernel.dot(a, x) <= b for a, b in h.ineqs):
            verts.add(tuple(x))
    return sorted(verts)


def brute_lattice_points(normals, height: int, box):
    """Integer points p inside the given coordinate box with (p, height) in
    the cone {x : <a,x> <= 0 for every normal a}."""
    lo, hi = box
    out = []
    for p in itertools.product(range(lo, hi + 1), repeat=len(normals[0]) - 1):
        x = p + (height,)
        if all(kernel.dot(a, x) <= 0 for a in normals):
            out.append(p)
    return out


def brute_min_covers(c):
    """Minimal transversals by scanning all vertex subsets."""
    edges = [set(e) for e in c.edges]
    covers = []
    for r in range(c.n + 1):
        for s in itertools.combinations(range(c.n), r):
            ss = set(s)
            if all(e & ss for e in edges):
                covers.append(ss)
    keep = [tuple(sorted(s)) for s in covers if not any(t < s for t in covers)]
    return tuple(sorted(set(keep)))


def raw_clutter_edges_parent_oracle(n, edges):
    """The edges `RawClutter(n, edges)` keeps, by the antichain check it made
    before it compared bitmasks: every ordered pair of edges as sets, with
    the same `UsageError` on the first nested pair."""
    edges = combinat._canon_edges(n, edges)
    es = [set(e) for e in edges]
    for i, a in enumerate(es):
        for j, b in enumerate(es):
            if i != j and a < b:
                raise UsageError(f"not an antichain: {sorted(a)} inside {sorted(b)}")
    return edges


def minimal_covers_parent_oracle(c):
    """Minimal covers by the recursive branch-and-prune search that Berge's
    dualisation replaced: branch on the vertices of the first uncovered
    edge, then drop redundant vertices from each cover found."""
    edges = [set(e) for e in c.edges]
    if not edges:
        return ((),)
    found = set()

    def is_cover(s):
        return all(e & s for e in edges)

    def rec(chosen, banned):
        uncovered = next((e for e in edges if not (e & chosen)), None)
        if uncovered is None:
            cur = set(chosen)
            for v in sorted(chosen, reverse=True):
                if is_cover(cur - {v}):
                    cur.discard(v)
            found.add(tuple(sorted(cur)))
            return
        for v in sorted(uncovered):
            if v in banned:
                continue
            rec(chosen | {v}, set(banned))
            banned.add(v)

    rec(set(), set())
    return tuple(sorted(found))


def max_disjoint_edges_parent_oracle(c):
    """Matching number by the recursive search over edge sets."""
    edges = [set(e) for e in c.edges]
    best = 0

    def rec(idx, used, count):
        nonlocal best
        best = max(best, count)
        if count + len(edges) - idx <= best:
            return
        for j in range(idx, len(edges)):
            if not (edges[j] & used):
                rec(j + 1, used | edges[j], count + 1)

    rec(0, set(), 0)
    return best


def disjoint_cover_partition_parent_oracle(c):
    """The first partition into d disjoint minimal covers, in the order of
    the recursive search over covers sorted as vertex lists, or None."""
    d = combinat.is_uniform(c)
    if d is None:
        raise UsageError("disjoint_cover_partition: clutter is not uniform")
    covers = [set(s) for s in minimal_covers_parent_oracle(c)]
    order = sorted(range(len(covers)), key=lambda i: sorted(covers[i]))
    target = set(range(c.n))

    def rec(chosen, used, start):
        if len(chosen) == d:
            return list(chosen) if used == target else None
        for idx in range(start, len(covers)):
            i = order[idx]
            if covers[i] & used:
                continue
            got = rec(chosen + [i], used | covers[i], idx + 1)
            if got is not None:
                return got
        return None

    got = rec([], set(), 0)
    return None if got is None else [tuple(sorted(covers[i])) for i in got]


def sharpness_edges_parent_oracle(d, g):
    """The transversals of d classes of size g, in the order of the
    recursive choice of one vertex per class."""
    classes = [tuple(range(i * g, (i + 1) * g)) for i in range(d)]
    edges = []

    def rec(i, acc):
        if i == d:
            edges.append(acc)
            return
        for v in classes[i]:
            rec(i + 1, acc + (v,))

    rec(0, ())
    return edges


def mfmc_ilp_crosscheck(c, wmax: int = 3):
    """Packing LPs for all bounds w with entries <= wmax: evidence, not proof.

    For each w the fractional and integral optima of
    max{<1,y> : y >= 0, A y <= w} are compared, the first over the vertices
    of `brute_vertices` and the second by exhaustive search.
    Returns (consistent, offending w or None).
    """
    vecs = c.characteristic_vectors()
    q = len(vecs)
    rows = [tuple(v[row] for v in vecs) for row in range(c.n)]
    for w in itertools.product(range(wmax + 1), repeat=c.n):
        # the dual polytope {y >= 0 : A y <= w} of R^q holds y = 0
        ineqs = [(tuple(-int(i == j) for i in range(q)), 0) for j in range(q)]
        ineqs.extend(zip(rows, w))
        lp_opt = max(sum(p) for p in brute_vertices(HRep(q, tuple(ineqs))))
        # every edge is nonempty, so a feasible y has entries at most wmax
        ilp_opt = max(
            sum(y)
            for y in itertools.product(range(wmax + 1), repeat=q)
            if all(kernel.dot(a, y) <= b for a, b in zip(rows, w))
        )
        if lp_opt != ilp_opt:
            return False, w
    return True, None


def brute_in_semigroup(a, gens, cap=8) -> bool:
    """Exhaustive nonnegative combination search with a coefficient cap."""
    for counts in itertools.product(range(cap + 1), repeat=len(gens)):
        v = tuple(sum(ci * g[i] for ci, g in zip(counts, gens)) for i in range(len(a)))
        if v == tuple(a):
            return True
    return False


def semigroup_member(a, vectors):
    """Is `a` a nonnegative integer combination of `vectors`?

    Returns (True, coefficients) with the coefficient per input vector, or
    (False, None).  Raises Undecided when the default step budget runs
    out.  It is the reference that `membership_report_oracle` and
    `test_lineality_criterion_matches_membership` check the lattice
    arithmetic of `lattice._lineality_checks` against.
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
    steps = StepCounter(step_budget(), f"semigroup membership of {a}")
    got = _member(a, [v for _, v in live], steps)
    if got is None:
        return False, None
    for (i, _), c in zip(live, got):
        counts[i] = c
    return True, tuple(counts)


def _member(a, vecs, steps: StepCounter):
    """Membership in N*vecs, for every cone, pointed or not.

    Feasibility of sum(c_i v_i) = a over c in N^q is decided through the
    pointed solution cone K = {(c, t) >= 0 : sum c_i v_i = t a}: solutions
    with t = 1 exist iff the candidate generators of K's lattice semigroup
    contain one with t = 1.  One step is spent per parallelepiped point.
    """
    q = len(vecs)
    n = len(a)
    normals = []
    for j in range(q + 1):
        normals.append(tuple(-int(i == j) for i in range(q + 1)))
    for row in range(n):
        eq = tuple(v[row] for v in vecs) + (-a[row],)
        if any(x != 0 for x in eq):
            normals.append(eq)
            normals.append(tuple(-x for x in eq))
    rays, lines = cone_generators_to_hrep(normals, q + 1)  # the polar cone's facets
    if lines:
        raise AssertionError("solution cone must be pointed")
    if not rays:
        return None
    for r in rays:
        if r[q] == 1:
            return list(r[:q])
    for simplex in ConeWithLattice.from_vectors(rays, q + 1).triangulation:
        for pt, _ in _parallelepiped_points(simplex, q + 1, steps):
            if pt[q] == 1:
                return list(pt[:q])
    return None


def membership_report_oracle(gens, basis) -> HilbertBasisReport:
    """Hilbert-basis report of a cone with lineality by membership queries.

    The rule `is_hilbert_basis` used before it decided cones with lineality
    by lattice arithmetic: a check of `basis` is a witness exactly when
    `semigroup_member` finds no nonnegative combination of `gens` for it.
    """
    witnesses = tuple(t for t in basis if not semigroup_member(t, gens)[0])
    return HilbertBasisReport(verdict=not witnesses, basis=tuple(basis), witnesses=witnesses)


def brute_hilbert_basis(gens, n):
    """Minimal Hilbert basis of a pointed cone by a box scan.

    Every basis element lies in the zonotope {sum l_i g_i : 0 <= l_i <= 1},
    so the cone points of its bounding box include the basis, and one of
    them is irreducible exactly when subtracting any other nonzero one of
    them leaves the cone.  Small points go first only so that reducible
    points find a summand early.
    """
    cone = ConeWithLattice.from_vectors(gens, n)
    ranges = [
        range(sum(min(0, g[i]) for g in gens), sum(max(0, g[i]) for g in gens) + 1)
        for i in range(n)
    ]
    pts = [p for p in itertools.product(*ranges) if any(p) and cone.contains(p)]
    pts.sort(key=lambda p: sum(abs(x) for x in p))
    return tuple(
        sorted(
            x
            for x in pts
            if not any(y != x and cone.contains(tuple(a - b for a, b in zip(x, y))) for y in pts)
        )
    )


def brute_staircase_min(n, normals, rhs, box):
    """Minimal points of an up-closed region via a full box scan."""
    pts = [
        p
        for p in itertools.product(range(box + 1), repeat=n)
        if all(sum(w[i] * p[i] for i in range(n)) >= r for w, r in zip(normals, rhs))
    ]
    pset = set(pts)
    return tuple(
        sorted(
            p
            for p in pts
            if not any(
                tuple(x - int(i == j) for i, x in enumerate(p)) in pset
                for j in range(n)
                if p[j] > 0
            )
        )
    )


def staircase_points_oracle(n: int, normals, rhs):
    """Minimal lattice points of {a >= 0 : <w_t, a> >= r_t for all t}.

    The staircase search `ideals` ran before it read symbolic powers and
    closures off Hilbert bases.  All normals are componentwise nonnegative,
    so the region is upward closed and its minimal points are the staircase
    generators.  Depth-first search over coordinates; a coordinate value
    beyond every constraint's remaining need is never part of a minimal
    point.
    """
    live = [(tuple(w), r) for w, r in zip(normals, rhs) if r > 0]
    if not live:
        return ((0,) * n,)
    if any(all(x == 0 for x in w) for w, _ in live):
        return ()  # a positive need with empty support is unsatisfiable
    ws = [w for w, _ in live]
    needs0 = [r for _, r in live]
    supp_last = [max(j for j in range(n) if w[j] > 0) for w in ws]
    out = []
    point = [0] * n

    def emit(needs):
        # needs[t] = r_t - <w_t, point>, so lowering coordinate j keeps
        # constraint t exactly when needs[t] + w_t[j] <= 0
        for j in range(n):
            if point[j] > 0 and all(r + w[j] <= 0 for w, r in zip(ws, needs)):
                return  # not minimal
        out.append(tuple(point))

    def rec(k, needs):
        if all(r <= 0 for r in needs):
            emit(needs)  # coordinates k..n-1 are still zero here
            return
        if k == n:
            return
        vmax = 0
        for t, r in enumerate(needs):
            if r > 0:
                if supp_last[t] < k:
                    return  # this need can no longer be met
                wk = ws[t][k]
                if wk > 0:
                    # a larger value at k would make the point reducible
                    vmax = max(vmax, -(-r // wk))
        for v in range(vmax + 1):
            point[k] = v
            rec(k + 1, [r - w[k] * v for w, r in zip(ws, needs)])
        point[k] = 0

    rec(0, needs0)
    return tuple(sorted(out))


@functools.lru_cache(maxsize=4096)
def newton_inequalities_oracle(ideal):
    """Facets of conv(gens) + R^n_+, expressed as <w, a> >= r * degree.

    Computed from the cone over the lifted generators together with the
    coordinate rays.  The zero ideal has an empty region, given by the one
    unsatisfiable row 0 >= degree.
    """
    n = ideal.n
    if not ideal.gens:
        return (((0,) * n, 1),)
    lifted = [g + (1,) for g in ideal.gens]
    lifted += [tuple(int(i == j) for i in range(n)) + (0,) for j in range(n)]
    ineq_normals, eq_normals = cone_generators_to_hrep(lifted, n + 1)
    assert not eq_normals, "newton cone must be full-dimensional"
    rows = []
    for nu in ineq_normals:
        w = tuple(-x for x in nu[:n])
        assert all(x >= 0 for x in w), "newton facet with mixed signs"
        if nu[n] > 0:
            rows.append((w, nu[n]))
    return tuple(rows)


def closure_contains_oracle(ideal, i, a):
    return all(kernel.dot(w, a) >= r * i for w, r in newton_inequalities_oracle(ideal))


def symbolic_power_oracle(c, i):
    covers = [tuple(int(v in u) for v in range(c.n)) for u in combinat.minimal_covers(c)]
    return MonomialIdeal(c.n, staircase_points_oracle(c.n, covers, [i] * len(covers)))


def closure_power_oracle(ideal, i, within=None):
    """Closure of the i-th power: the minimal points of i times the Newton
    region.  `within` is an ideal known to contain the closure; the search
    then only walks the residual staircase above each of its generators."""
    rows = newton_inequalities_oracle(ideal)
    n = ideal.n
    region = [(w, r * i) for w, r in rows]
    ws = [w for w, _ in region]
    if within is None:
        return MonomialIdeal(n, staircase_points_oracle(n, ws, [r for _, r in region]))
    cands = set()
    for s in within.gens:
        needs = [r - kernel.dot(w, s) for w, r in region]
        for b in staircase_points_oracle(n, ws, needs):
            cands.add(tuple(x + y for x, y in zip(s, b)))
    gens = []
    for a in sorted(cands):
        reducible = any(
            all(kernel.dot(w, a) - kernel.dot(w, e) >= r for w, r in region)
            for e in (tuple(int(jj == j) for jj in range(n)) for j in range(n) if a[j] > 0)
        )
        if not reducible:
            gens.append(a)
    return MonomialIdeal(n, gens)


def power_comparisons_oracle(c, r=3):
    """The staircase search's three bounded reports and its ideals.

    Returns ({"ntf", "closure_vs_symbolic", "normal"}: (failure power,
    witness) or None, {i: (symbolic power, closure of the power)}) for
    i = 1..r.  A failure is the least power where the two ideals differ,
    and its witness the least generator of the larger one missing from the
    smaller, as `is_ntf_upto` and `is_normal_upto` reported them.
    """
    ideal = ideals.edge_ideal(c)
    fails = {"ntf": None, "closure_vs_symbolic": None, "normal": None}
    found = {}
    for i in range(1, r + 1):
        pw = ideals.power(ideal, i)
        sym = symbolic_power_oracle(c, i)
        cl = closure_power_oracle(ideal, i, within=sym)
        found[i] = (sym, cl)
        for kind, big, inside in (
            ("ntf", sym, pw.contains),
            ("closure_vs_symbolic", sym, lambda g: closure_contains_oracle(ideal, i, g)),
            ("normal", cl, pw.contains),
        ):
            missing = [g for g in big.gens if not inside(g)]
            if fails[kind] is None and missing:
                fails[kind] = (i, missing[0])
    return fails, found


def _maximal_sets(n, joined):
    """Maximal vertex sets whose pairs all satisfy `joined`, by a subset scan."""
    ok = lambda s: all(joined(a, b) for a, b in itertools.combinations(s, 2))
    sets = [s for r in range(n + 1) for s in itertools.combinations(range(n), r) if ok(s)]
    return tuple(
        sorted(
            s
            for s in sets
            if not any(v not in s and ok(tuple(sorted(s + (v,)))) for v in range(n))
        )
    )


def brute_maximal_cliques(g):
    edges = set(g.edges)
    return _maximal_sets(g.n, lambda a, b: (a, b) in edges)


def brute_maximal_stable_sets(g):
    edges = set(g.edges)
    return _maximal_sets(g.n, lambda a, b: (a, b) not in edges)


def hoang_sets_oracle(g):
    """Maximal stable sets, sorted, that meet every maximal clique; both
    families come from subset scans."""
    cliques = [set(c) for c in brute_maximal_cliques(g)]
    return [s for s in brute_maximal_stable_sets(g) if all(set(s) & c for c in cliques)]


def hoang_witness_oracle(g, u):
    return next((s for s in hoang_sets_oracle(g) if u in s), None)


def suspension(c):
    """Add a fresh vertex to every edge."""
    new = c.n
    return combinat.as_clutter_or_raw(c.n + 1, [tuple(e) + (new,) for e in c.edges])


def _induced_oracle(g, vertices):
    vs = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(vs)}
    edges = [(pos[a], pos[b]) for a, b in g.edges if a in pos and b in pos]
    return SimpleGraph(len(vs), edges)


def meyniel_via_hoang_oracle(g) -> bool:
    """Hoang's characterization vertex by vertex in every induced subgraph."""
    for r in range(1, g.n + 1):
        for vs in itertools.combinations(range(g.n), r):
            h = _induced_oracle(g, vs)
            sets = hoang_sets_oracle(h)
            if any(all(u not in s for s in sets) for u in range(h.n)):
                return False
    return True


# The oracles below are earlier implementations, kept to check the
# faster paths differentially: they share the library's Bron-Kerbosch and
# canonical form, and differ in how they use them.


def hoang_sets_two_search_oracle(g, within):
    """Maximal stable sets of G[within] meeting every maximal clique of
    G[within], as bitmasks: one clique and one stable-set search on the
    subset itself."""
    masks = combinat.adjacency_masks(g)
    cliques = combinat._cliques_in(masks, within)
    stables = combinat._cliques_in(combinat._complement_masks(masks), within)
    return [s for s in stables if all(s & c for c in cliques)]


def meyniel_via_hoang_two_search_oracle(g) -> bool:
    """Hoang's sweep with both searches run on every subset mask."""
    for within in range(1, 1 << g.n):
        covered = 0
        for s in hoang_sets_two_search_oracle(g, within):
            covered |= s
        if covered != within:
            return False
    return True


def meyniel_via_hoang_parent_oracle(g) -> bool:
    """`combinat.is_meyniel_via_hoang` before its truth-table sweep: one
    clique and one stable-set search of G, then a loop over every subset
    mask S.

    The maximal cliques of G[S] are the traces C = K & S that no vertex of
    S - C is adjacent to all of; the union of the traces T & S of maximal
    stable sets that meet every one must be S.
    """
    masks, cliques, stables = combinat._clique_and_stable_masks(g)
    for within in range(1, 1 << g.n):
        traces = []
        for k in cliques:
            c = k & within
            # narrowed to the vertices of S - C adjacent to all of C
            common = within & ~c
            m = c
            while m and common:
                low = m & -m
                common &= masks[low.bit_length() - 1]
                m ^= low
            if not common:
                traces.append(c)
        covered = 0
        for t in stables:
            s = t & within
            if s & ~covered:
                for c in traces:
                    if not s & c:
                        break
                else:
                    covered |= s
        if covered != within:
            return False
    return True


def hoang_witness_two_search_oracle(g, u):
    sets = hoang_sets_two_search_oracle(g, (1 << g.n) - 1)
    return min((combinat._members(s) for s in sets if s >> u & 1), default=None)


def _refined_colours_parent_oracle(nbrs):
    """Colour refinement to an equitable partition, numbered invariantly.

    Each round gives every vertex the rank, among all signatures, of its
    signature: its colour, then the sorted colours of its neighbours.  It
    stops when a round splits no class.
    """
    colour = [0] * len(nbrs)
    count = 1
    while True:
        sigs = [(colour[v], sorted(colour[w] for w in ws)) for v, ws in enumerate(nbrs)]
        ranks = sorted({(c, tuple(ns)) for c, ns in sigs})
        if len(ranks) == count:
            return colour
        rank = {sig: i for i, sig in enumerate(ranks)}
        colour = [rank[c, tuple(ns)] for c, ns in sigs]
        count = len(ranks)


def canonical_form_parent_oracle(g):
    """`families.canonical_form` before it moved to adjacency masks: refinement
    from one colour until no class splits, signatures compared as tuples,
    and the branch and bound run even on a discrete partition.

    Row k encodes adjacency of position k to positions 0..k-1 as a k-bit
    number; the form is the smallest encoding over the relabelings that fill
    the refined cells in order, with twins tried once per position.
    """
    n = g.n
    masks = combinat.adjacency_masks(g)
    nbrs = [[w for w in range(n) if m >> w & 1] for m in masks]
    colour = _refined_colours_parent_oracle(nbrs)
    slot = sorted(colour)
    codes = [0] * n
    unplaced = set(range(n))
    rows = []
    best = []

    def twins(v, w):
        return masks[v] & ~(1 << w) == masks[w] & ~(1 << v)

    def rec(k, tight):
        # tight: rows equals best[:k]; otherwise rows is smaller, or no
        # encoding is complete yet
        nonlocal best
        if k == n:
            if not tight:
                best = rows.copy()
            return
        cands = sorted((codes[v], v) for v in unplaced if colour[v] == slot[k])
        tried = []
        for code, v in cands:
            if tight and code > best[k]:
                break  # candidates are sorted, later ones only get bigger
            if any(twins(v, w) for w in tried):
                continue
            tried.append(v)
            unplaced.remove(v)
            for w in nbrs[v]:
                codes[w] |= 1 << k
            rows.append(code)
            rec(k + 1, tight and code == best[k])
            rows.pop()
            for w in nbrs[v]:
                codes[w] ^= 1 << k
            unplaced.add(v)
            # the subtree reached a complete encoding with this prefix, or
            # the prefix already equalled the best one
            tight = True

    rec(0, False)
    return (n, *best)


def graphs_upto_iso_oracle(n):
    """Every extension of every graph on k - 1 vertices by a new vertex,
    the first one seen kept per canonical form, classes in form order;
    the forms are `canonical_form_parent_oracle`'s."""
    level = [SimpleGraph(1, [])]
    for k in range(2, n + 1):
        seen = {}
        for g in level:
            for nbrs in range(1 << (k - 1)):
                edges = list(g.edges) + [(i, k - 1) for i in range(k - 1) if nbrs >> i & 1]
                h = SimpleGraph(k, edges)
                seen.setdefault(canonical_form_parent_oracle(h), h)
        level = [seen[f] for f in sorted(seen)]
    return tuple(level)


def canonical_graph(g):
    """A concrete relabeling achieving the canonical form."""
    rows = families.canonical_form(combinat.adjacency_masks(g))[1:]
    edges = [(i, k) for k, code in enumerate(rows) for i in range(k) if code >> i & 1]
    return SimpleGraph(g.n, edges)


def canonical_form_oracle(g):
    """Lexicographically smallest row encoding over all vertex relabelings.

    Row k encodes adjacency to the vertices at positions 0..k-1 as a k-bit
    number; branch and bound over placements with sorted candidates.
    """
    n = g.n
    edges = set(g.edges)
    adjacent = lambda a, b: (min(a, b), max(a, b)) in edges
    best = None

    def rec(placed, rows):
        nonlocal best
        k = len(placed)
        if k == n:
            if best is None or rows < best:
                best = list(rows)
            return
        cands = sorted(
            (sum(1 << i for i, u in enumerate(placed) if adjacent(u, v)), v)
            for v in range(n)
            if v not in placed
        )
        for code, v in cands:
            if best is not None and rows + [code] > best[: k + 1]:
                break
            rec(placed + [v], rows + [code])

    rec([], [])
    return (n, *best)


@functools.lru_cache(maxsize=None)
def _odd_cycle_traversals(n):
    """Every traversal of an odd cycle of length >= 5 on n labelled vertices
    that starts at its smallest vertex and whose second vertex is smaller
    than its last, sorted, with the cycle's edges and all its vertex pairs."""
    out = []
    for k in range(5, n + 1, 2):
        for verts in itertools.combinations(range(n), k):
            for rest in itertools.permutations(verts[1:]):
                if rest[0] > rest[-1]:
                    continue
                cyc = (verts[0],) + rest
                ring = frozenset(tuple(sorted((cyc[i], cyc[(i + 1) % k]))) for i in range(k))
                out.append((cyc, ring, frozenset(itertools.combinations(verts, 2))))
    return tuple(sorted(out, key=lambda t: t[0]))


def meyniel_oracle(g):
    """`is_meyniel` by permutation scan: the witness is the smallest odd
    cycle of length >= 5, in sorted order, with fewer than two chords."""
    edges = set(g.edges)
    for cyc, ring, pairs in _odd_cycle_traversals(g.n):
        if ring <= edges:
            chords = len(pairs & edges) - len(cyc)
            if chords < 2:
                return False, (cyc, chords)
    return True, None


def _odd_cycles_oracle(g, min_len):
    """All odd simple cycles of length >= min_len, one canonical traversal
    each, by walking every simple path from every start vertex."""
    masks = combinat.adjacency_masks(g)
    cycles = []

    def rec(start, path, inpath):
        for w in combinat._members(masks[path[-1]]):
            if w == start and len(path) >= 3:
                if len(path) >= min_len and len(path) % 2 and path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif w > start and not (inpath >> w & 1):
                path.append(w)
                rec(start, path, inpath | (1 << w))
                path.pop()

    for s in range(g.n):
        rec(s, [s], 1 << s)
    return cycles


def simple_cycle_meyniel_oracle(g):
    """`is_meyniel` by the simple-cycle walk: the first odd cycle of length
    >= 5, in sorted order, whose vertices span fewer than two chords."""
    masks = combinat.adjacency_masks(g)
    for cycle in sorted(_odd_cycles_oracle(g, 5)):
        on_cycle = sum(1 << v for v in cycle)
        chords = sum((masks[v] & on_cycle).bit_count() for v in cycle) // 2 - len(cycle)
        if chords < 2:
            return False, (cycle, chords)
    return True, None


def relabeled(g, perm):
    return SimpleGraph(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def random_graph(rng, n, p=0.5):
    pairs = itertools.combinations(range(n), 2)
    return SimpleGraph(n, [e for e in pairs if rng.random() < p])


def random_system(rng, lo):
    """Criterion 07a's generator: columns and bounds of x*A <= w, n in 1..4,
    q in 1..6, entries lo..3, no zero column."""
    n = rng.randint(1, 4)
    q = rng.randint(1, 6)
    cols = []
    while len(cols) < q:
        v = tuple(rng.randint(lo, 3) for _ in range(n))
        if any(v):
            cols.append(v)
    w = tuple(rng.randint(lo, 3) for _ in range(q))
    return cols, w


def two_k4_graph():
    """Two K4s on {0,2,4,6} and {1,3,5,7} joined by 0-5, 1-4, 2-7 and 3-6.

    Its clique clutter is ideal and MFMC but not Ehrhart, and not uniform:
    the flow property takes the face-by-face route.  Under a step budget,
    `ehrhart.analyze` completes at 8 and the face checks need 26."""
    quads = ([0, 2, 4, 6], [1, 3, 5, 7])
    edges = [e for q in quads for e in itertools.combinations(q, 2)]
    return SimpleGraph(8, edges + [(0, 5), (1, 4), (2, 7), (3, 6)])


# Q6: the triangles of K4 on its six edges; ideal, neither Ehrhart nor MFMC
Q6_EDGES = ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5))


def face_heights_oracle(h: HRep, face):
    """The heights -<d, a> of every active row a over every facet d of a
    face, by dot products, with no use of the slack table."""
    return tuple(
        tuple(-sum(x * y for x, y in zip(d, h.ineqs[k][0])) for d in face.facets)
        for k in face.active
    )


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield SimpleGraph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


@pytest.fixture
def triangle():
    from clutterlab.combinat import Clutter

    return Clutter(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def square():
    from clutterlab.combinat import Clutter

    return Clutter(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
