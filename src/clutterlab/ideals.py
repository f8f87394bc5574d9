"""Monomial edge ideals: powers, symbolic powers, integral closures.

Ideals live as minimal generating sets of exponent vectors.  Symbolic
powers and closures of powers are both cut out by linear staircase
conditions with nonnegative normals, so one pruned lexicographic search
enumerates their minimal generators; no lcm cascades.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import ceil

from . import combinat, kernel, polyhedron
from .combinat import RawClutter
from .errors import UsageError

IntVec = tuple[int, ...]


def _minimalize(vectors) -> tuple[IntVec, ...]:
    """Antichain of componentwise-minimal vectors, sorted."""
    vecs = sorted(set(tuple(v) for v in vectors), key=lambda v: (sum(v), v))
    kept: list[IntVec] = []
    for v in vecs:
        if not any(all(x <= y for x, y in zip(k, v)) for k in kept):
            kept.append(v)
    return tuple(sorted(kept))


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generators (pairwise incomparable exponent vectors)."""

    n: int
    gens: tuple[IntVec, ...]

    def __init__(self, n: int, gens):
        gens = [tuple(int(x) for x in g) for g in gens]
        for g in gens:
            if len(g) != n:
                raise UsageError("MonomialIdeal: generator of wrong dimension")
            if any(x < 0 for x in g):
                raise UsageError("MonomialIdeal: negative exponent")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "gens", _minimalize(gens))

    def contains(self, a) -> bool:
        a = tuple(a)
        if len(a) != self.n:
            raise UsageError("contains: ambient dimension mismatch")
        return any(all(x <= y for x, y in zip(g, a)) for g in self.gens)

    def __le__(self, other: "MonomialIdeal") -> bool:
        if self.n != other.n:
            raise UsageError("ideal comparison: ambient dimension mismatch")
        return all(other.contains(g) for g in self.gens)


def equals(i: MonomialIdeal, j: MonomialIdeal) -> bool:
    if i.n != j.n:
        raise UsageError("equals: ambient dimension mismatch")
    return i.gens == j.gens


def contains(i: MonomialIdeal, a) -> bool:
    return i.contains(a)


def edge_ideal(c: RawClutter) -> MonomialIdeal:
    return MonomialIdeal(c.n, c.characteristic_vectors())


def power(ideal: MonomialIdeal, i: int) -> MonomialIdeal:
    """Minimal generators of the i-fold product."""
    if i < 1:
        raise UsageError("power: exponent must be >= 1")
    sums = set()
    for combo in combinations_with_replacement(ideal.gens, i):
        total = tuple(sum(col) for col in zip(*combo))
        sums.add(total)
    return MonomialIdeal(ideal.n, sums)


def _minimal_staircase_points(n: int, normals, rhs) -> tuple[IntVec, ...]:
    """Minimal lattice points of {a >= 0 : <w_t, a> >= r_t for all t}.

    All normals are componentwise nonnegative, so the region is upward
    closed and its minimal points are the staircase generators.  Depth-first
    search over coordinates; a coordinate value beyond every constraint's
    remaining need is never part of a minimal point.
    """
    live = [(tuple(w), r) for w, r in zip(normals, rhs) if r > 0]
    if not live:
        return ((0,) * n,)
    if any(all(x == 0 for x in w) for w, _ in live):
        return ()  # a positive need with empty support is unsatisfiable
    ws = [w for w, _ in live]
    needs0 = [r for _, r in live]
    supp_last = [max(j for j in range(n) if w[j] > 0) for w in ws]
    out: list[IntVec] = []
    point = [0] * n

    def emit(needs: list[int]):
        # needs[t] = r_t - <w_t, point>, so lowering coordinate j keeps
        # constraint t exactly when needs[t] + w_t[j] <= 0
        for j in range(n):
            if point[j] > 0 and all(r + w[j] <= 0 for w, r in zip(ws, needs)):
                return  # not minimal
        out.append(tuple(point))

    def rec(k: int, needs: list[int]):
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
                    need_v = -(-r // wk)
                    if need_v > vmax:
                        vmax = need_v
        for v in range(vmax + 1):
            point[k] = v
            rec(k + 1, [r - w[k] * v for w, r in zip(ws, needs)])
        point[k] = 0

    rec(0, needs0)
    return tuple(sorted(out))


def symbolic_power(c: RawClutter, i: int) -> MonomialIdeal:
    """Intersection of the i-th powers of the minimal-cover primes.

    Membership is linear: <a, u> >= i for every minimal cover vector u.
    """
    if i < 1:
        raise UsageError("symbolic_power: exponent must be >= 1")
    covers = combinat.CoverSet.of(c).vectors()
    gens = _minimal_staircase_points(c.n, covers, [i] * len(covers))
    return MonomialIdeal(c.n, gens)


@lru_cache(maxsize=4096)
def _newton_inequalities(ideal: MonomialIdeal):
    """Facets of conv(gens) + R^n_+, expressed as <w, a> >= r * degree.

    Computed once from the cone over the lifted generators together with
    the coordinate rays; every facet normal is nonnegative on the
    exponent part because the region is upward closed.  The zero ideal has
    an empty region, given by the one unsatisfiable row 0 >= degree.
    """
    n = ideal.n
    if not ideal.gens:
        return (((0,) * n, 1),)
    lifted = [g + (1,) for g in ideal.gens]
    lifted += [tuple(int(i == j) for i in range(n)) + (0,) for j in range(n)]
    ineq_normals, eq_normals = polyhedron.cone_generators_to_hrep(lifted, n + 1)
    if eq_normals:
        raise AssertionError("newton cone must be full-dimensional")
    rows = []
    for nu in ineq_normals:
        w = tuple(-x for x in nu[:n])
        r = nu[n]
        if any(x < 0 for x in w):
            raise AssertionError("newton facet with mixed signs")
        if r > 0:
            rows.append((w, r))
    return tuple(rows)


def closure_power(
    ideal: MonomialIdeal, i: int, _within: MonomialIdeal | None = None
) -> MonomialIdeal:
    """Integral closure of the i-th power: lattice points over i * Newton.

    `_within` is an optional ideal already known to contain the closure
    (for edge ideals, the symbolic power); the search then only walks the
    small residual staircase above each of its generators.
    """
    if i < 1:
        raise UsageError("closure_power: exponent must be >= 1")
    rows = _newton_inequalities(ideal)
    n = ideal.n
    if _within is None:
        gens = _minimal_staircase_points(
            n, [w for w, _ in rows], [r * i for _, r in rows]
        )
        return MonomialIdeal(n, gens)
    region = [(w, r * i) for w, r in rows]
    ws = [w for w, _ in region]
    cands: set[IntVec] = set()
    for s in _within.gens:
        needs = [ri - kernel.dot(w, s) for w, ri in region]
        for b in _minimal_staircase_points(n, ws, needs):
            cands.add(tuple(x + y for x, y in zip(s, b)))
    gens = []
    for a in sorted(cands):
        minimal = True
        for j in range(n):
            if a[j] > 0:
                red = tuple(x - int(jj == j) for jj, x in enumerate(a))
                if all(kernel.dot(w, red) >= ri for w, ri in region):
                    minimal = False
                    break
        if minimal:
            gens.append(a)
    return MonomialIdeal(n, gens)


def closure_contains(ideal: MonomialIdeal, i: int, a) -> bool:
    """Membership of a single monomial in the closure of the i-th power."""
    rows = _newton_inequalities(ideal)
    return all(kernel.dot(w, a) >= r * i for w, r in rows)


# ---------------------------------------------------------------------------
# Bounded torsion-freeness and normality verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerComparisonReport:
    """Verdict of a power-by-power comparison, honest about its bound."""

    holds_up_to: int | None  # the bound r when no failure was found
    failure_power: int | None
    witness: IntVec | None

    @property
    def ok(self) -> bool:
        return self.failure_power is None


def is_ntf_upto(c: RawClutter, r: int = 3) -> PowerComparisonReport:
    """Compare ordinary and symbolic powers for i = 1..r."""
    if r < 1:
        raise UsageError("is_ntf_upto: bound must be >= 1")
    ideal = edge_ideal(c)
    for i in range(1, r + 1):
        pw = power(ideal, i)
        sym = symbolic_power(c, i)
        if pw.gens != sym.gens:
            witness = next(g for g in sym.gens if not pw.contains(g))
            return PowerComparisonReport(None, i, witness)
    return PowerComparisonReport(r, None, None)


def closure_vs_symbolic_upto(c: RawClutter, r: int = 3) -> PowerComparisonReport:
    """Compare closure of powers with symbolic powers for i = 1..r.

    The closure sits inside the symbolic power, so equality only needs the
    symbolic generators to land in the Newton region.
    """
    if r < 1:
        raise UsageError("closure_vs_symbolic_upto: bound must be >= 1")
    ideal = edge_ideal(c)
    for i in range(1, r + 1):
        sym = symbolic_power(c, i)
        witness = next(
            (g for g in sym.gens if not closure_contains(ideal, i, g)), None
        )
        if witness is not None:
            return PowerComparisonReport(None, i, witness)
    return PowerComparisonReport(r, None, None)


@dataclass(frozen=True)
class NormalityReport:
    normal: PowerComparisonReport  # closure vs ordinary power
    closure_vs_symbolic: PowerComparisonReport

    @property
    def ok(self) -> bool:
        return self.normal.ok


def is_normal_upto(c: RawClutter, r: int = 3) -> NormalityReport:
    """Check closure(I^i) = I^i and closure(I^i) = I^(i) for i = 1..r.

    Both comparisons lean on the containment chain
    I^i <= closure(I^i) <= I^(i): the symbolic power scaffolds the closure
    enumeration, and closure-vs-symbolic only needs membership of the
    symbolic generators in the Newton region.
    """
    if r < 1:
        raise UsageError("is_normal_upto: bound must be >= 1")
    ideal = edge_ideal(c)
    normal_fail = None
    cvs_fail = None
    for i in range(1, r + 1):
        sym = symbolic_power(c, i)
        if cvs_fail is None:
            witness = next(
                (g for g in sym.gens if not closure_contains(ideal, i, g)), None
            )
            if witness is not None:
                cvs_fail = (i, witness)
        if normal_fail is None:
            pw = power(ideal, i)
            cl = closure_power(ideal, i, _within=sym)
            if cl.gens != pw.gens:
                witness = next(g for g in cl.gens if not pw.contains(g))
                normal_fail = (i, witness)
        if normal_fail and cvs_fail:
            break
    normal = (
        PowerComparisonReport(r, None, None)
        if normal_fail is None
        else PowerComparisonReport(None, *normal_fail)
    )
    cvs = (
        PowerComparisonReport(r, None, None)
        if cvs_fail is None
        else PowerComparisonReport(None, *cvs_fail)
    )
    return NormalityReport(normal=normal, closure_vs_symbolic=cvs)
