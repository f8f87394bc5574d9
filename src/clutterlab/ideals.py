"""Monomial edge ideals: powers, symbolic powers, integral closures.

Ideals live as minimal generating sets of exponent vectors: whatever
builds an ideal (its generators, the sums of a power, the layers of a
cone's basis) is minimalised by the divisibility reduction of `lattice`,
one budget step per comparison.  Closures of powers and symbolic powers
are the lattice points of two pointed cones:

* the Rees cone cone{(e_j, 0), (g, 1)} over the generators g of I: x^a
  lies in the closure of I^i exactly when (a, i) lies in it;
* the symbolic cone {(a, i) >= 0 : <a, u> >= i for every minimal cover u}
  of a clutter: x^a lies in I^(i) exactly when (a, i) lies in it (Herzog,
  Hibi & Trung, Adv. Math. 210, 2007).

Their Hilbert bases, from `lattice`, answer every question here, for
every power at once.  The Rees algebra is normal exactly when the Rees
generators form a Hilbert basis (Villarreal, Monomial Algebras, 2001).  For
the comparisons, let k be the least power at which a smaller ideal (I^k, or
the closure) misses a minimal generator a of a larger one (the closure, or
I^(k)).  Then (a, k) is no sum of two nonzero lattice points of the larger
cone: a part of height 0 would contradict minimality, and parts of heights
between 0 and k lie in the smaller monoid, and so does their sum.  So (a, k)
is a basis element of the larger cone, and the missing generators at height
k are exactly its basis elements there that fail the test.  A finite basis
thus decides the comparison at every power, and the verdicts are exact: a
clutter has the max-flow min-cut property exactly when I^i = I^(i) for
every i (Gitler, Valencia & Villarreal, Beitr. Algebra Geom. 48, 2007), and
it is ideal exactly when the closure of I^i is I^(i) for every i (Gitler,
Reyes & Villarreal, Rocky Mountain J. Math. 39, 2009).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import add

from . import combinat, lattice, polyhedron
from .combinat import RawClutter
from .errors import StepCounter, UsageError, _integer, budget_keyed_cache, step_budget

IntVec = tuple[int, ...]


def _minimalize(vectors) -> tuple[IntVec, ...]:
    """Antichain of componentwise-minimal vectors, sorted: each exponent
    vector is its own heights over the orthant in `lattice._reduce`, one
    step per comparison."""
    steps = StepCounter(step_budget(), "monomial minimalisation")
    return tuple(sorted(lattice._reduce([(v, v) for v in set(vectors)], steps)))


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generators (pairwise incomparable exponent vectors)."""

    n: int
    gens: tuple[IntVec, ...]

    def __init__(self, n: int, gens):
        n = _integer(n)
        gens = [tuple(map(_integer, g)) for g in gens]
        for g in gens:
            if len(g) != n:
                raise UsageError("MonomialIdeal: generator of wrong dimension")
            if any(x < 0 for x in g):
                raise UsageError("MonomialIdeal: negative exponent")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", _minimalize(gens))

    def contains(self, a) -> bool:
        a = tuple(a)
        if len(a) != self.n:
            raise UsageError("contains: ambient dimension mismatch")
        return any(all(x <= y for x, y in zip(g, a)) for g in self.gens)



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


def _rees_generators(n: int, generators) -> list[IntVec]:
    """The Rees generators (e_j, 0) and (g, 1), one per minimal generator g
    of I; an edge ideal's are its edge vectors, with no minimalisation."""
    units = [tuple(int(i == j) for i in range(n)) + (0,) for j in range(n)]
    return units + [g + (1,) for g in generators]


def _rees_cone(n: int, generators) -> lattice.ConeWithLattice:
    """x^a lies in the closure of I^i exactly when (a, i) lies in this cone."""
    return lattice.ConeWithLattice.from_vectors(_rees_generators(n, generators), n + 1)


# Cache: key (clutter, budget), bound 4096; one symbolic DD serves is_ntf and closure_vs_symbolic.
@budget_keyed_cache(4096)
def _symbolic_basis(c: RawClutter) -> tuple[IntVec, ...]:
    """Hilbert basis of the symbolic cone {(a, i) >= 0 : <a, u> >= i for
    every minimal cover u}, for `symbolic_power`, `is_ntf` and
    `closure_vs_symbolic`; one DD gives its rays."""
    n = c.n
    normals = [tuple(-int(i == j) for i in range(n + 1)) for j in range(n + 1)]
    normals += [tuple(-int(i in u) for i in range(n)) + (1,) for u in combinat.minimal_covers(c)]
    rays, _ = polyhedron.cone_generators_to_hrep(normals, n + 1)  # the polar cone's facets
    return lattice.hilbert_basis(lattice.ConeWithLattice.from_vectors(rays, n + 1))


def _generators_at_height(basis, n: int, i: int) -> MonomialIdeal:
    """Minimal exponents a of the lattice points (a, i) of a cone in the
    nonnegative orthant that contains every (e_j, 0), given its Hilbert
    basis.

    Such a point is a sum of basis elements; dropping the ones of height 0
    leaves a smaller point of the same height.  A sum of height h is minimal
    only if its part of height h - t is, so each height is minimalised from
    the ones below it.
    """
    layers = [MonomialIdeal(n, [(0,) * n])]
    for h in range(1, i + 1):
        layers.append(MonomialIdeal(n, [
            tuple(map(add, a, b[:n]))
            for b in basis if 0 < b[n] <= h
            for a in layers[h - b[n]].gens
        ]))
    return layers[i]


def symbolic_power(c: RawClutter, i: int) -> MonomialIdeal:
    """Intersection of the i-th powers of the minimal-cover primes.

    Membership is linear: <a, u> >= i for every minimal cover vector u, so
    the generators are read off the symbolic cone's Hilbert basis.
    """
    if i < 1:
        raise UsageError("symbolic_power: exponent must be >= 1")
    return _generators_at_height(_symbolic_basis(c), c.n, i)


def closure_power(ideal: MonomialIdeal, i: int) -> MonomialIdeal:
    """Integral closure of the i-th power, from the Rees cone's Hilbert basis."""
    if i < 1:
        raise UsageError("closure_power: exponent must be >= 1")
    basis = lattice.hilbert_basis(_rees_cone(ideal.n, ideal.gens))
    return _generators_at_height(basis, ideal.n, i)


def closure_contains(ideal: MonomialIdeal, i: int, a) -> bool:
    """Membership of a single monomial in the closure of the i-th power."""
    return _rees_cone(ideal.n, ideal.gens).contains(tuple(a) + (i,))


# ---------------------------------------------------------------------------
# Torsion-freeness and normality verdicts, at every power
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerComparisonReport:
    """Verdict of a comparison of two ideals at every power."""

    failure_power: int | None
    witness: IntVec | None

    @property
    def ok(self) -> bool:
        return self.failure_power is None


def _least_failure(failing, n: int) -> PowerComparisonReport:
    """The least height k among the failing basis elements (a, k), with the
    least such a; no failure when there is none."""
    return PowerComparisonReport(*min(((b[n], b[:n]) for b in failing), default=(None, None)))


def is_ntf(c: RawClutter) -> PowerComparisonReport:
    """Compare ordinary and symbolic powers.

    I^i sits inside I^(i); the first power where they differ is the least
    height of a symbolic-cone basis element (a, k) with x^a outside I^k.
    That is every basis element of height k >= 2: if x^a lay in I^k, then
    a = v + b with v a generator of I and x^b in I^(k-1), and (a, k) would
    split as (v, 1) + (b, k - 1).  At height 1 the basis elements are the
    generators of I^(1) = I.
    """
    basis = _symbolic_basis(c)
    return _least_failure([b for b in basis if b[c.n] > 1], c.n)


def closure_vs_symbolic(c: RawClutter) -> PowerComparisonReport:
    """Compare closures of powers with symbolic powers.

    The closure sits inside the symbolic power; the first power where they
    differ is the least height of a symbolic-cone basis element outside the
    Rees cone.
    """
    rees = _rees_cone(c.n, c.characteristic_vectors())
    basis = _symbolic_basis(c)
    return _least_failure([b for b in basis if not rees.contains(b)], c.n)


def is_normal(c: RawClutter) -> PowerComparisonReport:
    """Compare closures of powers with ordinary powers.

    The Rees algebra is normal exactly when the Rees generators form a
    Hilbert basis; the first power where closure and power differ is the
    least height of a witness of that test.
    """
    vectors = c.characteristic_vectors()
    gens = set(_rees_generators(c.n, vectors))
    witnesses = [b for b in lattice.hilbert_basis(_rees_cone(c.n, vectors)) if b not in gens]
    return _least_failure(witnesses, c.n)
