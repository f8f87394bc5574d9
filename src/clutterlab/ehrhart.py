"""Lattice-point invariants of the edge polytope of a clutter.

For P = conv of the edge characteristic vectors: the counting function
b -> |Z^n meet bP|, its rational generating series written as
h(z)/(1-z)^(dim P + 1), and the invariants that series carries (h-vector,
series degree, regularity).  The series degree is recomputed through the
first dilation with a relative-interior lattice point, so the two routes
check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import combinat, lattice, polyhedron
from .combinat import RawClutter
from .errors import Undecided, UsageError

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class EhrhartAnalysis:
    """Everything the series-level operations share for one clutter."""

    clutter: RawClutter
    vrep: polyhedron.VRep
    hrep: polyhedron.HRep
    lifted: tuple[IntVec, ...]
    dim: int
    hvector: tuple[int, ...]
    a_invariant: int
    regularity: int
    is_ehrhart: bool
    hilbert_report: lattice.HilbertBasisReport


@lru_cache(maxsize=4096)
def analyze(c: RawClutter, budget: int | None = None) -> EhrhartAnalysis:
    if not c.edges:
        raise UsageError("analyze: clutter has no edges")
    vectors = c.characteristic_vectors()
    vrep = polyhedron.VRep(c.n, tuple(sorted(tuple(Fraction(x) for x in v) for v in vectors)))
    hrep = polyhedron.dd_convert(vrep)
    dim = polyhedron.dimension(vrep)
    counts = [len(polyhedron.lattice_points(vrep, b, hrep)) for b in range(dim + 2)]
    h = _hvector_from_counts(counts, dim)
    a_series = (len(h) - 1) - (dim + 1)
    a_interior = _interior_degree(vrep, hrep, dim)
    if a_series != a_interior:
        raise AssertionError(
            f"series degree {a_series} disagrees with interior route {a_interior}"
        )
    reg = dim + 1 + a_series
    if reg != len(h) - 1:
        raise AssertionError("regularity formulas disagree")
    lifted = tuple(v + (1,) for v in vectors)
    report = lattice.is_hilbert_basis(lifted, budget)
    return EhrhartAnalysis(
        clutter=c,
        vrep=vrep,
        hrep=hrep,
        lifted=lifted,
        dim=dim,
        hvector=h,
        a_invariant=a_series,
        regularity=reg,
        is_ehrhart=report.verdict,
        hilbert_report=report,
    )


def _hvector_from_counts(counts: list[int], dim: int) -> tuple[int, ...]:
    """Numerator coefficients of sum counts[b] z^b over (1-z)^(dim+1).

    Uses counts for b = 0..dim and checks the fit against b = dim+1; a
    mismatch means the counting function is not a degree-dim polynomial,
    which would be an enumeration bug.
    """
    d1 = dim + 1
    h = []
    for i in range(d1):
        hi = sum((-1) ** j * comb(d1, j) * counts[i - j] for j in range(0, i + 1))
        h.append(hi)
    predicted = sum(h[i] * comb(d1 + dim - i, dim) for i in range(len(h)))
    if predicted != counts[dim + 1]:
        raise AssertionError("lattice point counts do not fit a polynomial")
    if h and h[0] != 1:
        raise AssertionError("series numerator must start at 1")
    if any(x < 0 for x in h):
        raise AssertionError("series numerator must be nonnegative")
    while h and h[-1] == 0:
        h.pop()
    return tuple(h)


def is_ehrhart_clutter(c: RawClutter, budget: int | None = None):
    """Do the lifted edge vectors generate every lattice point of their cone?

    Returns (verdict, witnesses); a witness is a cone lattice point outside
    the semigroup of the lifted vectors.
    """
    report = analyze(c, budget).hilbert_report
    return report.verdict, report.witnesses


def ehrhart_function(c: RawClutter, b: int) -> int:
    """|Z^n meet bP|."""
    if b < 0:
        raise UsageError("ehrhart_function: dilation must be nonnegative")
    a = analyze(c)
    return len(polyhedron.lattice_points(a.vrep, b, a.hrep))


def hvector(c: RawClutter) -> tuple[int, ...]:
    return analyze(c).hvector


def a_invariant_series(c: RawClutter) -> int:
    """Degree of the counting series as a rational function."""
    a = analyze(c)
    return (len(a.hvector) - 1) - (a.dim + 1)


def a_invariant_interior(c: RawClutter) -> int:
    """Minus the first dilation whose relative interior holds a lattice point.

    `analyze` computes it on the interior route and checks it equal to the
    series degree, so it is read from there."""
    return analyze(c).a_invariant


def _interior_degree(vrep: polyhedron.VRep, hrep: polyhedron.HRep, dim: int) -> int:
    for k in range(1, dim + 2):
        if polyhedron.relative_interior_lattice_points(vrep, k, hrep):
            return -k
    raise AssertionError("no interior lattice point up to dim + 1 dilations")


def regularity(c: RawClutter) -> int:
    a = analyze(c)
    return a.regularity


@dataclass(frozen=True)
class BoundReport:
    """Sharp-bound check for uniform unmixed clutters with the flow property."""

    hypotheses_met: bool
    missing: tuple[str, ...]
    d: int | None
    g: int
    is_ehrhart: bool
    a_invariant: int
    a_bound: int  # -g
    a_tight: bool
    regularity: int
    reg_bound: int | None  # (d-1)(g-1)
    reg_tight: bool | None

    @property
    def ok(self) -> bool:
        return self.hypotheses_met and (
            self.is_ehrhart
            and self.a_invariant <= self.a_bound
            and self.reg_bound is not None
            and self.regularity <= self.reg_bound
        )


def check_regularity_bounds(c: RawClutter, budget: int | None = None) -> BoundReport:
    """For d-uniform unmixed flow-property clutters: series degree <= -g and
    regularity <= (d-1)(g-1), with per-instance tightness flags.

    Raises Undecided when the budget runs out before the flow property is
    decided: an undecided hypothesis is neither met nor missing."""
    from . import tdi  # local import; tdi builds on this module's siblings

    d = combinat.is_uniform(c)
    g = combinat.covering_number(c)
    missing = []
    if d is None:
        missing.append("uniform")
    if not combinat.is_unmixed(c):
        missing.append("unmixed")
    mfmc = tdi.is_mfmc(c, budget)
    if mfmc.verdict == "undecided":
        raise Undecided(f"flow property: {mfmc.note}")
    if not mfmc.holds:
        missing.append("mfmc")
    a = analyze(c, budget)
    reg_bound = (d - 1) * (g - 1) if d is not None else None
    return BoundReport(
        hypotheses_met=not missing,
        missing=tuple(missing),
        d=d,
        g=g,
        is_ehrhart=a.is_ehrhart,
        a_invariant=a.a_invariant,
        a_bound=-g,
        a_tight=a.a_invariant == -g,
        regularity=a.regularity,
        reg_bound=reg_bound,
        reg_tight=None if reg_bound is None else a.regularity == reg_bound,
    )


def canonical_degrees(c: RawClutter, degree_cap: int | None = None):
    """Minimal generators of the interior-point ideal of the lifted cone.

    Requires the lifted vectors to generate their cone's lattice semigroup;
    the generators are the lattice points in the relative interior of the
    cone that no smaller interior point divides (difference again in the
    cone).  The smallest occurring degree equals minus the series degree.
    """
    a = analyze(c)
    if not a.is_ehrhart:
        raise UsageError("canonical_degrees: lifted vectors do not span the semigroup")
    cap = degree_cap if degree_cap is not None else a.dim + 2
    interior: list[tuple[IntVec, int]] = []
    for b in range(1, cap + 1):
        for pt in polyhedron.relative_interior_lattice_points(a.vrep, b, a.hrep):
            interior.append((pt + (b,), b))
    gens: list[tuple[IntVec, int]] = []
    for vec, b in interior:
        divisible = False
        for vec2, b2 in interior:
            if b2 >= b or vec2 == vec:
                continue
            diff_deg = b - b2
            diff = tuple(x - y for x, y in zip(vec[: c.n], vec2[: c.n]))
            if all(x >= 0 for x in diff) and polyhedron.contains_point(
                a.hrep, tuple(Fraction(x, diff_deg) for x in diff)
            ):
                divisible = True
                break
        if not divisible:
            gens.append((vec, b))
    gens.sort()
    if gens and min(b for _, b in gens) != -a.a_invariant:
        raise AssertionError("least interior degree must match the series degree")
    return tuple(gens)
