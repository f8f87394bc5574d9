"""Lattice-point invariants of the edge polytope of a clutter.

For P = conv of the edge characteristic vectors: the counting function
b -> |Z^n meet bP|, its rational generating series written as
h(z)/(1-z)^(dim P + 1), and the invariants that series carries (h-vector,
series degree, regularity).  Both the series of P and that of its relative
interior come from the half-open decompositions of the lifted cone's
triangulation (`lattice.half_open_points`), the triangulation that the
Ehrhart test already enumerates; Ehrhart-Macdonald reciprocity between the
two checks each against the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import combinat, lattice
from .combinat import RawClutter
from .errors import StepCounter, Undecided, UsageError, budget_keyed_cache, step_budget

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class EhrhartAnalysis:
    """Everything the series-level operations share for one clutter."""

    cone: lattice.ConeWithLattice
    dim: int
    hvector: tuple[int, ...]
    a_invariant: int
    regularity: int
    is_ehrhart: bool
    witnesses: tuple[IntVec, ...]


# Cache: key (clutter, budget), bound 4096; invariants reads it twice, once via the bounds check.
@budget_keyed_cache(4096)
def analyze(c: RawClutter) -> EhrhartAnalysis:
    if not c.edges:
        raise UsageError("clutter has no edges: the empty edge polytope has no series to report")
    lifted = tuple(v + (1,) for v in c.characteristic_vectors())
    # pointed, since every generator has height 1; the generators are `lifted`
    cone = lattice.ConeWithLattice.from_vectors(lifted)
    dim = cone.n - len(cone.hrep_normals[1]) - 1  # the equations cut out the span
    gens = set(cone.generators)
    witnesses = tuple(t for t in lattice.hilbert_basis(cone) if t not in gens)
    # the basis spent a step on every parallelepiped point of the same
    # triangulation, or, on a compressed cone, skipped boxes that all hold
    # only the origin and cost no step; either way this enumeration fits in
    # any budget that the basis did
    closed, interior = lattice.half_open_points(cone)
    h = _bin_by_height(closed, dim + 1)
    h_int = _bin_by_height(interior, dim + 2)
    if h[0] != 1:
        raise AssertionError("series numerator must start at 1")
    # the only lattice points of a 0/1 polytope are its vertices
    if (h + [0])[1] != len(lifted) - dim - 1:
        raise AssertionError("h_1 must count the lattice points beyond a simplex")
    if h_int != [0] + h[::-1]:
        raise AssertionError("interior series breaks Ehrhart-Macdonald reciprocity")
    a = -min(x[-1] for x in interior)
    while h[-1] == 0:
        h.pop()
    reg = dim + 1 + a
    if reg != len(h) - 1:
        raise AssertionError("regularity formulas disagree")
    return EhrhartAnalysis(
        cone=cone,
        dim=dim,
        hvector=tuple(h),
        a_invariant=a,
        regularity=reg,
        is_ehrhart=not witnesses,
        witnesses=witnesses,
    )


def _bin_by_height(points, size: int) -> list[int]:
    """Number of points per last coordinate 0..size-1."""
    counts = [0] * size
    for x in points:
        counts[x[-1]] += 1
    return counts


def is_ehrhart_clutter(c: RawClutter):
    """Do the lifted edge vectors generate every lattice point of their cone?

    Returns (verdict, witnesses); a witness is a cone lattice point outside
    the semigroup of the lifted vectors.  An edgeless clutter is Ehrhart,
    since the empty set is a Hilbert basis of {0}.
    """
    if not c.edges:
        return True, ()
    a = analyze(c)
    return a.is_ehrhart, a.witnesses


def ehrhart_function(c: RawClutter, b: int) -> int:
    """|Z^n meet bP|."""
    if b < 0:
        raise UsageError("ehrhart_function: dilation must be nonnegative")
    a = analyze(c)
    return sum(hi * comb(b - i + a.dim, a.dim) for i, hi in enumerate(a.hvector))


def a_invariant_interior(c: RawClutter) -> int:
    """Minus the first dilation whose relative interior holds a lattice point.

    `analyze` reads it off the interior decomposition and checks it against
    the series by reciprocity, so it is read from there."""
    return analyze(c).a_invariant


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


def check_regularity_bounds(c: RawClutter) -> BoundReport:
    """For d-uniform unmixed flow-property clutters: series degree <= -g and
    regularity <= (d-1)(g-1), with per-instance tightness flags.

    The flow property (MFMC) of an Ehrhart clutter is its idealness: an
    ideal Ehrhart clutter has MFMC (Martinez-Bernal, O'Shea & Villarreal,
    "Ehrhart clutters: regularity and max-flow min-cut", arXiv:0902.1354),
    and MFMC always implies idealness.  So when `analyze` finds the clutter
    Ehrhart, one double description of the covering polyhedron decides the
    flow property, with no face check; otherwise `tdi.is_mfmc` checks it
    face by face.

    Raises Undecided when the budget runs out before the flow property is
    decided: an undecided hypothesis is neither met nor missing."""
    from . import tdi  # local import; tdi builds on this module's siblings

    d = combinat.is_uniform(c)
    sizes = {len(s) for s in combinat.minimal_covers(c)}  # g and unmixedness
    g = min(sizes)
    missing = []
    if d is None:
        missing.append("uniform")
    if len(sizes) != 1:
        missing.append("unmixed")
    a = analyze(c)
    if a.is_ehrhart:
        flow = tdi.is_ideal_clutter(c)[0]
    else:
        mfmc = tdi.is_mfmc(c)
        if mfmc.verdict == "undecided":
            raise Undecided(f"flow property: {mfmc.note}")
        flow = mfmc.holds
    if not flow:
        missing.append("mfmc")
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


def canonical_degrees(c: RawClutter):
    """Minimal generators of the interior-point ideal of the lifted cone.

    Requires the lifted vectors to generate their cone's lattice semigroup;
    the generators are the lattice points in the relative interior of the
    cone that no smaller interior point divides (difference again in the
    cone).  Each one is a point of the interior half-open decomposition:
    any other interior point x is p + g_j + (more generators) for some p of
    it, and x - g_j is interior and divides x.  The smallest occurring
    degree equals minus the series degree.  Raises Undecided when the budget
    runs out in the reduction, one step per comparison of facet heights.
    """
    a = analyze(c)
    if not a.is_ehrhart:
        raise UsageError("canonical_degrees: lifted vectors do not span the semigroup")
    _, interior = lattice.half_open_points(a.cone)
    steps = StepCounter(step_budget(), "canonical module generators")
    # y divides x exactly when no facet height of y exceeds that of x
    rows = [(a.cone.heights_of(x), x) for x in interior]
    gens = sorted((x, x[-1]) for x in lattice._reduce(rows, steps))
    if min(b for _, b in gens) != -a.a_invariant:
        raise AssertionError("least interior degree must match the series degree")
    return tuple(gens)
