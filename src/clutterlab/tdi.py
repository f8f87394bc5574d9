"""Total dual integrality certificates, idealness and flow-property verdicts.

A system x*A <= w (columns v_i, right-hand side w_i) is certified
face-by-face: at every minimal face of the solution polyhedron the active
columns must generate all lattice points of their cone.  Empty systems are
reported as "vacuous" rather than silently true, and budget exhaustion
surfaces as "undecided", never as a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import combinat, ehrhart, ideals, lattice, polyhedron
from .combinat import RawClutter, SimpleGraph
from .errors import Undecided, UsageError, _integer, budget_keyed_cache

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class LinearSystem:
    """The system x*A <= w with integer columns v_i and integer w."""

    columns: tuple[IntVec, ...]
    w: tuple[int, ...]

    def __init__(self, columns, w):
        columns = tuple(tuple(map(_integer, v)) for v in columns)
        w = tuple(map(_integer, w))
        if len(columns) != len(w):
            raise UsageError("LinearSystem: need one bound per column")
        if not columns:
            raise UsageError("LinearSystem: empty system")
        n = len(columns[0])
        if any(len(v) != n for v in columns):
            raise UsageError("LinearSystem: ragged columns")
        if any(all(x == 0 for x in v) for v in columns):
            raise UsageError("LinearSystem: zero column")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return len(self.columns[0])

    def hrep(self) -> polyhedron.HRep:
        return polyhedron.HRep(self.n, tuple(zip(self.columns, self.w)))


@dataclass(frozen=True)
class FaceCheck:
    point: tuple
    active: tuple[int, ...]
    witnesses: tuple[IntVec, ...]


@dataclass(frozen=True)
class TdiCertificate:
    verdict: bool | str  # True | False | "vacuous" | "undecided"
    faces: tuple[FaceCheck, ...]
    failing: FaceCheck | None
    integral: bool | None  # None only for an empty polyhedron
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.verdict is True or self.verdict == "vacuous"


# A face is (active columns, face-cone facets, their heights), the last two
# None or both given.  Facets read off the polyhedron's edges spare the face
# cone its DD, and heights read off its slack table spare the dot products;
# None leaves both to `lattice`.
# A command runs is_tdi once per clutter (`invariants` not at all on an
# Ehrhart one), so a face cone rarely recurs; the cache stays while
# perfbench/test_perfbench.py pins it by name.
# Cache: key (face, budget), bound 65536; a traced `clutters` pass (seed 1) makes 20 hits, 222 misses.
@budget_keyed_cache(65536)
def _hb_verdict(face):
    return lattice.is_hilbert_basis(*face)


def is_tdi(system: LinearSystem) -> TdiCertificate:
    """Face-by-face certification; checking minimal faces suffices because
    the active set of any face extends some minimal face's active set."""
    h = system.hrep()
    v = polyhedron.dd_convert(h)
    if v.is_empty:
        return TdiCertificate(
            verdict="vacuous", faces=(), failing=None, integral=None,
            note="empty polyhedron: no integral objective has a finite optimum",
        )
    integral = polyhedron.is_integral(v, h)[0]
    faces = []
    cols = system.columns
    for face in polyhedron.minimal_faces(h, v):
        # h.ineqs are the columns in order, so face.active indexes columns
        try:
            report = _hb_verdict(
                (tuple(cols[j] for j in face.active), face.facets, face.heights)
            )
        except Undecided:
            return TdiCertificate(
                verdict="undecided", faces=tuple(faces), failing=None,
                integral=integral, note="budget exhausted during a face check",
            )
        check = FaceCheck(point=face.point, active=face.active, witnesses=report.witnesses)
        faces.append(check)
        if not report.verdict:
            return TdiCertificate(
                verdict=False, faces=tuple(faces), failing=check, integral=integral
            )
    if not integral:
        raise AssertionError("certified system with a non-integral polyhedron")
    return TdiCertificate(verdict=True, faces=tuple(faces), failing=None, integral=True)


def is_ideal_clutter(c: RawClutter):
    """Integrality of the covering polyhedron {x >= 0 : x*A >= 1}."""
    if not c.n:
        return True, None
    h = covering_system(c).hrep()
    return polyhedron.is_integral(polyhedron.dd_convert(h), h)


def covering_system(c: RawClutter) -> LinearSystem:
    """The covering dual in <=-form: columns -v_i with bound -1, -e_j with 0."""
    cols = [tuple(-x for x in vec) for vec in c.characteristic_vectors()]
    w = [-1] * len(cols)
    for j in range(c.n):
        cols.append(tuple(-int(i == j) for i in range(c.n)))
        w.append(0)
    return LinearSystem(cols, w)


def is_mfmc(c: RawClutter) -> TdiCertificate:
    """Flow property of a clutter: the covering system is TDI.  With n = 0 it
    has no rows; R^0's one face has an empty active set, a Hilbert basis of {0}."""
    if not c.n:
        face = FaceCheck(point=(), active=(), witnesses=())
        return TdiCertificate(verdict=True, faces=(face,), failing=None, integral=True)
    return is_tdi(covering_system(c))


# ---------------------------------------------------------------------------
# Hypothesis-vs-verdict reports for general integer systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemReport:
    integral: bool | str  # bool, or "vacuous" for an empty polyhedron
    lifted_hilbert: bool
    tdi: bool | str
    implication_respected: bool


def lifted_vectors(system: LinearSystem) -> tuple[IntVec, ...]:
    return tuple(v + (wi,) for v, wi in zip(system.columns, system.w))


def _integrality(cert: TdiCertificate) -> bool | str:
    """Integrality of the system's polyhedron, "vacuous" when it is empty."""
    return "vacuous" if cert.verdict == "vacuous" else cert.integral


def sufficiency_check(system: LinearSystem) -> SystemReport:
    """Integral polyhedron + lifted columns a Hilbert basis must force TDI."""
    lifted_ok = lattice.hilbert_basis_verdict(lifted_vectors(system))
    cert = is_tdi(system)
    integral = _integrality(cert)
    hyp = (integral is True or integral == "vacuous") and lifted_ok
    respected = (not hyp) or cert.holds
    return SystemReport(
        integral=integral,
        lifted_hilbert=lifted_ok,
        tdi=cert.verdict,
        implication_respected=respected,
    )


def nonnegative_equivalence_check(columns, w) -> RoundingReport:
    """For A >= 0, w >= 0: the system x >= 0, x*A <= w is TDI exactly when
    the polyhedron is integral and the lifted columns (v_i, w_i), the
    vectors (-e_j, 0) and e_{n+1} form a Hilbert basis.

    This is the rounding equivalence of `integer_rounding_check` applied to
    the system with the rows -e_j added.  Without e_{n+1} the only-if
    direction fails whenever height 1 cannot be reached: x >= 0,
    x1 + x2 <= 2 is TDI and integral, yet no lifted vector has height 1.
    Since w >= 0 puts 0 in the polyhedron, it is never empty.  Returns that
    system's `RoundingReport`; `iff_respected` says whether the
    equivalence held."""
    system = LinearSystem(columns, w)  # integers, nonempty, one bound per column
    if any(x < 0 for v in system.columns for x in v) or any(x < 0 for x in system.w):
        raise UsageError("nonnegative_equivalence_check: entries must be >= 0")
    n = system.n
    cols = list(system.columns) + [tuple(-int(i == j) for i in range(n)) for j in range(n)]
    bounds = list(system.w) + [0] * n
    return integer_rounding_check(LinearSystem(cols, bounds))


@dataclass(frozen=True)
class RoundingReport:
    rounding: bool
    tdi: bool | str
    integral: bool | str
    iff_respected: bool


def integer_rounding_check(system: LinearSystem) -> RoundingReport:
    """Rounding property: lifted columns plus the last unit vector form a
    Hilbert basis; with an integral polyhedron this is equivalent to TDI."""
    lifted = list(lifted_vectors(system))
    lifted.append((0,) * system.n + (1,))
    rounding = lattice.hilbert_basis_verdict(lifted)
    cert = is_tdi(system)
    integral = _integrality(cert)
    if cert.verdict == "undecided" or integral == "vacuous":
        respected = True  # no finite optima: the equivalence says nothing
    else:
        respected = cert.holds == (rounding and integral is True)
    return RoundingReport(
        rounding=rounding, tdi=cert.verdict, integral=integral, iff_respected=respected
    )


# ---------------------------------------------------------------------------
# Stability polytopes and the perfection cross-check
# ---------------------------------------------------------------------------


def stab_system(g: SimpleGraph) -> LinearSystem:
    """The stability polytope {x >= 0 : sum over each maximal clique <= 1}
    as columns: clique vectors with bound 1, -e_j with bound 0."""
    n = g.n
    cols = [tuple(int(i in set(cl)) for i in range(n)) for cl in combinat.maximal_cliques(g)]
    w = [1] * len(cols)
    for j in range(n):
        cols.append(tuple(-int(i == j) for i in range(n)))
        w.append(0)
    return LinearSystem(cols, w)


@dataclass(frozen=True)
class PerfectionReport:
    perfect: bool
    stab_integral: bool
    stab_tdi: bool | str
    agree: bool


def perfection_crosscheck(g: SimpleGraph) -> PerfectionReport:
    """Perfection, stability-polytope integrality and TDI must coincide."""
    perfect, _ = combinat.is_perfect_small(g)
    system = stab_system(g)
    cert = is_tdi(system)
    integral = _integrality(cert)
    agree = (perfect == integral) and (
        cert.verdict == "undecided" or cert.holds == perfect
    )
    return PerfectionReport(
        perfect=perfect, stab_integral=integral, stab_tdi=cert.verdict, agree=agree
    )


# ---------------------------------------------------------------------------
# Consistency suite used by the tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClutterVerdicts:
    ideal: bool
    mfmc: bool | str
    ntf: ideals.PowerComparisonReport
    closure_vs_symbolic: ideals.PowerComparisonReport
    is_ehrhart: bool

    @property
    def consistent(self) -> bool:
        """The flow property holds exactly when every power equals its
        symbolic power, and idealness exactly when every closure of a power
        does (see `ideals`); under the lattice-spanning (Ehrhart)
        hypothesis, idealness forces the flow property."""
        if self.mfmc == "undecided":
            return True
        mfmc = self.mfmc is True or self.mfmc == "vacuous"
        return (
            mfmc == self.ntf.ok
            and self.ideal == self.closure_vs_symbolic.ok
            and not (self.is_ehrhart and self.ideal and not mfmc)
        )


def clutter_verdicts(c: RawClutter) -> ClutterVerdicts:
    """Idealness is read off the flow certificate: `is_mfmc` runs
    `polyhedron.dd_convert` on the covering system, as `is_ideal_clutter`
    does, and its `integral` is that V-representation's integrality, so one
    double description serves both verdicts."""
    cert = is_mfmc(c)
    return ClutterVerdicts(
        ideal=cert.integral,
        mfmc=cert.verdict,
        ntf=ideals.is_ntf(c),
        closure_vs_symbolic=ideals.closure_vs_symbolic(c),
        is_ehrhart=ehrhart.is_ehrhart_clutter(c)[0],
    )
