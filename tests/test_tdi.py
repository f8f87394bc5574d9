import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from clutterlab import combinat, ehrhart, errors, ideals, lattice, polyhedron, tdi
from clutterlab.combinat import Clutter, RawClutter
from clutterlab.errors import UsageError
from clutterlab.families import complete_bipartite, cycle, cycle_clutter, line_graph_k24
from clutterlab.tdi import LinearSystem

from conftest import mfmc_ilp_crosscheck, random_system

F = Fraction


def test_linear_system_validation():
    with pytest.raises(UsageError):
        LinearSystem([(1, 0)], (0, 0))
    with pytest.raises(UsageError):
        LinearSystem([(0, 0)], (1,))
    with pytest.raises(UsageError):
        LinearSystem([], ())
    with pytest.raises(UsageError):
        tdi.nonnegative_equivalence_check([], [])


def test_linear_system_rejects_non_integers():
    # int() would truncate these to columns (0, 1), (1, 0) and w (1, 0),
    # a system nobody asked about
    for columns, w in (([(0.5, 1), (1, 0)], [1, 0]), ([(0, 1), (1, 0)], [1.9, 0.7]),
                       ([("1", 0)], [0]), ([(F(1, 2), 1)], [0])):
        with pytest.raises(UsageError, match="expected an integer"):
            LinearSystem(columns, w)
    with pytest.raises(UsageError, match="expected an integer"):
        tdi.sufficiency_check(LinearSystem([(0.5, 1), (1, 0)], [1.9, 0.7]))
    assert LinearSystem([(True, 0)], [False]).columns == ((1, 0),)  # bools are integers


def test_nonnegative_equivalence_check_rejects_non_integers():
    for columns, w in (([(1.5, 1)], [1]), ([(1, 1)], [1.5]), ([(1, 1)], ["1"])):
        with pytest.raises(UsageError, match="expected an integer"):
            tdi.nonnegative_equivalence_check(columns, w)
    assert tdi.nonnegative_equivalence_check([(True, True)], [1]).iff_respected


def test_tdi_unit_system():
    cert = tdi.is_tdi(LinearSystem([(1, 0), (0, 1)], (0, 0)))
    assert cert.verdict is True
    assert cert.integral is True


def test_tdi_missing_interior_generator():
    cert = tdi.is_tdi(LinearSystem([(1, 2), (2, 1)], (0, 0)))
    assert cert.verdict is False
    assert set(cert.failing.active) == {0, 1}
    assert (1, 1) in cert.failing.witnesses


def test_tdi_full_basis_system():
    cert = tdi.is_tdi(LinearSystem([(1, 2), (1, 1), (2, 1)], (0, 0, 0)))
    assert cert.verdict is True


def test_tdi_vacuous_on_empty_polyhedron():
    cert = tdi.is_tdi(LinearSystem([(1,), (-1,)], (-1, -1)))
    assert cert.verdict == "vacuous"
    assert cert.holds


def test_stab_system_of_an_edge():
    g = combinat.SimpleGraph(2, [(0, 1)])
    assert tdi.is_tdi(tdi.stab_system(g)).verdict is True


def test_idealness(triangle, square):
    ok, wit = tdi.is_ideal_clutter(triangle)
    assert not ok and wit == (F(1, 2), F(1, 2), F(1, 2))
    assert tdi.is_ideal_clutter(square)[0]


def test_idealness_builds_fractions_only_for_a_witness(triangle, square, monkeypatch):
    # vertices stay integer pairs (q, t): an ideal clutter's check makes no
    # Fraction, and the triangle's fractional witness makes one per entry
    built = []

    def fraction(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(polyhedron, "Fraction", fraction)
    assert tdi.is_ideal_clutter(square) == (True, None)
    assert built == []
    assert tdi.is_ideal_clutter(triangle) == (False, (F(1, 2), F(1, 2), F(1, 2)))
    assert built == [(1, 2)] * 3


def test_mfmc(triangle, square):
    assert tdi.is_mfmc(square).holds
    assert tdi.is_mfmc(triangle).verdict is False
    assert tdi.is_mfmc(combinat.blocker(square)).holds


def test_face_verdict_cache_keys_on_the_resolved_budget(monkeypatch):
    # the path P4 needs 4 steps in one face check: a verdict cached under
    # the default budget must not answer once CLUTTERLAB_BUDGET lowers it
    p4 = Clutter(4, [(0, 1), (1, 2), (2, 3)])
    monkeypatch.delenv("CLUTTERLAB_BUDGET", raising=False)
    tdi._hb_verdict.cache_clear()
    assert tdi.is_mfmc(p4).verdict is True
    monkeypatch.setenv("CLUTTERLAB_BUDGET", "3")
    assert tdi.is_mfmc(p4).verdict == "undecided"
    monkeypatch.setenv("CLUTTERLAB_BUDGET", "4")
    assert tdi.is_mfmc(p4).verdict is True


def test_mfmc_builds_no_face_cone_dd(monkeypatch):
    # covering polyhedra are pointed, so every face cone takes its facets
    # from the polyhedron's edges; a system with lines keeps the face DD
    calls = []
    to_hrep = polyhedron.cone_generators_to_hrep
    monkeypatch.setattr(
        polyhedron, "cone_generators_to_hrep", lambda *args: calls.append(args) or to_hrep(*args)
    )
    tdi._hb_verdict.cache_clear()
    p4 = Clutter(4, [(0, 1), (1, 2), (2, 3)])
    bull = Clutter(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)])
    verdicts = [tdi.is_mfmc(c).verdict for c in (cycle_clutter(5), p4, bull)]
    assert verdicts == [False, True, False]
    assert calls == []
    assert tdi.is_tdi(LinearSystem([(1, 0, 0), (0, 1, 0), (1, 1, 0)], (1, 1, 1))).verdict is True
    assert calls


def test_mfmc_blockers_of_bipartite():
    for builder in (lambda: cycle(4), lambda: complete_bipartite(2, 3), lambda: complete_bipartite(3, 3)):
        g = builder()
        c = Clutter(g.n, g.edges)
        assert tdi.is_mfmc(combinat.blocker(c)).holds


def test_line_k24_clutter_ideal_and_mfmc():
    _, cl = line_graph_k24()
    assert tdi.is_ideal_clutter(cl)[0]
    assert tdi.is_mfmc(cl).holds


def test_ilp_crosscheck(triangle, square):
    ok, _ = mfmc_ilp_crosscheck(square, wmax=2)
    assert ok
    ok, w = mfmc_ilp_crosscheck(triangle, wmax=1)
    assert not ok and w == (1, 1, 1)


def test_sufficiency_reports():
    rep = tdi.sufficiency_check(LinearSystem([(1, 2), (2, 1)], (0, 0)))
    assert rep.integral is True and not rep.lifted_hilbert and rep.tdi is False
    assert rep.implication_respected
    rep = tdi.sufficiency_check(LinearSystem([(1, 2), (1, 1), (2, 1)], (0, 0, 0)))
    assert rep.integral is True and rep.lifted_hilbert and rep.tdi is True
    rep = tdi.sufficiency_check(LinearSystem([(1, 0), (0, 1)], (1, 1)))
    assert rep.integral is True and rep.lifted_hilbert and rep.tdi is True


def test_undecided_sufficiency_check_reports_integrality(monkeypatch):
    # the face check runs out of budget, and integrality still comes from
    # is_tdi's one double description of the system
    system = LinearSystem([(-3, -2), (1, -3)], (3, 1))
    full = tdi.sufficiency_check(system)
    calls = []
    convert = polyhedron.dd_convert
    monkeypatch.setattr(polyhedron, "dd_convert", lambda rep: calls.append(rep) or convert(rep))
    with errors.budget(1):
        rep = tdi.sufficiency_check(system)
    assert full.tdi is False and rep.tdi == "undecided"
    assert rep.integral is full.integral is False
    assert len(calls) == 1


def test_converse_gap_instance():
    # TDI with an integral polyhedron, yet the lifted columns are not a
    # Hilbert basis: the second constraint is nowhere active
    rep = tdi.sufficiency_check(LinearSystem([(1,), (2,)], (0, 3)))
    assert rep.tdi is True
    assert rep.integral is True
    assert not rep.lifted_hilbert
    assert rep.implication_respected


def test_nonnegative_equivalence_examples(square):
    rep = tdi.nonnegative_equivalence_check([(1, 1)], (1,))
    assert rep.iff_respected and rep.tdi is True
    cols = combinat.clique_clutter(cycle(5)).characteristic_vectors()
    rep = tdi.nonnegative_equivalence_check(cols, (1,) * len(cols))
    assert rep.iff_respected and rep.tdi is False and rep.integral is False
    rep = tdi.nonnegative_equivalence_check(square.characteristic_vectors(), (1,) * 4)
    assert rep.iff_respected and rep.tdi is True
    # Q = {0}: TDI, yet the lifted heights 3, 2, 0 never reach height one
    rep = tdi.nonnegative_equivalence_check([(1,), (1,), (1,), (3,)], (3, 2, 0, 0))
    assert rep.iff_respected and rep.tdi is True


def test_nonnegative_equivalence_gap():
    # for weights without a unit entry the equivalence needs e_{n+1}:
    # x >= 0, x1+x2 <= 2 is TDI and integral, but the lifted columns and
    # the negated unit vectors alone cannot reach height one
    rep = tdi.nonnegative_equivalence_check([(1, 1)], (2,))
    assert rep.tdi is True
    assert rep.integral is True
    assert not lattice.is_hilbert_basis([(1, 1, 2), (-1, 0, 0), (0, -1, 0)]).verdict
    assert rep.rounding
    assert rep.iff_respected


def test_rounding_checks_read_the_full_reports_verdict():
    # the lifted checks stop at the first witness; on the first 200 systems
    # of the criterion 07a and 07b streams they must read the verdict of the
    # report that lists every witness.  07a alone would not notice a False
    # answered too eagerly: a false hypothesis respects the implication.
    rng = random.Random(2024)
    verdicts = Counter()
    for _ in range(200):
        system = LinearSystem(*random_system(rng, -3))
        want = lattice.is_hilbert_basis(tdi.lifted_vectors(system)).verdict
        assert tdi.sufficiency_check(system).lifted_hilbert is want, system
        verdicts["07a", want] += 1
    rng = random.Random(2025)
    for _ in range(200):
        cols, w = random_system(rng, 0)
        n = len(cols[0])
        lifted = [v + (wi,) for v, wi in zip(cols, w)]
        lifted += [tuple(-int(i == j) for i in range(n)) + (0,) for j in range(n)]
        lifted.append((0,) * n + (1,))
        want = lattice.is_hilbert_basis(lifted).verdict
        assert tdi.nonnegative_equivalence_check(cols, w).rounding is want, (cols, w)
        verdicts["07b", want] += 1
    assert all(verdicts[s, v] >= 20 for s in ("07a", "07b") for v in (True, False)), verdicts


def test_rounding_reports():
    rep = tdi.integer_rounding_check(LinearSystem([(1, 0), (0, 1)], (1, 1)))
    assert rep.rounding and rep.iff_respected
    rep = tdi.integer_rounding_check(LinearSystem([(1, 2), (2, 1)], (0, 0)))
    assert not rep.rounding and rep.iff_respected
    # x <= 0 and x >= 1: no finite optima, so the equivalence says nothing
    rep = tdi.integer_rounding_check(LinearSystem([(1,), (-1,)], (0, -1)))
    assert (rep.tdi, rep.integral, rep.iff_respected) == ("vacuous", "vacuous", True)


def test_rounding_check_under_a_budget_that_stops_the_face_checks():
    # at budgets 4 and 5 the lifted check decides (no Hilbert basis) and the
    # face check stops, so the equivalence says nothing; at 3 the lifted
    # check stops, at 6 both decide
    system = LinearSystem([(1, 2), (2, 1)], (0, 0))
    for limit in (4, 5):
        with errors.budget(limit):
            rep = tdi.integer_rounding_check(system)
        assert (rep.rounding, rep.tdi, rep.integral, rep.iff_respected) == (False, "undecided", True, True)
    with errors.budget(3), pytest.raises(errors.Undecided):
        tdi.integer_rounding_check(system)
    with errors.budget(6):
        assert tdi.integer_rounding_check(system).tdi is False


def test_perfection_crosscheck():
    lk24, _ = line_graph_k24()
    for g, want in [(cycle(5), False), (cycle(4), True), (lk24, True)]:
        rep = tdi.perfection_crosscheck(g)
        assert rep.agree
        assert rep.perfect is want


def test_edmonds_giles_necessity_random():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 3)
        q = rng.randint(1, 4)
        cols = []
        while len(cols) < q:
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v):
                cols.append(v)
        w = tuple(rng.randint(-2, 2) for _ in range(q))
        cert = tdi.is_tdi(LinearSystem(cols, w))
        if cert.verdict is True:
            assert cert.integral is True  # asserted internally as well


def test_clutter_verdict_vectors(triangle, square):
    v = tdi.clutter_verdicts(square)
    assert v.ideal and v.mfmc is True and v.ntf.ok and v.closure_vs_symbolic.ok
    assert v.is_ehrhart and v.consistent
    v = tdi.clutter_verdicts(triangle)
    assert not v.ideal and v.mfmc is False and not v.ntf.ok
    assert v.is_ehrhart and v.consistent


def test_verdict_vectors_check_both_equivalences(square):
    # with n = 0 the covering system has no rows and every verdict holds
    for c in (square, RawClutter(0, ())):
        v = tdi.clutter_verdicts(c)
        assert v.ideal is True and v.mfmc is True and v.is_ehrhart and v.consistent
        fails = ideals.PowerComparisonReport(2, (1,) * c.n)
        assert not replace(v, ntf=fails).consistent  # flow property, yet I^2 != I^(2)
        assert not replace(v, mfmc=False, is_ehrhart=False).consistent  # I^i = I^(i), no flow
        assert not replace(v, closure_vs_symbolic=fails).consistent  # ideal, yet a closure differs
        assert not replace(v, ideal=False, mfmc=False, ntf=fails, is_ehrhart=False).consistent
        assert not replace(v, mfmc=False, ntf=fails).consistent  # Ehrhart and ideal, no flow
        assert replace(v, mfmc="undecided", ntf=fails).consistent


def test_each_clutter_cone_is_built_once(monkeypatch):
    # clutter_verdicts runs one DD of the covering polyhedron and one of the
    # symbolic cone, which is_ntf and closure_vs_symbolic share; analyze and
    # canonical_degrees share one triangulation.  The symbolic cone is given
    # by its inequality normals, -e_j and (-u, 1) per minimal cover u, and
    # its rays come from the polar DD of `cone_generators_to_hrep`, which
    # other cones call with their generators.
    c5 = cycle_clutter(5)
    symbolic = {tuple(-int(i == j) for i in range(6)) for j in range(6)}
    symbolic |= {tuple(-int(i in u) for i in range(5)) + (1,) for u in combinat.minimal_covers(c5)}
    for mod in (combinat, ehrhart, ideals, tdi):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    calls = Counter()

    def count(mod, name, key=lambda *args: True):
        fn = getattr(mod, name)

        def counted(*args):
            if key(*args):
                calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(mod, name, counted)

    count(polyhedron, "dd_convert")
    count(polyhedron, "cone_generators_to_hrep", lambda normals, n: set(normals) == symbolic)
    count(lattice, "_triangulate")
    assert tdi.clutter_verdicts(c5).consistent
    assert calls["dd_convert"] == 1 and calls["cone_generators_to_hrep"] == 1
    calls.clear()
    ehrhart.analyze(cycle_clutter(4))
    ehrhart.canonical_degrees(cycle_clutter(4))
    assert calls == {"_triangulate": 1}


def test_tum_spot_check():
    # a totally unimodular column system stays TDI for assorted integral w
    _, cl = line_graph_k24()
    cols = cl.characteristic_vectors()
    rng = random.Random(5)
    for _ in range(6):
        w = tuple(rng.randint(0, 2) for _ in cols)
        cert = tdi.is_tdi(LinearSystem(cols, w))
        assert cert.holds, w
