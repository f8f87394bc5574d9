import itertools
import random
from collections import Counter
from math import prod
from operator import le

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clutterlab import errors, kernel, lattice
from clutterlab.errors import StepCounter, Undecided, UsageError
from clutterlab.lattice import (
    ConeWithLattice,
    hilbert_basis,
    hilbert_basis_verdict,
    is_hilbert_basis,
)
from clutterlab.tdi import LinearSystem, is_tdi

from conftest import (
    brute_hilbert_basis,
    brute_in_semigroup,
    det_oracle,
    extreme_rays_oracle,
    hilbert_basis_triangulation_oracle,
    is_pointed_rank_oracle,
    lexicographic_signs_oracle,
    membership_report_oracle,
    pivot_minor_oracle,
    rank_oracle,
    semigroup_member,
    solve_oracle,
    triangulate_oracle,
)

LIFTED_LINE_K24 = [
    (1, 1, 1, 1, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, 1, 1, 1, 1),
    (1, 0, 0, 0, 1, 0, 0, 0, 1),
    (0, 1, 0, 0, 0, 1, 0, 0, 1),
    (0, 0, 1, 0, 0, 0, 1, 0, 1),
    (0, 0, 0, 1, 0, 0, 0, 1, 1),
]

GAP_WITNESS = (1, 1, 1, 1, 1, 1, 1, 1, 3)


def brute_cone_points(gens, n, maxabs):
    cone = ConeWithLattice.from_vectors(gens, n)
    pts = set()
    for p in itertools.product(range(-maxabs, maxabs + 1), repeat=n):
        if sum(abs(x) for x in p) <= maxabs and cone.contains(p):
            pts.add(p)
    return pts


def test_quadrant_basis():
    assert hilbert_basis(ConeWithLattice.from_vectors([(1, 0), (0, 1)])) == ((0, 1), (1, 0))


def test_plane_cone_with_interior_point():
    got = hilbert_basis(ConeWithLattice.from_vectors([(1, 0), (1, 2)]))
    assert got == ((1, 0), (1, 1), (1, 2))


def test_non_pointed_cone_rejected():
    cone = ConeWithLattice.from_vectors([(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(UsageError, match="pointed"):
        hilbert_basis(cone)
    with pytest.raises(UsageError, match="pointed"):
        lattice.half_open_points(cone)
    with pytest.raises(UsageError, match="pointed"):
        cone.extreme_rays


def test_lifted_clique_cone_gap():
    # the lifted clique vectors of the line graph of the 2x4 complete
    # bipartite graph miss exactly one basis element of their cone
    hb = hilbert_basis(ConeWithLattice.from_vectors(LIFTED_LINE_K24))
    extra = [x for x in hb if x not in set(LIFTED_LINE_K24)]
    assert extra == [GAP_WITNESS]
    rep = is_hilbert_basis(LIFTED_LINE_K24)
    assert rep.verdict is False
    assert rep.witnesses == (GAP_WITNESS,)


def test_lifted_triangle_is_basis():
    rep = is_hilbert_basis([(1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)])
    assert rep.verdict is True


def test_semigroup_member_trivial():
    ok, combo = semigroup_member((2, 3), [(1, 0), (0, 1)])
    assert ok and combo == (2, 3)


def test_semigroup_member_gap():
    ok, _ = semigroup_member((1, 1), [(1, 0), (1, 2)])
    assert not ok


def test_semigroup_member_lifted_witness():
    ok, _ = semigroup_member(GAP_WITNESS, LIFTED_LINE_K24)
    assert not ok


def test_semigroup_member_with_lineality():
    ok, combo = semigroup_member((5, 0), [(1, 0), (-1, 0), (0, 1)])
    assert ok and combo[0] - combo[1] == 5 and combo[2] == 0
    ok, _ = semigroup_member((1, 0), [(2, 0), (-2, 0), (0, 1)])
    assert not ok
    ok, combo = semigroup_member((-3, 2), [(1, 0), (-1, 0), (0, 1)])
    assert ok and combo == (0, 3, 2)


def test_is_hilbert_basis_with_lineality():
    assert is_hilbert_basis([(1, 0), (-1, 0), (0, 1)]).verdict is True
    rep = is_hilbert_basis([(2, 0), (-2, 0), (0, 1)])
    assert rep.verdict is False and rep.witnesses
    assert is_hilbert_basis([(1,), (-1,)]).verdict is True
    assert is_hilbert_basis([(2,), (-2,)]).verdict is False


def negated(v):
    return tuple(-x for x in v)


def group_index(vectors):
    """Index of the group Z*vectors in the lattice points of its span."""
    _, d, _ = kernel.smith_normal_form(tuple(zip(*vectors)))
    return prod(d[i][i] for i in range(rank_oracle(vectors)))


def test_lineality_criterion_matches_membership():
    # cones with lineality, every other one with a forced pair g, -c*g: with
    # c = 2 the generators in the lineality space often span a proper
    # subgroup Z*H_L of the lineality lattice L
    rng = random.Random(17)
    tested = short = witnessed = 0
    while tested < 300:
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n + 2))]
        if tested % 2:
            gens.append(tuple(-rng.randint(1, 2) * x for x in rng.choice(gens)))
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        cone = ConeWithLattice.from_vectors(gens, n)
        if cone.is_pointed:
            continue
        rep = is_hilbert_basis(gens)
        assert rep == membership_report_oracle(gens, rep.basis), gens
        # the checks: sorted lattice points of the cone, whose part in the
        # lineality space is a basis of L and its negatives
        assert list(rep.basis) == sorted(set(rep.basis))
        assert all(cone.contains(t) for t in rep.basis)
        in_space = [t for t in rep.basis if cone.contains(negated(t))]
        m = len(cone.lineality_lattice_basis)
        assert len(in_space) == 2 * m and rank_oracle(in_space) == m
        assert all(negated(t) in in_space for t in in_space)
        assert group_index(in_space) == 1
        tested += 1
        short += group_index([g for g in gens if cone.contains(negated(g))]) != 1
        witnessed += bool(rep.witnesses)
    assert short >= 20 and witnessed >= 20


@st.composite
def hilbert_sets(draw):
    """A vector set with n <= 5 and entries -3..3: plain, or lifted with the
    unit vector of the last coordinate added as the rounding checks add it;
    with, at random, a forced lineality pair g, -c*g, a vector of gcd 2 or
    3, the zero vector and a repeated vector.  Sets whose zonotope box
    exceeds 5,000 points are left out, for the brute-force oracle's sake."""
    n = draw(st.integers(1, 5))
    unit = st.tuples(*[st.integers(-1, 1)] * n)
    vecs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=4))
    if draw(st.booleans()):
        vecs.append((0,) * (n - 1) + (1,))
    if draw(st.booleans()):
        g = draw(unit)
        vecs += [g, tuple(-draw(st.integers(1, 2)) * x for x in g)]
    if draw(st.booleans()):
        vecs.append(tuple(draw(st.integers(2, 3)) * x for x in draw(unit)))
    if draw(st.booleans()):
        vecs.append((0,) * n)
    if draw(st.booleans()):
        vecs.append(draw(st.sampled_from(vecs)))
    assume(prod(sum(abs(v[i]) for v in vecs) + 1 for i in range(n)) <= 5000)
    return vecs


def test_verdict_matches_the_report_and_brute_force():
    # the verdict that stops at the first witness reads the full report's
    # verdict and the brute-force one: brute_hilbert_basis on pointed cones,
    # membership of every check on cones with lineality.  It spends a
    # prefix of the report's steps, so every budget that decides the report
    # decides the verdict, the same way.
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(hilbert_sets())
    def check(vecs):
        n = len(vecs[0])
        rep = is_hilbert_basis(vecs)
        assert hilbert_basis_verdict(vecs) is rep.verdict, vecs
        nonzero = [v for v in vecs if any(v)]
        if not nonzero:
            want = True
        elif ConeWithLattice.from_vectors(nonzero, n).is_pointed:
            want = set(brute_hilbert_basis(nonzero, n)) <= set(nonzero)
        else:
            want = membership_report_oracle(nonzero, rep.basis).verdict
            seen["lineality"] += 1
        assert want is rep.verdict, vecs
        seen[rep.verdict] += 1
        undecided = False
        for b in (0, 1, 2, 5, 20, 100):
            with errors.budget(b):
                try:
                    decided = is_hilbert_basis(vecs).verdict
                except Undecided:
                    undecided = True
                    continue
                assert hilbert_basis_verdict(vecs) is decided, (vecs, b)
                seen["decided after undecided"] += undecided

    check()
    draws = seen[True] + seen[False]
    assert min(seen[True], seen[False]) >= 0.3 * draws, seen
    assert seen["lineality"] >= 20 and seen["decided after undecided"] >= 20, seen


def test_verdict_reads_an_extreme_ray_outside_h_before_any_box():
    # the extreme ray (1, 0) of cone((2, 0), (1, 3)) is not in H, so the
    # verdict is False at no step, while the report still enumerates the
    # box of cone((1, 0), (1, 3)), 3 points, one step each
    vecs = [(2, 0), (1, 3)]
    for b in (0, 1, 2):
        with errors.budget(b):
            assert hilbert_basis_verdict(vecs) is False
            with pytest.raises(Undecided):
                is_hilbert_basis(vecs)
    with errors.budget(3):
        assert is_hilbert_basis(vecs).verdict is False


def test_empty_input_rejected():
    with pytest.raises(UsageError):
        is_hilbert_basis([])


def test_basis_elements_irreducible():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 3)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        cone = ConeWithLattice.from_vectors(gens, n)
        if not cone.is_pointed:
            continue
        hb = hilbert_basis(cone)
        for h in hb:
            for h2 in hb:
                if h == h2:
                    continue
                diff = tuple(a - b for a, b in zip(h, h2))
                assert not cone.contains(diff), (gens, h, h2)


def test_closure_of_small_cone_points():
    # every small cone lattice point is a nonnegative combination of the basis
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(2, 3)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        cone = ConeWithLattice.from_vectors(gens, n)
        if not cone.is_pointed:
            continue
        hb = hilbert_basis(cone)
        for p in brute_cone_points(gens, n, 6):
            if not any(p):
                continue
            ok, _ = semigroup_member(p, hb)
            assert ok, (gens, p)


def test_self_consistency_and_monotonicity():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 3)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        cone = ConeWithLattice.from_vectors(gens, n)
        if not cone.is_pointed:
            continue
        hb = hilbert_basis(cone)
        assert is_hilbert_basis(hb).verdict is True
        pts = sorted(brute_cone_points(gens, n, 4))
        if pts:
            extra = pts[rng.randrange(len(pts))]
            assert is_hilbert_basis(list(hb) + [extra]).verdict is True


def test_membership_differential():
    rng = random.Random(14)
    for _ in range(120):
        n = rng.randint(1, 3)
        gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        a = tuple(rng.randint(-4, 4) for _ in range(n))
        got, combo = semigroup_member(a, gens)
        want = brute_in_semigroup(a, gens, 8)
        if got != want:
            # the brute force is coefficient-capped; only one direction binds
            assert got and not want
        if got:
            assert all(c >= 0 for c in combo)
            v = tuple(sum(c * g[i] for c, g in zip(combo, gens)) for i in range(n))
            assert v == a
    # graded sets (last coordinate 1): the coefficients of a sum to its last
    # coordinate, so the capped brute force is exact
    members = 0
    for _ in range(40):
        n = rng.randint(2, 4)
        gens = [
            tuple(rng.randint(-2, 2) for _ in range(n - 1)) + (1,)
            for _ in range(rng.randint(1, 4))
        ]
        coeffs = [rng.randint(0, 2) for _ in gens]
        a = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)]
        if rng.random() < 0.5:
            a[rng.randrange(n - 1)] += rng.choice((-1, 1))
        a = tuple(a)
        got, combo = semigroup_member(a, gens)
        assert got == brute_in_semigroup(a, gens, 8), (gens, a)
        if got:
            members += 1
            assert all(c >= 0 for c in combo)
            v = tuple(sum(c * g[i] for c, g in zip(combo, gens)) for i in range(n))
            assert v == a
    assert 10 <= members <= 30


def test_hilbert_basis_matches_brute_force():
    rng = random.Random(15)
    seen = set()
    for _ in range(60):
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n + 1))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        cone = ConeWithLattice.from_vectors(gens, n)
        if not cone.is_pointed:
            continue
        assert hilbert_basis(cone) == brute_hilbert_basis(gens, n), gens
        seen.add((n, bool(cone.hrep_normals[1])))
    # full-dimensional and lower-dimensional cones (with equation normals)
    assert seen == {(n, eqs) for n in (2, 3, 4) for eqs in (False, True)}


def test_packed_heights_at_field_width_boundaries():
    # the box points (1, i) of cone((1, 0), (1, d)) have facet heights
    # (i, d - i), so the largest height d crosses each power of two; all
    # share the total d, so none is compared with another.  For odd d the
    # box points of cone((1, 0), (2, d)) are (1, i) for i < d/2, all
    # irreducible, and (2, i) for i > d/2, each reduced by a (1, j): there
    # the comparisons run on heights up to d.
    for d in sorted({2**j + e for j in range(1, 8) for e in (-1, 0, 1)}):
        cone = ConeWithLattice.from_vectors([(1, 0), (1, d)])
        assert hilbert_basis(cone) == tuple((1, i) for i in range(d + 1)), d
        if d % 2:
            cone = ConeWithLattice.from_vectors([(1, 0), (2, d)])
            want = tuple((1, i) for i in range((d + 1) // 2)) + ((2, d),)
            assert hilbert_basis(cone) == want, d


small_cones = st.integers(2, 3).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(-3, 3)] * n).filter(any), min_size=1, max_size=n + 2
    )
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_cones)
def test_hilbert_basis_matches_brute_force_on_drawn_cones(gens):
    n = len(gens[0])
    cone = ConeWithLattice.from_vectors(gens, n)
    assume(cone.is_pointed)
    assert hilbert_basis(cone) == brute_hilbert_basis(gens, n)


@st.composite
def drawn_cones(draw):
    """A cone of one of four kinds: lifted 0/1 vectors (graded, often
    compressed), small integer vectors (often with lineality), nonnegative
    combinations of fewer vectors than the dimension (not full-dimensional),
    or the zero cone."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("lifted", "small", "lower", "zero")))
    if kind == "zero":
        return ConeWithLattice.from_vectors([], n)
    if kind == "lifted":
        vec = st.tuples(*[st.integers(0, 1)] * (n - 1), st.just(1))
    elif kind == "small":
        vec = st.tuples(*[st.integers(-1, 2)] * n)
    else:
        basis = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * n), min_size=1, max_size=max(1, n - 1)))
        vec = st.tuples(*[st.integers(0, 2)] * len(basis)).map(
            lambda c: tuple(sum(ci * b[i] for ci, b in zip(c, basis)) for i in range(n))
        )
    return ConeWithLattice.from_vectors(draw(st.lists(vec, min_size=n, max_size=2 * n + 1)), n)


def test_height_rules_match_the_rank_and_triangulation_routes():
    # on every drawn cone, pointedness read off heights agrees with the
    # rank of the normals; on every pointed one, the compressed shortcut
    # returns the triangulation route's basis and spends its steps, so the
    # least budget that decides it is the same
    kinds = set()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(drawn_cones())
    def check(cone):
        assert cone.is_pointed == is_pointed_rank_oracle(cone)
        if not cone.is_pointed:
            kinds.add("lineality")
            return
        steps = StepCounter(10**6, "oracle")
        want = hilbert_basis_triangulation_oracle(cone, steps)
        spent = 10**6 - steps.remaining
        with errors.budget(spent):
            assert hilbert_basis(cone) == want
        if spent:
            with errors.budget(spent - 1), pytest.raises(Undecided):
                hilbert_basis(cone)
        if not cone.generators:
            kinds.add("zero")
            return
        dim = cone.n - len(cone.hrep_normals[1])
        compressed = all(h <= 1 for r in cone.extreme_rays for h in cone.heights[r])
        tag = "compressed" if compressed else "not compressed"
        kinds.add(tag)
        if len(cone.extreme_rays) > dim:
            kinds.add(f"{tag}, not simplicial")
        if dim < cone.n:
            kinds.add(f"{tag}, not full-dimensional")

    check()
    assert kinds == {
        "zero", "lineality",
        *(f"{tag}{extra}" for tag in ("compressed", "not compressed")
          for extra in ("", ", not simplicial", ", not full-dimensional")),
    }


def random_pointed_cone(rng):
    """A seeded pointed cone: lifted 0/1 vectors (graded), small integer
    vectors, or small integer combinations of fewer basis vectors than
    the dimension (lower-dimensional); None when the draw is not pointed."""
    n = rng.randint(1, 5)
    kind = rng.randrange(3)
    k = rng.randint(1, 2 * n + 1)
    if kind == 0:
        gens = [tuple(rng.randint(0, 1) for _ in range(n - 1)) + (1,) for _ in range(k)]
    elif kind == 1:
        gens = [tuple(rng.randint(-1, 2) for _ in range(n)) for _ in range(k)]
    else:
        basis = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(rng.randint(1, max(1, n - 1)))]
        gens = [
            tuple(sum(rng.randint(0, 2) * b[i] for b in basis) for i in range(n))
            for _ in range(k)
        ]
    if not any(any(g) for g in gens):
        return None
    cone = ConeWithLattice.from_vectors(gens, n)
    return cone if cone.is_pointed else None


def test_triangulation_matches_dd_recursive_oracle(monkeypatch):
    # extreme rays, the set of simplices, the Hilbert basis and the
    # half-open decompositions, against a new DD per face and a rank test
    # per generator
    rng = random.Random(29)
    cones = []
    while len(cones) < 500:
        cone = random_pointed_cone(rng)
        if cone is not None:
            cones.append(cone)

    def observe(cones):
        out = []
        for cone in cones:
            closed, interior = lattice.half_open_points(cone)
            out.append((
                cone.extreme_rays,
                set(cone.triangulation),
                hilbert_basis(cone),
                sorted(closed),
                sorted(interior),
            ))
        return out

    got = observe(cones)
    monkeypatch.setattr(lattice, "_extreme_rays", extreme_rays_oracle)
    monkeypatch.setattr(lattice, "_triangulate", lambda c: triangulate_oracle(c.extreme_rays, c.n))
    # fresh instances: the first pass's cached properties would answer otherwise
    assert observe([ConeWithLattice(c.n, c.generators) for c in cones]) == got
    dims = [cone.n - len(cone.hrep_normals[1]) for cone in cones]
    assert sum(len(rays) > d for (rays, *_), d in zip(got, dims)) >= 100  # not simplicial
    assert sum(d < cone.n for cone, d in zip(cones, dims)) >= 100
    assert sum(d == cone.n for cone, d in zip(cones, dims)) >= 100
    assert sum(all(g[-1] == 1 for g in cone.generators) for cone in cones) >= 100


def test_triangulation_in_dimensions_six_and_seven():
    # from dimension six on, recursing into a face F & G that is not a
    # facet of F can reach a non-simplicial face whose ray count matches
    # the dimension expected of a facet
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(6, 7)
        gens = [tuple(rng.randint(0, 1) for _ in range(n - 1)) + (1,) for _ in range(rng.randint(n, 2 * n + 2))]
        cone = ConeWithLattice.from_vectors(gens, n)
        rays = extreme_rays_oracle(cone)
        assert cone.extreme_rays == rays
        assert set(lattice._triangulate(cone)) == set(triangulate_oracle(rays, n))


def fraction_parallelepiped_points(gens, n):
    """The reference construction: per class, an exact Fraction solve for the
    coefficients, then their integer parts subtracted.  Each point comes
    with its fractional coefficients scaled by the largest invariant factor."""
    k = len(gens)
    mat = tuple(tuple(g[i] for g in gens) for i in range(n))
    u, d, _ = kernel.smith_normal_form(mat)
    dk = d[k - 1][k - 1]
    out = []
    for combo in itertools.product(*[range(d[i][i]) for i in range(k)]):
        y = tuple(combo) + (0,) * (n - k)
        x = tuple(int(c) for c in solve_oracle(u, y))  # U^-1 y, U unimodular
        lam = solve_oracle(mat, x)
        shift = [l.numerator // l.denominator for l in lam]
        point = tuple(x[i] - sum(shift[j] * gens[j][i] for j in range(k)) for i in range(n))
        r = tuple((l - s) * dk for l, s in zip(lam, shift))
        assert all(c.denominator == 1 for c in r)
        out.append((point, tuple(int(c) for c in r)))
    return out


def random_unimodular(rng, m):
    """An m x m integer matrix of determinant ±1: the identity under a few
    drawn row additions, sign changes and row swaps."""
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(2 * m):
        i, j = rng.randrange(m), rng.randrange(m)
        if i != j:
            q = rng.choice((-2, -1, 1, 2))
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        if rng.random() < 0.3:
            u[i] = [-x for x in u[i]]
        if rng.random() < 0.3:
            u[i], u[j] = u[j], u[i]
    return u


def test_parallelepiped_points_match_fraction_solve(monkeypatch):
    # a simplex that the cone's facet heights certify unimodular takes no
    # elimination at all; every other one takes exactly one Smith form and
    # no Bareiss elimination: a unimodular one (its pivot minor ±1 or not)
    # and the empty simplex included.  The odometer carries from one
    # position into the next only when two or more invariant factors
    # exceed 1, so unimodular images U*D*V of such diagonals are drawn
    # besides the uniform ones.
    smith, solve = kernel.smith_normal_form, kernel.scaled_solve
    smith_calls, solve_calls = [], []
    monkeypatch.setattr(kernel, "smith_normal_form", lambda m: smith_calls.append(m) or smith(m))
    monkeypatch.setattr(kernel, "scaled_solve", lambda *a: solve_calls.append(a) or solve(*a))
    rng = random.Random(16)
    kinds = Counter()

    def box(gens, n):
        smith_calls.clear()
        solve_calls.clear()
        got = lattice._parallelepiped_points(gens, n, StepCounter(10**6, "test"))
        assert len(smith_calls) == 1 and not solve_calls, gens
        return got

    def check(gens, n):
        k = len(gens)
        got = box(gens, n)
        assert got == fraction_parallelepiped_points(gens, n), gens
        if k < n:
            kinds["k < n"] += 1
        elif det_oracle(gens) < 0:
            kinds["negative determinant"] += 1
        if len(got) == 1:
            kinds["one box point, square" if k == n else "one box point, k < n"] += 1
            if abs(pivot_minor_oracle(tuple(zip(*gens)))) == 1:
                kinds["one box point, pivot minor ±1"] += 1
        else:
            _, d, _ = smith(tuple(tuple(g[i] for g in gens) for i in range(n)))
            if sum(d[i][i] > 1 for i in range(k)) >= 2:
                kinds["two or more invariant factors > 1"] += 1
                if k < n:
                    kinds["carry, k < n"] += 1

    for _ in range(150):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        gens = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k))
        if rank_oracle(gens) == k:
            check(gens, n)
    for _ in range(30):
        diagonal = rng.choice(((2, 2), (1, 2, 6), (2, 4, 4)))
        k = len(diagonal)
        n = rng.randint(k, 5)
        u, v = random_unimodular(rng, n), random_unimodular(rng, k)
        # G = U * D * V with D the n x k diagonal, so G's invariant factors
        # are the drawn diagonal
        ud = [[row[j] * diagonal[j] for j in range(k)] for row in u]
        gens = tuple(
            tuple(sum(ud[i][t] * v[t][j] for t in range(k)) for i in range(n)) for j in range(k)
        )
        check(gens, n)
    for n in range(4):
        # the n x 0 matrix has no invariant factors, so its box is the origin
        assert box((), n) == [((0,) * n, ())]
        kinds["empty simplex"] += 1
    # the box scan of a cone that is not compressed takes one Smith form per
    # uncertified simplex and nothing for a certified one
    while kinds["certified, in a box scan"] < 40:
        cone = random_pointed_cone(rng)
        if cone is None or all(h <= 1 for r in cone.extreme_rays for h in cone.heights[r]):
            continue
        uncertified = [s for s in cone.triangulation if s not in cone.unimodular]
        smith_calls.clear()
        solve_calls.clear()
        hilbert_basis(cone)
        assert smith_calls == [tuple(tuple(g[i] for g in s) for i in range(cone.n)) for s in uncertified]
        assert not solve_calls
        kinds["certified, in a box scan"] += len(cone.triangulation) - len(uncertified)
    assert set(kinds) == {
        "k < n",
        "negative determinant",
        "one box point, square",
        "one box point, k < n",
        "one box point, pivot minor ±1",
        "two or more invariant factors > 1",
        "carry, k < n",
        "empty simplex",
        "certified, in a box scan",
    }, kinds
    assert kinds["two or more invariant factors > 1"] >= 20 and kinds["carry, k < n"] >= 5, kinds
    assert kinds["one box point, pivot minor ±1"] >= 20, kinds


@st.composite
def simplices_with_perturbations(draw):
    """k <= n independent generators in Z^n (n <= 7, entries -4..4) and a
    perturbation in their span: up to three integer combinations of them,
    often with zero coordinates, then the generators in a drawn order."""
    n = draw(st.integers(0, 7))
    k = draw(st.integers(0, n))
    simplex = tuple(draw(st.tuples(*[st.integers(-4, 4)] * n)) for _ in range(k))
    assume(rank_oracle(simplex) == k)
    coefficients = st.tuples(*[st.integers(-2, 2)] * k)
    combos = draw(st.lists(coefficients, min_size=1, max_size=3))
    head = tuple(tuple(sum(c * g[i] for c, g in zip(cs, simplex)) for i in range(n)) for cs in combos)
    return simplex, n, head + tuple(draw(st.permutations(simplex)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(simplices_with_perturbations())
@example(((), 3, ((0, 0, 0),)))  # the empty simplex has no signs
@example((((2, 0, 1), (0, 2, 1)), 3, ((2, 2, 2), (0, 2, 1), (2, 0, 1))))  # k < n, box of 2
@example((((1, 1), (1, -1)), 2, ((1, -1), (1, 1), (1, -1))))  # negative minor, not unimodular
def test_lexicographic_signs_match_fraction_solves(case):
    # one integer elimination gives the signs that a Fraction solve per
    # perturbation vector gave
    simplex, n, perturbation = case
    assert lattice._lexicographic_signs(simplex, n, perturbation) == lexicographic_signs_oracle(
        simplex, n, perturbation
    )


def test_unimodular_certificate_is_sound():
    # every simplex certified by facet heights has an all-ones Smith
    # diagonal; the certificate and the Bareiss minor each catch unimodular
    # simplices that the other misses
    rng = random.Random(33)
    routes = set()
    certified_kinds = set()
    cones = 0
    while cones < 400:
        cone = random_pointed_cone(rng)
        if cone is None:
            continue
        cones += 1
        if all(g[-1] == 1 for g in cone.generators):
            kind = "0/1-lifted"
        else:
            kind = "lower-dimensional" if cone.hrep_normals[1] else "full-dimensional"
        for simplex in cone.triangulation:
            mat = tuple(tuple(g[i] for g in simplex) for i in range(cone.n))
            _, d, _ = kernel.smith_normal_form(mat)
            unimodular = all(d[i][i] == 1 for i in range(len(simplex)))
            certified = simplex in cone.unimodular
            minor = abs(pivot_minor_oracle(mat)) == 1
            assert unimodular or not (certified or minor), simplex
            if certified:
                certified_kinds.add(kind)
                routes.add("certificate plus minor" if minor else "certificate only")
            elif minor:
                routes.add("minor only")
    assert routes == {"certificate only", "certificate plus minor", "minor only"}
    assert certified_kinds == {"0/1-lifted", "lower-dimensional", "full-dimensional"}


def test_zero_cone_certifies_its_empty_simplex():
    cone = ConeWithLattice.from_vectors([], 3)
    assert cone.triangulation == ((),)
    assert cone.unimodular == frozenset({()})
    with errors.budget(0):
        assert hilbert_basis(cone) == ()
        assert lattice.half_open_points(cone) == ([(0, 0, 0)], [(0, 0, 0)])


@st.composite
def height_rows(draw):
    """Distinct height tuples of one length 0..6, over entries that put
    2^k - 1 and 2^k side by side (the largest height sets the packed field
    width, so one of them fills a field up to its guard bit), each row with
    its reversal so that totals tie."""
    length = draw(st.integers(0, 6))
    k = draw(st.integers(0, 5))
    entry = st.sampled_from([0, 1, 2**k - 1, 2**k]) | st.integers(0, 2**k)
    rows = draw(st.lists(st.tuples(*[entry] * length), max_size=20))
    return list(dict.fromkeys(rows + [r[::-1] for r in rows]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(height_rows())
@example([])
@example([(1, 2), (2, 1), (1, 1)])
@example([(3, 0), (4, 0), (0, 3), (3, 4)])
def test_reduce_yields_the_minimal_rows_in_order(heights):
    # the items are positions, so they travel with their rows
    minimal = {i for i, h in enumerate(heights)
               if not any(g != h and all(map(le, g, h)) for g in heights)}
    # packed order is tuple order: the first height is the most significant field
    order = sorted(range(len(heights)), key=lambda i: (sum(heights[i]), heights[i]))
    # one comparison with each kept row of smaller total, up to the first divisor
    comparisons, kept = 0, []
    for i in order:
        below = [g for g in kept if sum(g) < sum(heights[i])]
        divisors = [j for j, g in enumerate(below) if all(map(le, g, heights[i]))]
        comparisons += divisors[0] + 1 if divisors else len(below)
        if not divisors:
            kept.append(heights[i])
    steps = StepCounter(10**9, "test")
    got = list(lattice._reduce(list(zip(heights, range(len(heights)))), steps))
    assert got == [i for i in order if i in minimal]
    assert 10**9 - steps.remaining == comparisons
    if comparisons:
        with pytest.raises(Undecided):
            list(lattice._reduce(list(zip(heights, heights)), StepCounter(comparisons - 1, "test")))


def test_skipped_reduction_spends_the_steps_of_the_reduction():
    # when every box is empty, hilbert_basis returns the extreme rays without
    # reducing them; it must spend exactly what the reduction spends on them
    rng = random.Random(37)
    charged = 0
    for _ in range(2000):
        cone = random_pointed_cone(rng)
        if cone is None:
            continue
        enumeration = StepCounter(10**6, "test")
        if any(
            any(pt)
            for simplex in cone.triangulation
            for pt, _ in lattice._parallelepiped_points(simplex, cone.n, enumeration)
        ):
            continue
        steps = StepCounter(10**6, "test")
        rows = [(cone.heights_of(r), r) for r in cone.extreme_rays]
        basis = tuple(sorted(lattice._reduce(rows, steps)))
        spent = 10**6 - steps.remaining
        assert basis == tuple(sorted(cone.extreme_rays))
        with errors.budget(spent):
            assert hilbert_basis(cone) == basis
        if spent:
            charged += 1
            with errors.budget(spent - 1), pytest.raises(Undecided):
                hilbert_basis(cone)
    assert charged >= 100


def test_step_budget_covers_enumeration_and_reduction():
    # cone((1, 0), (2, 5)) is one simplex with 5 parallelepiped points; the
    # reduction then makes 7 facet-height comparisons, one step each
    cone = ConeWithLattice.from_vectors([(1, 0), (2, 5)])
    system = LinearSystem(cone.generators, (0, 0))
    for limit in (4, 11):  # runs out while enumerating, resp. while reducing
        with errors.budget(limit):
            with pytest.raises(Undecided):
                hilbert_basis(cone)
            assert is_tdi(system).verdict == "undecided"
    with errors.budget(12):
        assert hilbert_basis(cone) == ((1, 0), (1, 1), (1, 2), (2, 5))
        assert is_tdi(system).verdict is False
    # the half-open decompositions spend one step per parallelepiped point
    with errors.budget(4), pytest.raises(Undecided):
        lattice.half_open_points(cone)
    with errors.budget(5):
        closed, interior = lattice.half_open_points(cone)
    assert len(closed) == len(interior) == 5
