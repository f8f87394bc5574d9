import functools
import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clutterlab import combinat, families
from clutterlab.combinat import Clutter, RawClutter, SimpleGraph
from clutterlab.errors import UsageError
from clutterlab.families import complete, complete_bipartite, cycle, path

from conftest import (
    _induced_oracle,
    all_labeled_graphs,
    brute_maximal_cliques,
    brute_maximal_stable_sets,
    brute_min_covers,
    disjoint_cover_partition_parent_oracle,
    hoang_witness_oracle,
    hoang_witness_two_search_oracle,
    max_disjoint_edges_parent_oracle,
    meyniel_oracle,
    meyniel_via_hoang_oracle,
    meyniel_via_hoang_parent_oracle,
    meyniel_via_hoang_two_search_oracle,
    minimal_covers_parent_oracle,
    random_graph,
    raw_clutter_edges_parent_oracle,
    relabeled,
    simple_cycle_meyniel_oracle,
    suspension,
)

F = Fraction


def test_clutter_invariants_enforced():
    with pytest.raises(UsageError):
        Clutter(3, [(0, 1), (0, 1, 2)])  # not an antichain
    with pytest.raises(UsageError):
        Clutter(3, [(0,), (1, 2)])  # singleton edge
    with pytest.raises(UsageError):
        Clutter(4, [(0, 1)])  # isolated vertices
    raw = RawClutter(3, [(0,), (1, 2)])
    assert raw.edges == ((0,), (1, 2))


def test_clutters_reject_non_integers():
    for cls in (RawClutter, Clutter):
        for n, edges in ((3.5, [(0, 1), (1, 2)]), ("3", [(0, 1), (1, 2)]),
                         (3, [(0, 1.5), (1, 2)]), (3, [(0, "1"), (1, 2)]), (3, [(F(0), 1), (1, 2)])):
            with pytest.raises(UsageError, match="expected an integer"):
                cls(n, edges)
    assert Clutter(2, [(False, True)]).edges == ((0, 1),)  # bools are integers


def test_simple_graph_rejects_non_integers():
    for n, edges in ((3.5, [(0, 1)]), ("3", [(0, 1)]), (3, [(0, 1.5)]), (3, [("0", 1)])):
        with pytest.raises(UsageError, match="expected an integer"):
            SimpleGraph(n, edges)
    assert SimpleGraph(True, []).n == 1  # bools are integers


def test_blocker_triangle_self_blocking(triangle):
    assert combinat.blocker(triangle).edges == ((0, 1), (0, 2), (1, 2))


def test_blocker_single_edge_gives_raw_singletons():
    b = combinat.blocker(RawClutter(3, [(0, 1, 2)]))
    assert b.edges == ((0,), (1,), (2,))
    assert isinstance(b, RawClutter) and not isinstance(b, Clutter)


def test_clutters_compare_by_value():
    # a Clutter equals the RawClutter with the same vertices and edges, so
    # the blocker of the blocker returns its input whichever class it has
    edges = [(0, 1), (1, 2), (0, 2)]
    raw, strict = RawClutter(3, edges), Clutter(3, edges)
    assert raw == strict and strict == raw and hash(raw) == hash(strict)
    assert combinat.blocker(combinat.blocker(raw)) == raw
    assert raw != RawClutter(4, edges) and raw != RawClutter(3, edges[:2])
    assert raw != (3, tuple(edges))


def test_blocker_square(square):
    assert combinat.blocker(square).edges == ((0, 2), (1, 3))


def test_minimal_covers_match_bruteforce():
    rng = random.Random(3)
    done = 0
    while done < 30:
        n = rng.randint(2, 6)
        cand = [
            tuple(sorted(rng.sample(range(n), rng.randint(2, min(3, n)))))
            for _ in range(rng.randint(1, 5))
        ]
        keep = [e for e in cand if not any(set(f) < set(e) for f in cand)]
        if {v for e in keep for v in e} != set(range(n)):
            continue
        c = Clutter(n, keep)
        assert combinat.minimal_covers(c) == brute_min_covers(c)
        assert combinat.blocker(combinat.blocker(c)).edges == c.edges
        done += 1


def test_covering_and_matching_numbers(triangle, square):
    assert combinat.covering_number(square) == 2
    assert combinat.max_disjoint_edges(square) == 2
    assert combinat.has_konig(square)
    c5 = Clutter(5, cycle(5).edges)
    assert combinat.covering_number(c5) == 3
    assert combinat.max_disjoint_edges(c5) == 2
    assert not combinat.has_konig(c5)
    assert combinat.covering_number(triangle) == 2
    assert combinat.max_disjoint_edges(triangle) == 1
    assert not combinat.has_konig(triangle)


def test_uniform_unmixed(square):
    assert combinat.is_uniform(square) == 2
    assert {len(s) for s in combinat.minimal_covers(square)} == {2}
    assert combinat.is_uniform(Clutter(4, [(0, 1), (1, 2, 3)])) is None
    c5 = Clutter(5, cycle(5).edges)
    assert combinat.is_uniform(c5) == 2
    assert {len(s) for s in combinat.minimal_covers(c5)} == {3}


def test_suspension(triangle):
    s = suspension(triangle)
    assert s.edges == ((0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert s.q == triangle.q
    assert suspension(RawClutter(2, [(0, 1)])).edges == ((0, 1, 2),)


def test_graph_constructions():
    assert combinat.graph_cone(complete(2)).edges == complete(3).edges
    assert combinat.complement(cycle(5)).edges == SimpleGraph(
        5, [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    ).edges
    rng = random.Random(14)
    for n in range(10):
        g = random_graph(rng, n)
        pairs = itertools.combinations(range(n), 2)
        assert combinat.complement(g).edges == tuple(e for e in pairs if e not in g.edges)
    lg = combinat.line_graph(complete_bipartite(2, 4))
    assert lg.n == 8
    cl = combinat.clique_clutter(lg)
    assert cl.q == 6
    expected = {
        (1, 1, 1, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 1, 1, 1),
        (1, 0, 0, 0, 1, 0, 0, 0),
        (0, 1, 0, 0, 0, 1, 0, 0),
        (0, 0, 1, 0, 0, 0, 1, 0),
        (0, 0, 0, 1, 0, 0, 0, 1),
    }
    assert set(cl.characteristic_vectors()) == expected


def test_clique_clutters():
    assert combinat.clique_clutter(complete(3)).edges == ((0, 1, 2),)
    assert combinat.clique_clutter(cycle(4)).edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_cone_suspension_compatibility():
    rng = random.Random(5)
    for n in range(2, 7):
        for _ in range(8):
            edges = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            g = SimpleGraph(n, edges)
            left = combinat.clique_clutter(combinat.graph_cone(g))
            right = suspension(combinat.clique_clutter(g))
            assert left.edges == right.edges


def test_meyniel_basics():
    ok, wit = combinat.is_meyniel(cycle(5))
    assert not ok and wit[1] == 0 and len(wit[0]) == 5
    assert combinat.is_meyniel(complete(4))[0]
    assert combinat.is_meyniel(path(4))[0]
    with_chord = SimpleGraph(7, list(cycle(7).edges) + [(0, 2)])
    ok, wit = combinat.is_meyniel(with_chord)
    assert not ok and wit[1] <= 1


def test_hoang_witnesses():
    assert combinat.hoang_witness(complete(3), 0) == (0,)
    assert combinat.hoang_witness(cycle(5), 0) is None
    assert combinat.hoang_witness(cycle(4), 0) == (0, 2)


def test_maximal_cliques_and_stable_sets_match_subset_scan():
    graphs = [g for n in range(6) for g in all_labeled_graphs(n)]
    rng = random.Random(13)
    graphs += [
        random_graph(rng, n, p) for n in range(6, 10) for p in (0.2, 0.4, 0.6, 0.8)
    ]
    for g in graphs:
        assert combinat.maximal_cliques(g) == brute_maximal_cliques(g)
        # the maximal stable sets are the maximal cliques of the complement
        assert combinat.maximal_cliques(combinat.complement(g)) == brute_maximal_stable_sets(g)


def test_hoang_witness_matches_oracle():
    rng = random.Random(17)
    found = missing = 0
    for n in range(1, 7):
        for g in families.graphs_upto_iso(n):
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabeled(g, perm)
            for u in range(n):
                want = hoang_witness_oracle(h, u)
                assert combinat.hoang_witness(h, u) == want, (h, u)
                found += want is not None
                missing += want is None
    assert found and missing


def test_meyniel_via_hoang_matches_oracle():
    rng = random.Random(29)
    verdicts = []
    for g in families.graphs_upto_iso(6):
        perm = list(range(6))
        rng.shuffle(perm)
        h = relabeled(g, perm)
        got = combinat.is_meyniel_via_hoang(h)
        assert got == meyniel_via_hoang_oracle(h), h
    for n in range(6, 10):
        graphs = [random_graph(rng, n, p) for p in (0.3, 0.5, 0.8)]
        graphs.append(families.random_chordal(n, rng.randrange(1 << 30)))
        graphs.append(combinat.graph_cone(families.random_chordal(n - 1, rng.randrange(1 << 30))))
        graphs.append(combinat.complement(families.random_chordal(n, rng.randrange(1 << 30))))
        for g in graphs:
            got = combinat.is_meyniel_via_hoang(g)
            assert got == meyniel_via_hoang_oracle(g), g
            verdicts.append(got)
    assert True in verdicts and False in verdicts


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _complete_multipartite(parts):
    side = [i for i, size in enumerate(parts) for _ in range(size)]
    pairs = itertools.combinations(range(len(side)), 2)
    return SimpleGraph(len(side), [(a, b) for a, b in pairs if side[a] != side[b]])


@functools.lru_cache(maxsize=None)
def _sweep_differential_graphs():
    """Every graph with n <= 7 and twin-rich graphs with n = 8, 9 (complete
    multipartite graphs, cones, complements of chordal graphs), each
    relabeled by a seeded permutation."""
    rng = random.Random(43)
    graphs = [g for n in range(1, 8) for g in families.graphs_upto_iso(n)]
    for n in (8, 9):
        graphs += [_complete_multipartite(parts) for parts in _partitions(n)]
        for p in (0.3, 0.6):
            graphs.append(combinat.graph_cone(random_graph(rng, n - 1, p)))
            graphs.append(combinat.graph_cone(combinat.graph_cone(random_graph(rng, n - 2, p))))
        for _ in range(4):
            chordal = families.random_chordal(n, rng.randrange(1 << 30))
            graphs.append(combinat.complement(chordal))
            graphs.append(combinat.graph_cone(families.random_chordal(n - 1, rng.randrange(1 << 30))))
    out = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(relabeled(g, perm))
    return tuple(out)


def test_hoang_sweep_matches_two_search_oracle():
    verdicts = set()
    for g in _sweep_differential_graphs():
        got = combinat.is_meyniel_via_hoang(g)
        assert got == meyniel_via_hoang_two_search_oracle(g), g
        verdicts.add((g.n > 7, got))
    assert verdicts == {(False, True), (False, False), (True, True), (True, False)}


@st.composite
def twin_rich_graphs(draw):
    """A graph on at most 9 vertices: a drawn graph on the first m, then each
    later vertex a twin of an earlier one (adjacent to it or not), all
    relabeled by a drawn permutation.  With m = n it is a plain drawn graph."""
    n = draw(st.integers(0, 9))
    m = draw(st.integers(min(n, 1), n))
    pairs = itertools.combinations(range(m), 2)
    edges = {e for e in pairs if draw(st.booleans())}
    for v in range(m, n):
        u = draw(st.integers(0, v - 1))
        edges |= {(a, v) for a in range(v) if (min(a, u), max(a, u)) in edges}
        if draw(st.booleans()):
            edges.add((u, v))
    perm = draw(st.permutations(range(n)))
    return relabeled(SimpleGraph(n, sorted(edges)), perm)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(twin_rich_graphs())
@example(SimpleGraph(0, []))
@example(SimpleGraph(9, []))
@example(complete(9))
@example(_complete_multipartite((3, 3, 3)))
def test_hoang_sweep_matches_parent_and_two_search_oracles(g):
    got = combinat.is_meyniel_via_hoang(g)
    assert got == meyniel_via_hoang_parent_oracle(g), g
    assert got == meyniel_via_hoang_two_search_oracle(g), g


def test_hoang_and_beta_witnesses_match_two_search_oracle():
    meyniel = 0
    for g in _sweep_differential_graphs():
        want = [hoang_witness_two_search_oracle(g, u) for u in range(g.n)]
        assert [combinat.hoang_witness(g, u) for u in range(g.n)] == want, g
        if any(w is None for w in want):
            with pytest.raises(UsageError, match="not Meyniel"):
                combinat.beta_witness(g)
            continue
        beta = tuple(F(sum(1 for w in want if i in w), g.n) for i in range(g.n))
        assert combinat.beta_witness(g) == beta, g
        meyniel += 1
    assert meyniel


def test_meyniel_differential_small():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            direct, _ = combinat.is_meyniel(g)
            assert direct == combinat.is_meyniel_via_hoang(g)


def test_meyniel_witness_matches_oracle():
    # the witness is the smallest odd cycle in sorted order with fewer than
    # two chords, on every labelled graph with n <= 6 and seeded larger ones
    graphs = [g for n in range(1, 7) for g in all_labeled_graphs(n)]
    rng = random.Random(29)
    graphs += [random_graph(rng, n, rng.choice((0.3, 0.5, 0.7))) for n in (7, 8) for _ in range(150)]
    failing = 0
    for g in graphs:
        got = combinat.is_meyniel(g)
        assert got == meyniel_oracle(g), g
        failing += not got[0]
    assert failing > 1000


@functools.lru_cache(maxsize=None)
def _cycle_differential_graphs():
    """Every graph with n <= 7 and seeded random graphs with n = 8, 9, each
    relabeled by a seeded permutation."""
    rng = random.Random(47)
    graphs = [g for n in range(1, 8) for g in families.graphs_upto_iso(n)]
    graphs += [random_graph(rng, n, p) for n in (8, 9) for p in (0.3, 0.5, 0.7) for _ in range(15)]
    out = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(relabeled(g, perm))
    return tuple(out)


def test_meyniel_matches_simple_cycle_oracle():
    # verdict, cycle and chord count equal the walk over every simple cycle
    seen = set()
    for g in _cycle_differential_graphs():
        got = combinat.is_meyniel(g)
        assert got == simple_cycle_meyniel_oracle(g), g
        seen.add(None if got[0] else got[1][1])
    assert seen == {None, 0, 1}


def _canonical(cycle):
    i = cycle.index(min(cycle))
    c = tuple(cycle[i:] + cycle[:i])
    return c if c[1] < c[-1] else c[:1] + c[:0:-1]


def test_induced_cycles_match_networkx():
    graphs = [*_cycle_differential_graphs()[::3], cycle(7), cycle(8), cycle(9)]
    lengths = set()
    for g in graphs + [combinat.complement(g) for g in graphs]:
        h = nx.Graph(g.edges)
        h.add_nodes_from(range(g.n))
        want = sorted(_canonical(c) for c in nx.chordless_cycles(h))
        lengths.update(len(c) for c in want)
        for min_len in (3, 4, 5):
            got = combinat._induced_cycles(combinat.adjacency_masks(g), min_len)
            assert len(got) == len(set(got)), g
            assert sorted(got) == [c for c in want if len(c) >= min_len], (g, min_len)
    assert lengths == {3, 4, 5, 6, 7, 8, 9}


def test_perfection():
    ok, wit = combinat.is_perfect_small(cycle(5))
    assert not ok and wit[0] == "hole"
    assert combinat.is_perfect_small(complete_bipartite(3, 3))[0]
    ok, wit = combinat.is_perfect_small(combinat.complement(cycle(7)))
    assert not ok and wit[0] == "antihole"


def test_meyniel_implies_perfect_small():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            if combinat.is_meyniel(g)[0]:
                assert combinat.is_perfect_small(g)[0]


def test_odd_hole_against_subset_oracle():
    # induced odd cycle detection vs degree-profile check on vertex subsets
    def brute(g):
        for r in range(5, g.n + 1, 2):
            for vs in itertools.combinations(range(g.n), r):
                h = _induced_oracle(g, vs)
                deg = [0] * h.n
                for a, b in h.edges:
                    deg[a] += 1
                    deg[b] += 1
                if (
                    len(h.edges) == h.n
                    and all(d == 2 for d in deg)
                    and combinat.is_connected(h)
                ):
                    return True
        return False

    rng = random.Random(8)
    for _ in range(150):
        n = rng.randint(1, 7)
        edges = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = SimpleGraph(n, edges)
        assert (combinat._least_odd_hole(combinat.adjacency_masks(g)) is not None) == brute(g)


def test_beta_witness_values():
    assert combinat.beta_witness(complete(3)) == (F(1, 3),) * 3
    assert combinat.beta_witness(complete(2)) == (F(1, 2), F(1, 2))
    assert combinat.beta_witness(path(3)) == (F(2, 3), F(1, 3), F(2, 3))


def test_beta_witness_postcondition_random():
    rng = random.Random(21)
    checked = 0
    while checked < 15:
        n = rng.randint(2, 7)
        edges = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = SimpleGraph(n, edges)
        if not combinat.is_meyniel(g)[0]:
            continue
        beta = combinat.beta_witness(g)
        assert all(x > 0 for x in beta)
        for cl in combinat.maximal_cliques(g):
            assert sum(beta[i] for i in cl) == 1
        checked += 1


def test_beta_witness_rejects_non_meyniel():
    with pytest.raises(UsageError, match="not Meyniel"):
        combinat.beta_witness(cycle(5))


def test_beta_witness_rejects_the_empty_graph():
    # Meyniel by both routes, but its one maximal clique () sums to 0
    g = SimpleGraph(0, [])
    assert combinat.is_meyniel(g)[0] and combinat.is_meyniel_via_hoang(g)
    with pytest.raises(UsageError, match="empty graph's one maximal clique is empty"):
        combinat.beta_witness(g)


def test_gamma_witness():
    assert combinat.gamma_witness([(0, 1), (2, 3)]) == (F(1, 2),) * 4
    assert combinat.gamma_witness([(0, 1, 2)]) == (F(1),) * 3
    assert combinat.gamma_witness([(0, 1), (2, 3), (4, 5)]) == (F(1, 3),) * 6
    with pytest.raises(UsageError):
        combinat.gamma_witness([(0, 1), (1, 2)])


@st.composite
def raw_clutters(draw):
    """An antichain on at most 10 vertices, singleton edges and isolated
    vertices allowed: drawn edges of any size with the non-minimal ones
    dropped, drawn edges of one size at most 3, or drawn transversals of a
    drawn split of the vertices into at most three classes."""
    n = draw(st.integers(0, 10))
    if n == 0:
        return RawClutter(0, [])
    vertex = st.integers(0, n - 1)
    kind = draw(st.sampled_from(("mixed", "uniform", "transversal")))
    if kind == "mixed":
        edges = draw(st.lists(st.frozensets(vertex, min_size=1), max_size=8))
        edges = [e for e in edges if not any(f < e for f in edges)]
    elif kind == "uniform":
        k = draw(st.integers(1, min(n, 3)))
        edges = draw(st.lists(st.frozensets(vertex, min_size=k, max_size=k), max_size=8))
    else:
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        classes = [[v for v in range(n) if labels[v] == k] for k in sorted(set(labels))]
        edges = [e for e in itertools.product(*classes) if draw(st.booleans())]
    return RawClutter(n, edges)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw_clutters())
@example(RawClutter(10, [(v,) for v in range(10)]))
@example(RawClutter(4, [(0, 1), (0, 3), (1, 2)]))  # a greedy matching in edge order finds one edge
@example(RawClutter(4, [(0, 2), (0, 3), (1, 2), (1, 3)]))
@example(RawClutter(6, itertools.product((0, 1), (2, 3), (4, 5))))
@example(RawClutter(6, [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)]))
def test_cover_searches_match_the_recursive_searches(c):
    assert combinat.minimal_covers(c) == minimal_covers_parent_oracle(c), c
    assert combinat.max_disjoint_edges(c) == max_disjoint_edges_parent_oracle(c), c
    if combinat.is_uniform(c) is not None:
        assert combinat.disjoint_cover_partition(c) == disjoint_cover_partition_parent_oracle(c), c


@st.composite
def nested_edge_lists(draw):
    """Edge lists on at most 8 vertices, with a drawn part of some drawn
    edges added, so that nested and repeated edges are common."""
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4), max_size=8))
    for e in draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else ():
        edges.append(draw(st.lists(st.sampled_from(e), min_size=1)))
    return n, edges


def _kept_edges(build, n, edges):
    try:
        return build(n, edges)
    except UsageError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(nested_edge_lists())
@example((3, [[0, 1], [2], [1, 2], [0]]))  # the first nested pair in edge order
@example((1200, [[v] for v in range(1200)]))
def test_antichain_check_matches_the_pairwise_scan(case):
    got = _kept_edges(lambda n, edges: RawClutter(n, edges).edges, *case)
    assert got == _kept_edges(raw_clutter_edges_parent_oracle, *case)


def test_cover_searches_take_no_recursion_on_many_singletons():
    # one minimal cover and 1,200 disjoint edges, far past the recursion limit
    c = RawClutter(1200, [(v,) for v in range(1200)])
    assert combinat.minimal_covers(c) == (tuple(range(1200)),)
    assert combinat.max_disjoint_edges(c) == 1200
    assert combinat.disjoint_cover_partition(c) == [tuple(range(1200))]


def test_disjoint_cover_partition(triangle):
    k22 = Clutter(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert combinat.disjoint_cover_partition(k22) == [(0, 1), (2, 3)]
    assert combinat.disjoint_cover_partition(triangle) is None
