import itertools
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clutterlab import combinat, ehrhart, families, ideals, tdi
from clutterlab.combinat import Clutter, SimpleGraph
from clutterlab.errors import ResourceExceeded, UsageError

from conftest import (
    all_labeled_graphs,
    brute_min_covers,
    canonical_form_oracle,
    canonical_form_parent_oracle,
    canonical_graph,
    graphs_upto_iso_oracle,
    random_graph,
    relabeled,
    sharpness_edges_parent_oracle,
)


def _form(g):
    return families.canonical_form(combinat.adjacency_masks(g))


def test_canonical_form_isomorphism_invariant():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 6)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [p for p in pairs if rng.random() < 0.5]
        g = SimpleGraph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = SimpleGraph(n, [(perm[a], perm[b]) for a, b in edges])
        assert _form(g) == _form(h)
        assert _form(canonical_graph(g)) == _form(g)
    for n in range(1, 8):
        for g in families.graphs_upto_iso(n):
            # the oracle's exact tuple, not only its classes: the
            # enumeration's representatives and order depend on it
            form = _form(g)
            assert form == canonical_form_parent_oracle(g), g
            for _ in range(2):
                perm = list(range(n))
                rng.shuffle(perm)
                assert _form(relabeled(g, perm)) == form, g


def test_canonical_form_classes_match_smallest_form_oracle():
    # on every labelled graph with n <= 5, two graphs share a form exactly
    # when they share the smallest encoding over all relabelings
    for n in range(6):
        classes = {}
        for g in all_labeled_graphs(n):
            form = _form(g)
            assert form == canonical_form_parent_oracle(g), g
            classes.setdefault(canonical_form_oracle(g), set()).add(form)
        forms = [f for fs in classes.values() for f in fs]
        assert all(len(fs) == 1 for fs in classes.values())
        assert len(set(forms)) == len(forms)


@st.composite
def graph_pairs(draw):
    """A graph on at most 9 vertices and a relabeled copy, with a few
    vertex pairs toggled in the copy half of the time."""
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    perm = draw(st.permutations(range(n)))
    g = SimpleGraph(n, edges)
    h = relabeled(g, perm)
    if pairs and draw(st.booleans()):
        toggled = set(h.edges) ^ set(draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3)))
        h = SimpleGraph(n, toggled)
    return g, h, draw(st.permutations(range(n)))


def _nx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graph_pairs())
@example((SimpleGraph(0, []), SimpleGraph(0, []), []))
@example((SimpleGraph(1, []), SimpleGraph(1, []), [0]))
def test_canonical_form_decides_isomorphism(case):
    g, h, perm = case
    form = _form(g)
    assert form == canonical_form_parent_oracle(g)
    assert (form == _form(h)) == nx.is_isomorphic(_nx(g), _nx(h))
    assert _form(relabeled(g, perm)) == form
    assert _form(canonical_graph(g)) == form


def test_canonical_form_matches_parent_oracle_when_refinement_splits_nothing():
    # vertex-transitive graphs: one cell, so the whole search runs
    cube = [(u, u ^ 1 << b) for u in range(8) for b in range(3) if u < u ^ 1 << b]
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    graphs = [
        families.cycle(9),
        SimpleGraph(8, cube),
        families.complete_bipartite(3, 3),
        SimpleGraph(10, petersen),
    ]
    rng = random.Random(9)
    for g in graphs:
        masks = combinat.adjacency_masks(g)
        nbrs = [combinat._members(m) for m in masks]
        assert set(families._refined_colours(nbrs)) == {0}, g
        perm = list(range(g.n))
        rng.shuffle(perm)
        for h in (g, relabeled(g, perm)):
            assert _form(h) == canonical_form_parent_oracle(h), h


def test_graph_counts_up_to_isomorphism():
    for n, want in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044)]:
        assert len(families.graphs_upto_iso(n)) == want


def test_graphs_upto_iso_matches_unpruned_enumeration():
    # the twin rule skips only extensions that are never the first of their
    # class: same representatives, same order
    for n in range(1, 8):
        assert families.graphs_upto_iso(n) == graphs_upto_iso_oracle(n), n


def test_graphs_upto_iso_builds_one_graph_per_class(monkeypatch):
    # the extensions live on adjacency masks: one SimpleGraph per class of
    # the last level, and no graph goes through the masks cache
    for obj in vars(combinat).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    built = []
    init = SimpleGraph.__init__

    def counted(self, n, edges):
        built.append(n)
        init(self, n, edges)

    monkeypatch.setattr(SimpleGraph, "__init__", counted)
    graphs = families.graphs_upto_iso(6)
    assert len(graphs) == 156 and built == [6] * 156
    assert combinat.adjacency_masks.cache_info().misses == 0


def test_graphs_upto_iso_is_capped():
    # raised before any work: n = 10 would run for hours
    for n in (9, 10):
        with pytest.raises(ResourceExceeded):
            families.graphs_upto_iso(n)
    with pytest.raises(UsageError):
        families.graphs_upto_iso(0)


def test_sharpness_family_structure():
    for d, g in [(2, 2), (2, 3), (3, 2)]:
        c = families.sharpness_clutter(d, g)
        assert combinat.is_uniform(c) == d
        assert {len(s) for s in combinat.minimal_covers(c)} == {g}
        assert combinat.covering_number(c) == g
        assert c.q == g**d
        parts = combinat.disjoint_cover_partition(c)
        assert parts is not None and len(parts) == d
    assert set(families.sharpness_clutter(2, 2).edges) == {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_sharpness_edges_keep_the_recursive_order(monkeypatch):
    # the edge list handed to Clutter, for every (d, g) the size caps allow
    handed = []

    def recording_clutter(n, edges):
        handed.append(edges)
        return Clutter(n, edges)

    monkeypatch.setattr(families, "Clutter", recording_clutter)
    allowed = [(d, g) for d in range(1, 13) for g in range(2, 13) if d * g <= 12 and g**d <= 4096]
    assert len(allowed) == 23
    for d, g in allowed:
        if d == 1:
            # one class gives singleton edges, which a strict Clutter refuses
            with pytest.raises(UsageError, match="fewer than two vertices"):
                families.sharpness_clutter(d, g)
        else:
            c = families.sharpness_clutter(d, g)
            assert c.edges == tuple(sharpness_edges_parent_oracle(d, g))
        assert handed.pop() == sharpness_edges_parent_oracle(d, g)


def test_sharpness_family_flow_property():
    for d, g in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        c = families.sharpness_clutter(d, g)
        assert tdi.is_mfmc(c).holds
        a = ehrhart.analyze(c)
        assert a.is_ehrhart
        assert a.a_invariant == -g
        assert a.regularity == (d - 1) * (g - 1)


def test_line_graph_k24():
    g, c = families.line_graph_k24()
    assert g.n == 8
    assert c.q == 6
    assert combinat.is_perfect_small(g)[0]


def test_standard_graphs():
    assert families.cycle(5).edges == SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).edges
    assert families.complete_bipartite(2, 4).n == 6
    with pytest.raises(UsageError):
        families.cycle(2)


def test_random_families_deterministic():
    assert families.random_bipartite(6, 42).edges == families.random_bipartite(6, 42).edges
    assert families.random_chordal(7, 11).edges == families.random_chordal(7, 11).edges
    for s in range(6):
        assert families.is_chordal(families.random_chordal(7, s))


def test_is_chordal_matches_networkx():
    rng = random.Random(53)
    graphs = [g for n in range(1, 7) for g in families.graphs_upto_iso(n)]
    chordal = [families.random_chordal(n, rng.randrange(1 << 30)) for n in (8, 9, 10) for _ in range(10)]
    graphs += chordal + [combinat.graph_cone(g) for g in chordal]
    graphs += [random_graph(rng, n, 0.7) for n in (8, 9) for _ in range(10)]
    # the 10 x 10 grid has about 10^8 holes; none needs listing
    k = 10
    rows = [(i * k + j, i * k + j + 1) for i in range(k) for j in range(k - 1)]
    columns = [(i * k + j, (i + 1) * k + j) for i in range(k - 1) for j in range(k)]
    graphs.append(SimpleGraph(k * k, rows + columns))
    verdicts = set()
    for g in graphs:
        got = families.is_chordal(g)
        assert got == nx.is_chordal(_nx(g)), g
        verdicts.add((g.n > 7, got))
    assert verdicts == {(False, True), (False, False), (True, True), (True, False)}


def test_unmixed_bipartite_enumeration_small():
    graphs = families.unmixed_bipartite_graphs(6)
    forms = {_form(g) for g in graphs}
    assert _form(families.cycle(4)) in forms
    assert _form(families.path(3)) not in forms
    assert _form(families.complete_bipartite(1, 1)) in forms
    for g in graphs:
        assert combinat.is_connected(g)
        assert len({len(s) for s in combinat.minimal_covers(Clutter(g.n, g.edges))}) == 1
    # unmixedness forces a perfect matching, hence even order
    assert all(g.n % 2 == 0 for g in graphs)


def test_unmixed_bipartite_graphs_match_a_filter_of_all_graphs():
    # every graph with 2 <= k <= n vertices, kept when it is connected,
    # bipartite and all its minimal covers (by subset scan) share one
    # size: the same classes in the same canonical order, for n <= 6
    for n in range(1, 7):
        want = [
            _form(g)
            for k in range(2, n + 1)
            for g in families.graphs_upto_iso(k)
            if nx.is_connected(_nx(g))
            and nx.is_bipartite(_nx(g))
            and len({len(s) for s in brute_min_covers(g)}) == 1
        ]
        assert [_form(g) for g in families.unmixed_bipartite_graphs(n)] == want, n


def test_unmixed_bipartite_class_counts():
    graphs = families.unmixed_bipartite_graphs(8)
    assert Counter(g.n for g in graphs) == {2: 1, 4: 2, 6: 4, 8: 14}
    with pytest.raises(ResourceExceeded):
        families.unmixed_bipartite_graphs(9)


def test_conjecture_instances_deterministic_and_perfect():
    for fam in families.CONJECTURE_FAMILIES:
        a = families.conjecture_instance(fam, 5, 7, 9)
        b = families.conjecture_instance(fam, 5, 7, 9)
        assert (a.n, a.edges) == (b.n, b.edges)
        assert combinat.is_perfect_small(a)[0]


def test_sun_hexagon_gadget():
    g = SimpleGraph(6, families.sun_hexagon(0))
    assert families.is_chordal(g)
    cl = combinat.clique_clutter(g)
    assert cl.q == 4 and combinat.is_uniform(cl) == 3
    # the four triangles pairwise intersect
    assert combinat.max_disjoint_edges(cl) == 1


def test_search_nonnormal_chordal():
    hit = families.search_nonnormal_chordal()
    assert hit is not None
    assert families.is_chordal(hit.graph)
    assert combinat.is_meyniel(hit.graph)[0]
    assert combinat.is_perfect_small(hit.graph)[0]
    ide = ideals.edge_ideal(hit.clutter)
    assert ideals.closure_contains(ide, hit.power, hit.witness)
    assert not ideals.power(ide, hit.power).contains(hit.witness)
