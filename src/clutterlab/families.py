"""Instance generators: named examples, standard families, seeded batches,
and the search for a chordal graph whose clique-clutter edge ideal is not
normal."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import combinat, ideals
from .combinat import Clutter, RawClutter, SimpleGraph
from .errors import ResourceExceeded, UsageError

IntVec = tuple[int, ...]


# ---------------------------------------------------------------------------
# Standard graphs
# ---------------------------------------------------------------------------


def cycle(k: int) -> SimpleGraph:
    if k < 3:
        raise UsageError("cycle: need at least 3 vertices")
    return SimpleGraph(k, [(i, (i + 1) % k) for i in range(k)])


def path(k: int) -> SimpleGraph:
    if k < 1:
        raise UsageError("path: need at least 1 vertex")
    return SimpleGraph(k, [(i, i + 1) for i in range(k - 1)])


def complete(k: int) -> SimpleGraph:
    return SimpleGraph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def complete_bipartite(a: int, b: int) -> SimpleGraph:
    return SimpleGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def random_bipartite(n: int, seed: int) -> SimpleGraph:
    """Seeded random bipartite graph, each edge drawn with probability 1/2;
    retries until connected."""
    rng = random.Random(seed)
    for _ in range(1000):
        a = rng.randint(1, max(1, n - 1))
        edges = [
            (i, a + j) for i in range(a) for j in range(n - a) if rng.random() < 0.5
        ]
        g = SimpleGraph(n, edges)
        if combinat.is_connected(g):
            return g
    raise ResourceExceeded("random bipartite retries", 1000)


def random_chordal(n: int, seed: int) -> SimpleGraph:
    """Seeded chordal graph built by repeated simplicial vertex additions."""
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        g = SimpleGraph(v, edges)
        base = list(rng.choice(combinat.maximal_cliques(g)))
        nbrs = rng.sample(base, rng.randint(1, len(base)))
        edges.extend((u, v) for u in nbrs)
    return SimpleGraph(n, edges)


def is_chordal(g: SimpleGraph) -> bool:
    """Maximum cardinality search with a perfect-elimination check (Tarjan &
    Yannakakis, SIAM J. Comput. 13, 1984).

    The search visits next a vertex with the most visited neighbours.  The
    graph is chordal exactly when the neighbours visited before each vertex
    form a clique, and it suffices that all of them but the last visited, p,
    are adjacent to p.
    """
    adj = combinat.adjacency_masks(g)
    weight = [0] * g.n
    order: list[int] = []
    visited = 0
    for _ in range(g.n):
        v = max((u for u in range(g.n) if not visited >> u & 1), key=weight.__getitem__)
        earlier = adj[v] & visited
        if earlier:
            p = next(u for u in reversed(order) if earlier >> u & 1)
            if earlier & ~adj[p] & ~(1 << p):
                return False
        order.append(v)
        visited |= 1 << v
        for u in range(g.n):
            weight[u] += adj[v] >> u & 1
    return True


# ---------------------------------------------------------------------------
# Named instances
# ---------------------------------------------------------------------------


def sharpness_clutter(d: int, g: int) -> Clutter:
    """Vertices split into d classes of size g; edges are all transversals.

    The minimal covers are exactly the d classes, so the clutter is
    d-uniform, unmixed, has covering number g, and attains both series
    bounds with equality.
    """
    if d < 1 or g < 2:
        raise UsageError("sharpness_clutter: need d >= 1 and g >= 2")
    if d * g > 12 or g**d > 4096:
        raise ResourceExceeded("sharpness clutter size", 4096)
    classes = [tuple(range(i * g, (i + 1) * g)) for i in range(d)]
    c = Clutter(d * g, list(itertools.product(*classes)))
    got = combinat.blocker(c)
    if got.edges != tuple(sorted(classes)):
        raise AssertionError("transversal clutter must block to its classes")
    return c


def line_graph_k24() -> tuple[SimpleGraph, RawClutter]:
    """Line graph of the complete bipartite graph on 2 + 4 vertices,
    together with its clique clutter (= the stars of the host graph)."""
    host = complete_bipartite(2, 4)
    g = combinat.line_graph(host)
    c = combinat.clique_clutter(g)
    expected = {
        (1, 1, 1, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 1, 1, 1),
        (1, 0, 0, 0, 1, 0, 0, 0),
        (0, 1, 0, 0, 0, 1, 0, 0),
        (0, 0, 1, 0, 0, 0, 1, 0),
        (0, 0, 0, 1, 0, 0, 0, 1),
    }
    if set(c.characteristic_vectors()) != expected:
        raise AssertionError("unexpected vertex-clique matrix for the line graph")
    return g, c


def triangle_clutter() -> Clutter:
    return Clutter(3, [(0, 1), (1, 2), (0, 2)])


def cycle_clutter(k: int) -> Clutter:
    g = cycle(k)
    return Clutter(k, g.edges)


# ---------------------------------------------------------------------------
# Isomorphism-free enumeration
# ---------------------------------------------------------------------------


def _refined_colours(nbrs: list[list[int]]) -> list[int]:
    """Colour refinement to an equitable partition, numbered invariantly.

    The first colouring ranks the vertices by degree.  Each round gives
    every vertex the rank, among all signatures, of its signature: its
    colour, then the sorted colours of its neighbours.  A signature is
    packed into one integer of n base-(n + 1) digits, the digit of a colour
    c being c + 1 and the unused digits 0, so integers compare as the
    signature tuples do.  It stops when a round splits no class, or at once
    when every class is a single vertex.
    """
    n = len(nbrs)
    degrees = [len(ws) for ws in nbrs]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    colour = [rank[d] for d in degrees]
    count = len(rank)
    base = n + 1
    pad = [base ** (n - 1 - d) for d in range(n)]
    while count < n:
        sigs = []
        for c, ws in zip(colour, nbrs):
            sig = c + 1
            for x in sorted([colour[w] for w in ws]):
                sig = sig * base + x + 1
            sigs.append(sig * pad[len(ws)])
        ranks = sorted(set(sigs))
        if len(ranks) == count:
            break
        rank = {sig: i for i, sig in enumerate(ranks)}
        colour = [rank[sig] for sig in sigs]
        count = len(ranks)
    return colour


def canonical_form(masks: IntVec) -> tuple[int, ...]:
    """A row encoding of the graph on n = len(masks) vertices whose vertex v
    has neighbour mask masks[v], equal for two graphs exactly when they are
    isomorphic.

    Row k encodes adjacency of position k to positions 0..k-1 as a k-bit
    number.  Colour refinement splits the vertices into cells that every
    isomorphism preserves, numbered invariantly; the form is the smallest
    encoding over the relabelings that fill the positions cell by cell in
    that order.  It is found by branch and bound over placements, with the
    candidates of a position sorted by their row: a prefix equal to the
    best one so far is cut as soon as its new row is larger.  Two twins
    (vertices whose neighbourhoods agree apart from each other) are swapped
    by an automorphism that fixes every placed vertex, so only the first of
    them is tried at a position.  The form is therefore not the smallest
    encoding over all relabelings.  When every cell is one vertex, one
    relabeling fills them, and its rows are read off with no search.

    The form reads only the masks, so the enumeration forms each extension
    on masks and builds no graph for it; a caller holding a `SimpleGraph`
    passes `combinat.adjacency_masks(g)`.  Refinement from one colour
    would rank by degree in its first round and cannot split a discrete
    partition, so starting from degrees and stopping there yields the same
    cells, numbered the same, as a refinement run until no class splits.
    """
    n = len(masks)
    nbrs = [[w for w in range(n) if m >> w & 1] for m in masks]
    colour = _refined_colours(nbrs)
    if len(set(colour)) == n:
        order = sorted(range(n), key=colour.__getitem__)
        rows = [sum(1 << colour[w] for w in nbrs[v] if colour[w] < k) for k, v in enumerate(order)]
        return (n, *rows)
    slot = sorted(colour)
    codes = [0] * n
    unplaced = set(range(n))
    rows: list[int] = []
    best: list[int] = []

    def twins(v: int, w: int) -> bool:
        return masks[v] & ~(1 << w) == masks[w] & ~(1 << v)

    def rec(k: int, tight: bool):
        # tight: rows equals best[:k]; otherwise rows is smaller, or no
        # encoding is complete yet
        nonlocal best
        if k == n:
            if not tight:
                best = rows.copy()
            return
        cands = sorted((codes[v], v) for v in unplaced if colour[v] == slot[k])
        tried: list[int] = []
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


def graphs_upto_iso(n: int) -> tuple[SimpleGraph, ...]:
    """All graphs on exactly n vertices, one per isomorphism class.

    Each graph on k vertices is a graph on k - 1 vertices with a new vertex
    joined to a neighbour set N, and the first extension seen in each
    isomorphism class is kept.  Twins u < w of the parent (as in
    `canonical_form`) are swapped by an automorphism of the parent, so an N
    holding w but not u gives a child isomorphic to the one from the
    numerically smaller N with the two exchanged; such an N is never the
    first of its class and is skipped (McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998).

    The levels hold adjacency masks: a child's masks are its parent's with
    bit k - 1 set on the members of N, followed by N itself, and
    `canonical_form` reads them directly.  A `SimpleGraph` is built only
    for the n-vertex representatives, one per class, at the end.
    """
    if n < 1:
        raise UsageError("graphs_upto_iso: need n >= 1")
    if n > 8:
        raise ResourceExceeded("graph enumeration vertex count", 8)
    level = [(0,)]
    for k in range(2, n + 1):
        new = 1 << (k - 1)
        seen = {}
        for masks in level:
            twins = [
                (1 << u, 1 << w)
                for w in range(k - 1)
                for u in range(w)
                if masks[u] & ~(1 << w) == masks[w] & ~(1 << u)
            ]
            for nbrs in range(new):
                if any(nbrs & bw and not nbrs & bu for bu, bw in twins):
                    continue
                child = (*(m | new if nbrs >> i & 1 else m for i, m in enumerate(masks)), nbrs)
                seen.setdefault(canonical_form(child), child)
        level = [seen[f] for f in sorted(seen)]
    return tuple(
        SimpleGraph(n, [(a, b) for b, m in enumerate(masks) for a in combinat._members(m) if a < b])
        for masks in level
    )


def unmixed_bipartite_graphs(n_max: int):
    """All connected bipartite graphs with at least one edge, up to
    isomorphism, n <= n_max vertices, whose minimal vertex covers all share
    one size.

    Both colour classes of a connected bipartite graph are minimal covers,
    so an unmixed one has a = n/2 vertices on each side and, by Konig, a
    perfect matching, labelled x_i y_i.  Such a graph is unmixed exactly
    when x_i y_j, x_j y_k in E imply x_i y_k in E (Villarreal, Rev.
    Colombiana Mat. 41, 2007): the relation {(i, j) : x_i y_j in E} is
    reflexive and transitive.  So the scan runs over the reflexive
    relations on a points and keeps the transitive, connected ones.
    """
    if n_max > 8:
        raise ResourceExceeded("unmixed bipartite enumeration", 8)
    out: dict[tuple[int, ...], SimpleGraph] = {}
    for a in range(1, n_max // 2 + 1):
        side = (1 << a) - 1
        diagonal = sum(1 << (i * a + i) for i in range(a))
        for mask in range(diagonal, 1 << (a * a)):
            if mask & diagonal != diagonal:
                continue
            # bit i*a + j is the edge x_i y_j, i.e. (i, a + j)
            rel = [mask >> (i * a) & side for i in range(a)]
            if any(rel[j] & ~rel[i] for i in range(a) for j in range(a) if rel[i] >> j & 1):
                continue
            g = SimpleGraph(2 * a, [(i, a + j) for i in range(a) for j in range(a) if rel[i] >> j & 1])
            if combinat.is_connected(g):
                out.setdefault(canonical_form(combinat.adjacency_masks(g)), g)
    return tuple(out[f] for f in sorted(out))


# ---------------------------------------------------------------------------
# Seeded batches for the conjecture runner
# ---------------------------------------------------------------------------

CONJECTURE_FAMILIES = (
    "bipartite",
    "chordal",
    "meyniel-closure",
    "line-of-bipartite",
    "complements",
)


def conjecture_instance(family: str, index: int, max_n: int, seed: int) -> SimpleGraph:
    """Deterministic perfect-graph instance for a (family, index) slot."""
    rng = random.Random(f"{seed}:{family}:{index}")
    n = rng.randint(3, max(3, max_n))
    sub = rng.randrange(1 << 30)
    if family == "bipartite":
        return random_bipartite(n, sub)
    if family == "chordal":
        return random_chordal(n, sub)
    if family == "meyniel-closure":
        base = random_chordal(max(2, n - rng.randint(1, 2)), sub)
        g = base
        while g.n < n:
            g = combinat.graph_cone(g)
        return g
    if family == "line-of-bipartite":
        return combinat.line_graph(random_bipartite(min(n, 6), sub))
    if family == "complements":
        return combinat.complement(random_chordal(n, sub))
    raise UsageError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Search: chordal graph with a non-normal clique-clutter edge ideal
# ---------------------------------------------------------------------------


def sun_hexagon(base: int) -> list[tuple[int, int]]:
    """Hexagon with the three alternating chords (four triangle cliques).

    Its triangles pairwise intersect, so one copy contributes fractional
    matchings of value 3/2 against integer matching 1; two copies push the
    gap past an integer.
    """
    v = lambda i: base + (i % 6)
    edges = [(v(i), v(i + 1)) for i in range(6)]
    edges += [(v(1), v(3)), (v(3), v(5)), (v(1), v(5))]
    return edges


def _gadget_candidates() -> list[SimpleGraph]:
    """Systematic two-gadget gluings, smallest first."""
    out = []
    out.append(SimpleGraph(6, sun_hexagon(0)))
    # two gadgets sharing one chord vertex
    shared = sun_hexagon(0)
    relab = {0: 3, 1: 6, 2: 7, 3: 8, 4: 9, 5: 10}
    shared += [
        (relab[a], relab[b])
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 3), (3, 5), (1, 5)]
    ]
    out.append(SimpleGraph(11, shared))
    # disjoint pair
    out.append(SimpleGraph(12, sun_hexagon(0) + sun_hexagon(6)))
    # chord vertices joined by an edge
    out.append(SimpleGraph(12, sun_hexagon(0) + sun_hexagon(6) + [(3, 9)]))
    # joined through a middle vertex (two bridge edges)
    out.append(SimpleGraph(13, sun_hexagon(0) + sun_hexagon(7) + [(3, 6), (6, 8)]))
    return out


@dataclass(frozen=True)
class NonNormalHit:
    graph: SimpleGraph
    clutter: RawClutter
    power: int
    witness: IntVec


def search_nonnormal_chordal() -> NonNormalHit | None:
    """First chordal graph (seeded probes, then gadget gluings) whose
    clique-clutter edge ideal is not normal."""
    candidates = [random_chordal(n, 7 * n + k) for n in range(4, 9) for k in range(2)]
    for g in candidates + _gadget_candidates():
        if not is_chordal(g):
            raise AssertionError("search candidate must be chordal")
        c = combinat.clique_clutter(g)
        report = ideals.is_normal(c)
        if not report.ok:
            return NonNormalHit(
                graph=g, clutter=c, power=report.failure_power, witness=report.witness
            )
    return None
