"""Clutters and graphs: constructions and exhaustive desk-scale predicates.

A `Clutter` carries the strict invariants (antichain, every edge has at
least two vertices, no isolated vertices).  `RawClutter` relaxes the edge
size and coverage requirements; blockers naturally produce singleton edges,
so they come back as `RawClutter` when needed.  Both compare by value: a
`Clutter` equals the `RawClutter` with the same vertices and edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ResourceExceeded, UsageError, _integer

MEYNIEL_CAP = 16
CLIQUE_CAP = 24

IntVec = tuple[int, ...]


def _canon_edges(n: int, edges) -> tuple[IntVec, ...]:
    out = set()
    for e in edges:
        e = tuple(sorted(set(map(_integer, e))))
        if not e:
            raise UsageError("empty edge")
        if e[0] < 0 or e[-1] >= n:
            raise UsageError(f"edge {e} out of range for n={n}")
        out.add(e)
    return tuple(sorted(out))


@dataclass(frozen=True)
class RawClutter:
    """Antichain of vertex sets; singleton edges and isolated vertices allowed."""

    n: int
    edges: tuple[IntVec, ...]

    def __init__(self, n: int, edges):
        n = _integer(n)
        if n < 0:
            raise UsageError(f"negative vertex count n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", _canon_edges(n, edges))
        self._validate()

    def __eq__(self, other):
        # by value across both classes; the dataclass keeps the field hash
        if not isinstance(other, RawClutter):
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges)

    def _validate(self):
        # an edge lies only inside a larger one, so each edge's bitmask is
        # compared with the larger edges alone, in edge order; a uniform
        # clutter makes no comparison
        masks = [(len(e), sum([1 << v for v in e]), e) for e in self.edges]
        larger = {s: [(m, e) for t, m, e in masks if t > s] for s in {len(e) for e in self.edges}}
        for s, m, e in masks:
            for big, f in larger[s]:
                if m & big == m:
                    raise UsageError(f"not an antichain: {list(e)} inside {list(f)}")

    @property
    def q(self) -> int:
        return len(self.edges)

    def characteristic_vectors(self) -> tuple[IntVec, ...]:
        return tuple(
            tuple(int(i in set(e)) for i in range(self.n)) for e in self.edges
        )


class Clutter(RawClutter):
    """Clutter with the strict invariants used by most predicates."""

    def _validate(self):
        super()._validate()
        covered = set()
        for e in self.edges:
            if len(e) < 2:
                raise UsageError(f"edge {e} has fewer than two vertices")
            covered.update(e)
        if covered != set(range(self.n)):
            missing = sorted(set(range(self.n)) - covered)
            raise UsageError(f"isolated vertices: {missing}")


def as_clutter_or_raw(n: int, edges) -> RawClutter:
    """Strict `Clutter` when the invariants hold, otherwise `RawClutter`."""
    try:
        return Clutter(n, edges)
    except UsageError:
        return RawClutter(n, edges)


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph without loops or multi-edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges):
        n = _integer(n)
        if n < 0:
            raise UsageError(f"negative vertex count n={n}")
        out = set()
        for e in edges:
            pair = sorted(map(_integer, e))
            if len(pair) != 2:
                raise UsageError(f"edge {tuple(pair)} is not a pair of vertices")
            a, b = pair
            if a == b:
                raise UsageError(f"loop at vertex {a}")
            if a < 0 or b >= n:
                raise UsageError(f"edge {(a, b)} out of range for n={n}")
            out.add((a, b))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(out)))


# Cache: key graph, bound 65536; is_meyniel, is_perfect_small and the Hoang sweep share one graph.
@lru_cache(maxsize=65536)
def adjacency_masks(g: SimpleGraph) -> tuple[int, ...]:
    masks = [0] * g.n
    for a, b in g.edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return tuple(masks)


def is_connected(g: SimpleGraph) -> bool:
    if g.n <= 1:
        return True
    masks = adjacency_masks(g)
    seen = 1
    stack = [0]
    while stack:
        v = stack.pop()
        nxt = masks[v] & ~seen
        while nxt:
            w = (nxt & -nxt).bit_length() - 1
            seen |= 1 << w
            stack.append(w)
            nxt &= nxt - 1
    return seen == (1 << g.n) - 1


# ---------------------------------------------------------------------------
# Covers, blockers, matchings
# ---------------------------------------------------------------------------


def minimal_covers(c: RawClutter) -> tuple[IntVec, ...]:
    """All minimal vertex covers (minimal transversals of the edge set).

    Berge's sequential dualisation (Berge, *Hypergraphs*, 1989) on bitmasks:
    the minimal covers of no edges are {∅}, and adding an edge e keeps the
    covers that meet it and extends each cover t that misses it by one
    vertex of e.  Two extensions t|v ⊆ t'|v' force t ⊆ t' (v' is not in t,
    which misses e), so t = t' and v = v': the extensions form an antichain,
    and none lies strictly inside a kept cover, which would contain t.  So
    an extension is minimal unless it contains a kept cover, and no prune
    pass is needed.
    """
    covers = [0]
    for e in c.edges:
        em = sum(1 << v for v in e)
        hit = [t for t in covers if t & em]
        grown = list(hit)
        for t in covers:
            if not t & em:
                for v in e:
                    u = t | 1 << v
                    if not any(h & u == h for h in hit):
                        grown.append(u)
        covers = grown
    return tuple(sorted(_members(t) for t in covers))


def blocker(c: RawClutter) -> RawClutter:
    """The clutter of all minimal vertex covers, on the same vertex set."""
    return as_clutter_or_raw(c.n, minimal_covers(c))


def covering_number(c: RawClutter) -> int:
    covers = minimal_covers(c)
    return min(len(s) for s in covers)


def max_disjoint_edges(c: RawClutter) -> int:
    """Maximum number of pairwise disjoint edges, exhaustive with pruning.

    One loop over `(next edge, used mask, count)` frames: a frame finds the
    next edge that misses the used vertices and pushes the branch that skips
    it, then the branch that takes it.  A frame is dropped when even taking
    every edge from its index on, `count + q - j`, cannot beat the best.
    """
    masks = [sum(1 << v for v in e) for e in c.edges]
    q = len(masks)
    best = 0
    stack = [(0, 0, 0)]
    while stack:
        j, used, count = stack.pop()
        best = max(best, count)
        if count + q - j <= best:
            continue
        while j < q and masks[j] & used:
            j += 1
        if j < q:
            stack.append((j + 1, used, count))
            stack.append((j + 1, used | masks[j], count + 1))
    return best


def has_konig(c: RawClutter) -> bool:
    return covering_number(c) == max_disjoint_edges(c)


def is_uniform(c: RawClutter) -> int | None:
    sizes = {len(e) for e in c.edges}
    if len(sizes) == 1:
        return sizes.pop()
    return None


# ---------------------------------------------------------------------------
# Graph constructions
# ---------------------------------------------------------------------------


def graph_cone(g: SimpleGraph) -> SimpleGraph:
    """New vertex adjacent to everything."""
    extra = [(v, g.n) for v in range(g.n)]
    return SimpleGraph(g.n + 1, list(g.edges) + extra)


def complement(g: SimpleGraph) -> SimpleGraph:
    n = g.n
    comp = _complement_masks(adjacency_masks(g))
    edges = []
    for a in range(n):
        m = comp[a] >> (a + 1)
        while m:
            low = m & -m
            edges.append((a, a + low.bit_length()))
            m ^= low
    return SimpleGraph(n, edges)


def _complement_masks(masks) -> tuple[int, ...]:
    full = (1 << len(masks)) - 1
    return tuple(full & ~m & ~(1 << v) for v, m in enumerate(masks))


def line_graph(g: SimpleGraph) -> SimpleGraph:
    """Vertices are the edges of g, adjacent when they share an endpoint."""
    es = list(g.edges)
    edges = [
        (i, j)
        for i in range(len(es))
        for j in range(i + 1, len(es))
        if set(es[i]) & set(es[j])
    ]
    return SimpleGraph(len(es), edges)


def _cliques_in(masks, within: int) -> list[int]:
    """Maximal cliques, as bitmasks, of the subgraph induced on `within`.

    Bron-Kerbosch with pivoting: the pivot is the first vertex of P | X
    with the most neighbours in P.  Stable sets are the cliques of the
    complement masks.
    """
    out = []

    def expand(r: int, p: int, x: int):
        if not p:
            if not x:
                out.append(r)
            return
        pool = p | x
        pivot, most = 0, -1
        while pool:
            low = pool & -pool
            v = low.bit_length() - 1
            k = (masks[v] & p).bit_count()
            if k > most:
                pivot, most = v, k
            pool ^= low
        cand = p & ~masks[pivot]
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            expand(r | bit, p & masks[v], x & masks[v])
            p &= ~bit
            x |= bit
            cand ^= bit

    expand(0, within, 0)
    return out


def _members(mask: int) -> IntVec:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _check_clique_cap(n: int):
    if n > CLIQUE_CAP:
        raise ResourceExceeded("clique enumeration vertex count", CLIQUE_CAP)


# Cache: key graph, bound 65536; each command on one graph derives its clique clutter again.
@lru_cache(maxsize=65536)
def maximal_cliques(g: SimpleGraph) -> tuple[IntVec, ...]:
    """Bron-Kerbosch with pivoting, bitmask sets, canonical output order."""
    _check_clique_cap(g.n)
    return tuple(sorted(_members(m) for m in _cliques_in(adjacency_masks(g), (1 << g.n) - 1)))


def clique_clutter(g: SimpleGraph) -> RawClutter:
    """Clutter of the maximal cliques (raw when isolated vertices exist)."""
    return as_clutter_or_raw(g.n, [c for c in maximal_cliques(g) if c])


# ---------------------------------------------------------------------------
# Cycles, Meyniel, perfection
# ---------------------------------------------------------------------------


def _induced_cycles(masks, min_len: int):
    """Chordless cycles of length >= min_len, one canonical traversal each,
    in the graph on len(masks) vertices with adjacency masks `masks`.

    A traversal starts at its smallest vertex, and its second vertex is
    smaller than its last (this fixes rotation and reflection).  The path
    grows as an induced path: a new vertex may touch no vertex of the
    interior `path[1:-1]`.  A neighbour of the start can only be the last
    vertex of the cycle, so the cycle is emitted there and the path never
    runs through it; while the path is too short to close, the start's
    neighbours are no candidates at all.
    """
    holes = []

    def rec(ring: int, path: list[int], blocked: int):
        # blocked: the vertices up to the start, on the path, or adjacent
        # to the path's interior
        last = path[-1]
        cand = masks[last] & ~blocked
        if len(path) + 1 < min_len:
            cand &= ~ring
        inner = blocked | masks[last]
        while cand:
            bit = cand & -cand
            cand ^= bit
            w = bit.bit_length() - 1
            if not ring & bit:
                path.append(w)
                rec(ring, path, inner | bit)
                path.pop()
            elif path[1] < w:
                holes.append((*path, w))

    for s in range(len(masks)):
        low = (2 << s) - 1
        for a in _members(masks[s] & ~low):
            rec(masks[s], [s, a], low | 1 << a)
    return holes


def _around(cycle: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """The traversal of `cycle` from a to its neighbour b, the long way round."""
    i = cycle.index(a)
    c = cycle[i:] + cycle[:i]
    return c if c[-1] == b else c[:1] + c[:0:-1]


def is_meyniel(g: SimpleGraph):
    """Every odd cycle of length >= 5 must have at least two chords.

    Returns (True, None) or (False, (cycle, chord_count)), the cycle being
    the smallest canonical traversal of an odd cycle with fewer than two
    chords.  Such a cycle is an odd hole, or it has one chord, which splits
    it into an odd induced cycle (a triangle or an odd hole) and an even
    hole that share exactly that edge and have no other edge between them
    (Meyniel, "On the perfect graph conjecture", Discrete Math. 16, 1976).
    """
    if g.n > MEYNIEL_CAP:
        raise ResourceExceeded("odd cycle enumeration vertex count", MEYNIEL_CAP)
    masks = adjacency_masks(g)
    odd, even = [], []
    for c in _induced_cycles(masks, 3):
        (odd if len(c) % 2 else even).append((c, sum(1 << v for v in c)))
    best = min(((c, 0) for c, _ in odd if len(c) >= 5), default=None)
    for c1, m1 in odd:
        for c2, m2 in even:
            shared = m1 & m2
            if shared.bit_count() != 2:
                continue
            u, v = _members(shared)
            if not masks[u] >> v & 1:
                continue
            rest = m2 & ~shared
            if any(masks[w] & rest for w in _members(m1 & ~shared)):
                continue
            joined = _around(c1, u, v) + _around(c2, v, u)[1:-1]
            i = joined.index(min(joined))
            ends = joined[i - 1], joined[(i + 1) % len(joined)]
            cycle = _around(joined, joined[i], max(ends))
            if best is None or cycle < best[0]:
                best = (cycle, 1)
    return (True, None) if best is None else (False, best)


def _least_odd_hole(masks) -> tuple[int, ...] | None:
    return min((c for c in _induced_cycles(masks, 5) if len(c) % 2), default=None)


def is_perfect_small(g: SimpleGraph):
    """No induced odd hole in the graph or its complement.

    Returns (True, None) or (False, ("hole" | "antihole", cycle)).  The
    antihole search runs on the complement's masks; no complement graph is
    built.
    """
    masks = adjacency_masks(g)
    hole = _least_odd_hole(masks)
    if hole is not None:
        return False, ("hole", hole)
    anti = _least_odd_hole(_complement_masks(masks))
    if anti is not None:
        return False, ("antihole", anti)
    return True, None


# ---------------------------------------------------------------------------
# Stable-set witnesses
# ---------------------------------------------------------------------------


def _clique_and_stable_masks(g: SimpleGraph):
    """Adjacency masks, maximal cliques and maximal stable sets of g, as
    bitmasks: one Bron-Kerbosch search each."""
    _check_clique_cap(g.n)
    masks = adjacency_masks(g)
    full = (1 << g.n) - 1
    return masks, _cliques_in(masks, full), _cliques_in(_complement_masks(masks), full)


def _hoang_witness_sets(g: SimpleGraph) -> list[IntVec]:
    """The maximal stable sets of g that meet every maximal clique, sorted."""
    _, cliques, stables = _clique_and_stable_masks(g)
    return sorted(_members(t) for t in stables if all(t & k for k in cliques))


def hoang_witness(g: SimpleGraph, u: int):
    """A stable set containing u that meets every maximal clique, or None.

    The first such set in sorted order.
    """
    if not 0 <= u < g.n:
        raise UsageError(f"vertex {u} out of range")
    return next((w for w in _hoang_witness_sets(g) if u in w), None)


def is_meyniel_via_hoang(g: SimpleGraph) -> bool:
    """Differential characterization: witnesses in every induced subgraph.

    For every nonempty vertex set S, the stable sets of G[S] that meet
    every maximal clique of G[S] must together cover S.

    Every S is decided at once, on truth tables: 2^n-bit integers whose
    bit S says whether a statement holds for the vertex set S.
    `contains[v]`, the table of {S : v in S}, repeats from bit 0 up a block
    of 2^v clear bits, then 2^v set ones.  One clique and one stable-set
    search of G serve every S, through three identities:

    - For a maximal clique K of G, K & S is a maximal clique of G[S]
      exactly when every w in S - K misses a vertex of K & S.  Its table
      is MAX_K, the AND over w not in K of ~contains[w] | (the OR of
      contains[u] over u in K - N(w)).  The maximal cliques of G[S] are
      exactly the inclusion-maximal traces K & S, so these are all of
      them.
    - For a maximal stable set T of G, T & S meets every maximal clique
      of G[S] on GOOD_T, the NOT of the OR over K of MAX_K & ~contains[T &
      K].  A stable set and a clique share at most one vertex, so T & K is
      empty, with the empty table, or one vertex.
    - The maximal stable sets of G[S] are among the sets T & S, and one
      that is not maximal but meets every maximal clique lies in a maximal
      one that does too.  So G passes exactly when contains[v] lies within
      the OR of GOOD_T over the T that contain v, for every v.
    """
    if g.n > 9:
        raise ResourceExceeded("induced subgraph sweep vertex count", 9)
    masks, cliques, stables = _clique_and_stable_masks(g)
    full = (1 << (1 << g.n)) - 1
    contains = []
    for v in range(g.n):
        width = 1 << v
        block = ((1 << width) - 1) << width
        contains.append(block * full // ((1 << 2 * width) - 1))

    def meets(m: int) -> int:
        """The table of {S : S meets the vertex set m}."""
        table = 0
        while m:
            low = m & -m
            table |= contains[low.bit_length() - 1]
            m ^= low
        return table

    maximal = []
    for k in cliques:
        bad = 0
        outside = ((1 << g.n) - 1) & ~k
        while outside:
            low = outside & -outside
            w = low.bit_length() - 1
            bad |= contains[w] & ~meets(k & ~masks[w])
            outside ^= low
        maximal.append((k, full & ~bad))
    covered = [0] * g.n
    for t in stables:
        missed = 0
        for k, table in maximal:
            common = t & k  # empty or one vertex
            missed |= table & ~contains[common.bit_length() - 1] if common else table
        good = full & ~missed
        while t:
            low = t & -t
            covered[low.bit_length() - 1] |= good
            t ^= low
    return all(not contains[v] & ~covered[v] for v in range(g.n))


def beta_witness(g: SimpleGraph) -> tuple[Fraction, ...]:
    """Average of per-vertex stable-set witnesses; hits 1 on every clique."""
    if g.n == 0:
        raise UsageError(
            "beta_witness: the empty graph's one maximal clique is empty, "
            "so no vector sums to 1 on it"
        )
    sets = _hoang_witness_sets(g)
    witnesses = []
    for k in range(g.n):
        w = next((w for w in sets if k in w), None)
        if w is None:
            raise UsageError(f"input not Meyniel: no stable-set witness for vertex {k}")
        witnesses.append(set(w))
    beta = tuple(
        Fraction(sum(1 for w in witnesses if i in w), g.n) for i in range(g.n)
    )
    for cl in maximal_cliques(g):
        if sum(beta[i] for i in cl) != 1:
            raise AssertionError("witness vector misses a clique")
    if any(x <= 0 for x in beta):
        raise AssertionError("witness vector must be strictly positive")
    return beta


def gamma_witness(parts, clutter: RawClutter | None = None) -> tuple[Fraction, ...]:
    """Constant vector 1/d from a partition into d classes."""
    parts = [tuple(sorted(set(p))) for p in parts]
    d = len(parts)
    if d == 0:
        raise UsageError("gamma_witness: empty partition")
    all_vs = [v for p in parts for v in p]
    n = len(all_vs)
    if len(set(all_vs)) != n or set(all_vs) != set(range(n)):
        raise UsageError("gamma_witness: parts must partition the vertex range")
    gamma = tuple(Fraction(1, d) for _ in range(n))
    if clutter is not None:
        if clutter.n != n:
            raise UsageError("gamma_witness: clutter and partition disagree on n")
        for e in clutter.edges:
            if sum(gamma[i] for i in e) != 1:
                raise AssertionError("partition is not transversal to the clutter")
    return gamma


def disjoint_cover_partition(c: RawClutter):
    """d mutually disjoint minimal covers partitioning the vertices, or None.

    Only sensible for d-uniform clutters; each returned cover then meets
    every edge exactly once.
    """
    d = is_uniform(c)
    if d is None:
        raise UsageError("disjoint_cover_partition: clutter is not uniform")
    covers = minimal_covers(c)
    masks = [sum(1 << v for v in s) for s in covers]
    full = (1 << c.n) - 1
    # backtrack over the sorted covers: `i` is the next candidate at the
    # depth len(chosen), and a dead end resumes after the last choice; at
    # depth d no candidate is left, as d + 1 disjoint covers would need
    # d + 1 vertices in an edge
    chosen: list[int] = []
    used = i = 0
    while len(chosen) < d or used != full:
        while i < len(masks) and masks[i] & used:
            i += 1
        if i < len(masks):
            chosen.append(i)
            used |= masks[i]
        elif chosen:
            i = chosen.pop()
            used ^= masks[i]
        else:
            return None
        i += 1
    parts = [covers[i] for i in chosen]
    for p in parts:
        for e in c.edges:
            if len(set(p) & set(e)) != 1:
                raise AssertionError("partition class must meet each edge once")
    return parts
