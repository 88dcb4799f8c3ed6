"""Isomorphism-class enumeration of admissible graphs of a given rank.

One generator serves every degree.  The trivalent classes grow rank by rank:
subdivide two (possibly equal, possibly parallel) edges and join the two new
midpoints by a fresh edge.  Insertion preserves connectivity, looplessness,
cubicity and 2-edge-connectivity and raises the rank by one, so every graph
grown from the theta graph is admissible and none is filtered out.  Iterating
the move from the theta graph reaches every class.

Each trivalent class is produced exactly once, by canonical augmentation
(McKay, "Isomorph-free exhaustive generation", 1998).  An edge is reducible
when deleting it and smoothing its ends gives a trivalent graph of one rank
less; that is the inverse of insertion.  Every class has one canonical orbit
of reducible edges, and a child is kept only when its inserted edge lies in
it.  Insertions at edge pairs in one orbit of the parent's automorphism group
give isomorphic children, so one pair per orbit is tried.  An invariant of
edges rejects most children before any canonical search, and each survivor
is labeled once.

Classes of higher degree are the contraction closure of the trivalent ones,
built breadth first: step k contracts each non-loop edge of each class of
step k - 1, one edge per orbit of the class's automorphism group, and since a
contraction raises the degree by exactly one, the classes of one step all
have degree k and no step repeats another's.  Contracting a non-loop edge
keeps a graph connected, bridgeless and of rank n, with every valence at
least 3, so no admissibility test is needed anywhere.  Contraction never
removes a loop, and it makes one exactly from an edge with a parallel twin,
so the loopless classes are closed under contracting the edges without a
twin.  A class of higher degree is built on its key's first labeling, with
parents taken in key order.  ``tests/reference_enum.py`` holds the
independent half-edge pairing generator that checks both generators at
small ranks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .multigraph import (
    Edge,
    GraphClass,
    Labeling,
    Multigraph,
    canonical_form,
    canonical_labeling,
    contract_one_edge,
)
from .parallel import pmap


class ResourceCapError(RuntimeError):
    """A configured resource cap was exceeded; partial progress reported."""

    def __init__(self, message: str, partial: Optional[int] = None):
        super().__init__(message)
        self.partial = partial


# the most classes one enumeration builds before it raises ResourceCapError
MAX_CLASSES = 10_000_000

# the fewest parents a rank step needs before it runs on a process pool.  A
# pool costs its start-up and about 15 MB per worker.  On 2 cores it saved
# cubic_level(7), whose largest step has 66 parents, about 0.02 of 0.33 s
# for 40% more CPU; the step to rank 8 (365 parents) it cuts from about 4 s
# to 2.3 s.
POOL_MIN_PARENTS = 128


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: rank, degree regime, and admissibility filters."""

    n: int
    max_degree: int = 0  # 0 = trivalent only
    allow_loops: bool = False

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("rank must be >= 2")
        if not 0 <= self.max_degree <= 2 * self.n - 3:
            raise ValueError("max_degree must lie in [0, 2n-3]")

    @property
    def trivalent(self) -> bool:
        return self.max_degree == 0


def enumerate_graphs(spec: EnumSpec, threads: int = 1) -> list[GraphClass]:
    """One representative per isomorphism class, sorted by canonical key.

    ``threads`` applies to the trivalent level, and there only to the rank
    steps with at least ``POOL_MIN_PARENTS`` parents (see
    :func:`cubic_level`); the contraction steps are serial.  Edges are
    taken in position order and each orbit at its smallest position
    (``GraphClass.orbit_min``), the first of its parallel class, so every
    key is met first where contracting every edge would meet it.
    """
    found = cubic_level(spec.n, threads)
    level = list(found)
    for _ in range(spec.max_degree):
        nxt = []
        for key in sorted(level):
            cls = found[key]
            g = cls.canon
            first = cls.first
            for pos, (u, v) in enumerate(g.edges):
                if cls.orbit_min[pos] != pos:
                    continue
                twin = pos + 1 < g.edge_count and first[pos + 1] == pos
                if u == v or (not spec.allow_loops and twin):
                    continue
                lab = canonical_labeling(contract_one_edge(g, pos)[0])
                if lab.key in found:
                    continue
                found[lab.key] = lab.graph_class()
                nxt.append(lab.key)
                if len(found) > MAX_CLASSES:
                    raise ResourceCapError(
                        f"class cap {MAX_CLASSES} exceeded", partial=len(found)
                    )
        level = nxt
    return [found[key] for key in sorted(found)]


# ---------------------------------------------------------------------------
# edge-insertion generator (trivalent, loopless)

def _theta() -> Multigraph:
    return Multigraph(2, ((0, 1), (0, 1), (0, 1)))


def _insert_edge(g: Multigraph, e: int, f: int) -> Multigraph:
    """Subdivide edges e and f (e == f subdivides twice) and join midpoints."""
    x, y = g.vertex_count, g.vertex_count + 1
    edges = [edge for pos, edge in enumerate(g.edges) if pos not in (e, f)]
    if e == f:
        u, v = g.edges[e]
        edges += [(u, x), (x, y), (y, v), (x, y)]
    else:
        u, v = g.edges[e]
        w, z = g.edges[f]
        edges += [(u, x), (x, v), (w, y), (y, z), (x, y)]
    return Multigraph(g.vertex_count + 2, tuple(edges))


def _reducible_edges(g: Multigraph) -> set[Edge]:
    """The endpoint pairs of the edges of ``g`` that lie in no 2-edge cut.

    Each edge is labeled by the set (a bitmask) of fundamental cycles of a
    spanning tree through it.  A set of edges is a cut iff it meets every
    cycle evenly, so in a bridgeless graph two edges form a cut iff their
    labels are equal.  Parallel edges lie in 2-edge cuts alike, so one
    endpoint pair stands for all of its edges.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for pos, (u, v) in enumerate(g.edges):
        adj[u].append((v, pos))
        adj[v].append((u, pos))
    up = [-1] * g.vertex_count  # the tree edge to each vertex's parent
    order = [0]
    for w in order:
        for x, pos in adj[w]:
            if x and up[x] < 0:
                up[x] = pos
                order.append(x)
    tree = set(up[1:])
    labels = [0] * g.edge_count
    # pot[w]: the non-tree edges with exactly one end at w; summed over a
    # subtree, those whose fundamental cycle leaves it through its root edge
    pot = [0] * g.vertex_count
    bit = 1
    for pos, (u, v) in enumerate(g.edges):
        if pos not in tree:
            labels[pos] = bit
            pot[u] ^= bit
            pot[v] ^= bit
            bit <<= 1
    for w in reversed(order[1:]):
        pos = up[w]
        labels[pos] = pot[w]
        u, v = g.edges[pos]
        pot[u if v == w else v] ^= pot[w]
    shared = Counter(labels)
    return {edge for edge, lab in zip(g.edges, labels) if shared[lab] == 1}


def _reducible_ties(child: Multigraph) -> Optional[list[Edge]]:
    """The reducible edges of ``child`` whose invariant ties that of its
    inserted edge, or ``None`` if a reducible edge has a larger one.

    The inserted edge joins the two highest labels.  An edge is *reducible*
    when deleting it and smoothing its ends, the inverse of
    :func:`_insert_edge`, leaves a loopless bridgeless cubic graph.  For a
    bridgeless cubic child of rank at least 3 that holds exactly when the
    edge lies in no 2-edge cut: a loop made by smoothing always comes with
    a bridge.  The invariant of an edge is (multiplicity, triangles through
    it, 4-cycles through it), the cycles counted by their vertices, once
    per endpoint pair.
    """
    mult = child.multiplicity()
    nbrs: list[list[int]] = [[] for _ in range(child.vertex_count)]
    adj = [0] * child.vertex_count  # neighbour bitmasks
    for u, v in mult:
        nbrs[u].append(v)
        nbrs[v].append(u)
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def invariant(a: int, b: int) -> tuple[int, int, int]:
        ends = adj[b] & ~(1 << a)
        squares = 0
        for c in nbrs[a]:
            if c != b:
                squares += (adj[c] & ends).bit_count()
        return mult[(a, b)], (adj[a] & adj[b]).bit_count(), squares

    x = child.vertex_count - 2
    xy = (x, x + 1)
    inserted = invariant(*xy)
    larger: list[Edge] = []
    ties: list[Edge] = []
    for edge in mult:
        f = invariant(*edge)
        if f > inserted:
            larger.append(edge)
        elif f == inserted:
            ties.append(edge)
    if ties == [xy] and not larger:
        return ties
    reducible = _reducible_edges(child)
    if any(edge in reducible for edge in larger):
        return None
    return [edge for edge in ties if edge in reducible]


def _children(parent: GraphClass) -> list[Labeling]:
    """Labelings of the children of ``parent`` whose canonical parent it is
    (McKay 1998), one per class.

    Insertions at edge pairs in one orbit of the parent's edge automorphisms
    give isomorphic children, so one pair {e <= f} per orbit is tried.
    Swapping parallel edges maps each pair to one whose e is the first of
    its class and whose f is the first of its class or e's twin e + 1, and
    of those pairs one per orbit of the lifted automorphisms is tried: the
    smallest pair of each orbit.  A
    child is kept iff its inserted edge lies in its canonical reducible-edge
    orbit: the orbit, under the child's automorphisms, of the smallest
    canonical position among the reducible edges of largest invariant.
    A child with a reducible edge of larger invariant than the inserted one
    is rejected before any search; the others are labeled once.  Every class
    then comes from exactly one parent class and one orbit of pairs, so each
    key is met once.
    """
    g = parent.canon
    gens = parent.edge_perm_generators
    first = parent.first
    e_cnt = g.edge_count
    xy = (g.vertex_count, g.vertex_count + 1)  # the inserted edge
    seen: set[tuple[int, int]] = set()
    out: list[Labeling] = []
    for e in range(e_cnt):
        if first[e] != e:
            continue
        for f in range(e, e_cnt):
            if (f > e + 1 and first[f] != f) or (e, f) in seen:
                continue
            seen |= _pair_orbit((e, f), gens)
            child = _insert_edge(g, e, f)
            ties = _reducible_ties(child)
            if ties is None:
                continue
            lab = canonical_labeling(child)
            vm = lab.vertex_map
            lead = min(ties, key=lambda t: sorted((vm[t[0]], vm[t[1]])))
            if lead in _pair_orbit(xy, lab.automorphisms):
                out.append(lab)
    return out


def _pair_orbit(pair: Edge, gens: Sequence[Sequence[int]]) -> set[Edge]:
    """The orbit of the pair ``pair`` (u <= v), as sorted pairs."""
    orbit = {pair}
    stack = [pair]
    while stack:
        u, v = stack.pop()
        for gen in gens:
            a, b = gen[u], gen[v]
            img = (a, b) if a <= b else (b, a)
            if img not in orbit:
                orbit.add(img)
                stack.append(img)
    return orbit


def cubic_level(n: int, threads: int = 1) -> dict[bytes, GraphClass]:
    """All 2-edge-connected loopless cubic multigraph classes of rank n, keyed
    by canonical key; insertion never builds a bridge.

    Parents are expanded in key order, and each class is built from the
    labeling of its canonical augmentation, which the job of its one
    canonical parent returns.  A rank step with at least
    ``POOL_MIN_PARENTS`` parents runs on ``threads`` processes, and a
    smaller one serially in this process, where a pool's start-up and
    workers would cost more than they save: up to rank 7 nothing forks, and
    from the step to rank 8 (365 parents) on, every step pools.  No dedup is
    needed: a key met twice is an internal error and raises
    ``RuntimeError``.  The result does not depend on ``threads``.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    level = {c.canonical_key: c for c in [canonical_form(_theta())]}
    for _ in range(3, n + 1):
        parents = [level[key] for key in sorted(level)]
        nxt: dict[bytes, GraphClass] = {}
        step_threads = threads if len(parents) >= POOL_MIN_PARENTS else 1
        for labelings in pmap(_children, parents, step_threads):
            for lab in labelings:
                if lab.key in nxt:
                    raise RuntimeError(
                        f"canonical augmentation met {lab.key.decode('ascii')} twice"
                    )
                nxt[lab.key] = lab.graph_class()
                if len(nxt) > MAX_CLASSES:
                    raise ResourceCapError(
                        f"class cap {MAX_CLASSES} exceeded at rank step",
                        partial=len(nxt),
                    )
        level = nxt
    return level
