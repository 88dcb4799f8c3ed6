"""Isomorphism-class enumeration of admissible graphs of a given rank.

One generator serves every degree.  The trivalent classes grow rank by rank:
subdivide two (possibly equal, possibly parallel) edges and join the two new
midpoints by a fresh edge.  Insertion preserves connectivity, looplessness,
cubicity and 2-edge-connectivity and raises the rank by one, so every graph
grown from the theta graph is admissible and none is filtered out.  Iterating
the move from the theta graph reaches every class.  Insertions at edge pairs
in one orbit of the parent's automorphism group give isomorphic graphs, so
only one pair per orbit is canonicalized.

Classes of higher degree are the contraction closure of the trivalent ones,
built breadth first: step k contracts each non-loop edge of each class of
step k - 1, and since a contraction raises the degree by exactly one, the
classes of one step all have degree k and no step repeats another's.
Contracting a non-loop edge keeps a graph connected, bridgeless and of rank
n, with every valence at least 3, so no admissibility test is needed
anywhere.  Contraction never removes a loop, and it makes one exactly from an
edge with a parallel twin, so the loopless classes are closed under
contracting the edges without a twin.  Every class is built on its key's
first labeling, with parents taken in key order (McKay 1998).
``tests/reference_enum.py`` holds the independent half-edge pairing
generator that checks both generators at small ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .multigraph import (
    GraphClass,
    Labeling,
    Multigraph,
    canonical_form,
    canonical_labeling,
    contract_edges,
)
from .parallel import pmap


class ResourceCapError(RuntimeError):
    """A configured resource cap was exceeded; partial progress reported."""

    def __init__(self, message: str, partial: Optional[int] = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: rank, degree regime, and admissibility filters."""

    n: int
    max_degree: int = 0  # 0 = trivalent only
    allow_loops: bool = False
    max_classes: int = 10_000_000

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

    ``threads`` applies to the trivalent level; the contraction steps are
    serial.
    """
    found = cubic_level(spec.n, spec.max_classes, threads)
    level = list(found)
    for _ in range(spec.max_degree):
        nxt = []
        for key in sorted(level):
            g = found[key].canon
            mult = g.multiplicity()
            for pos, (u, v) in enumerate(g.edges):
                if u == v or (not spec.allow_loops and mult[(u, v)] > 1):
                    continue
                lab = canonical_labeling(contract_edges(g, (pos,)))
                if lab.key in found:
                    continue
                found[lab.key] = lab.graph_class()
                nxt.append(lab.key)
                if len(found) > spec.max_classes:
                    raise ResourceCapError(
                        f"class cap {spec.max_classes} exceeded", partial=len(found)
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


def _children(parent: GraphClass) -> list[Labeling]:
    """Labelings of the edge insertions into ``parent``, one per orbit of
    edge pairs {e <= f} under its edge automorphisms (McKay 1998):
    insertions at pairs in one orbit are isomorphic.  Orbits are taken in
    (e, f) order, so every class first appears where it does in the
    unpruned list; only the first labeling of each key is kept."""
    g = parent.canon
    gens = parent.edge_perm_generators
    e_cnt = g.edge_count
    seen: set[tuple[int, int]] = set()
    out: dict[bytes, Labeling] = {}
    for e in range(e_cnt):
        for f in range(e, e_cnt):
            if (e, f) in seen:
                continue
            seen.add((e, f))
            stack = [(e, f)]
            while stack:
                a, b = stack.pop()
                for gen in gens:
                    x, y = gen[a], gen[b]
                    pair = (x, y) if x <= y else (y, x)
                    if pair not in seen:
                        seen.add(pair)
                        stack.append(pair)
            lab = canonical_labeling(_insert_edge(g, e, f))
            out.setdefault(lab.key, lab)
    return list(out.values())


def cubic_level(
    n: int, max_classes: int = 10_000_000, threads: int = 1
) -> dict[bytes, GraphClass]:
    """All 2-edge-connected loopless cubic multigraph classes of rank n, keyed
    by canonical key; insertion never builds a bridge.

    Parents are expanded in key order on ``threads`` processes.  Their
    labelings arrive in that order, and a class is built from the first
    labeling of its key, so the result is thread-invariant.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    level = {c.canonical_key: c for c in [canonical_form(_theta())]}
    for _ in range(3, n + 1):
        parents = [level[key] for key in sorted(level)]
        nxt: dict[bytes, GraphClass] = {}
        for labelings in pmap(_children, parents, threads):
            for lab in labelings:
                if lab.key in nxt:
                    continue
                nxt[lab.key] = lab.graph_class()
                if len(nxt) > max_classes:
                    raise ResourceCapError(
                        f"class cap {max_classes} exceeded at rank step",
                        partial=len(nxt),
                    )
        level = nxt
    return level
