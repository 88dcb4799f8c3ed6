"""Isomorphism-class enumeration of admissible graphs of a given rank.

Two generators live here.

The production generator for trivalent classes grows graphs rank by rank:
subdivide two (possibly equal, possibly parallel) edges and join the two new
midpoints by a fresh edge.  Insertion preserves connectivity, looplessness,
cubicity and 2-edge-connectivity and raises the rank by one, so every graph
grown from the theta graph is admissible and none is filtered out.  Iterating
the move from the theta graph reaches every class; the half-edge pairing
oracle checks this at small ranks.  Insertions at edge pairs in one orbit
of the parent's automorphism group give isomorphic graphs, so only one pair
per orbit is canonicalized.

The second generator enumerates perfect matchings of half-edges over all
valence sequences.  It is slower but entirely independent of the first, and
serves as the correctness oracle for small ranks; it also produces the
non-trivalent (and optionally loop-bearing) graphs needed by the full
complex oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .multigraph import (
    GraphClass,
    GraphFacts,
    Labeling,
    Multigraph,
    canonical_form,
    canonical_labeling,
    classify,
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

    ``threads`` applies to trivalent classes; half-edge pairing is serial.
    """
    if spec.trivalent and not spec.allow_loops:
        # admissible by construction (see the module docstring)
        out = list(cubic_level(spec.n, spec.max_classes, threads).values())
    else:
        out = list(pairing_classes(spec).values())
    out.sort(key=lambda c: c.canonical_key)
    return out


def _passes(facts: GraphFacts, spec: EnumSpec) -> bool:
    if not facts.connected or facts.rank != spec.n or not facts.min_valence_ok:
        return False
    if facts.degree > spec.max_degree:
        return False
    if not spec.allow_loops and not facts.loopless:
        return False
    return facts.bridgeless


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


# ---------------------------------------------------------------------------
# half-edge pairing generator (oracle; all degrees, loops optional)

def _valence_sequences(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing sequences of length ``parts``, entries >= 3, given sum."""

    def rec(remaining: int, parts_left: int, cap: int) -> Iterator[tuple[int, ...]]:
        if parts_left == 0:
            if remaining == 0:
                yield ()
            return
        lo = 3
        hi = min(cap, remaining - 3 * (parts_left - 1))
        for d in range(hi, lo - 1, -1):
            for rest in rec(remaining - d, parts_left - 1, d):
                yield (d,) + rest

    yield from rec(total, parts, total)


def pairing_classes(spec: EnumSpec) -> dict[bytes, GraphClass]:
    """Classes found by pairing half-edges over all valence sequences.

    Exhaustive over isomorphism classes: half-edges at one vertex are
    interchangeable, so the search only ever pairs the first unpaired
    half-edge of each vertex, which loses matchings but no classes.
    """
    found: dict[bytes, GraphClass] = {}
    for degree in range(spec.max_degree + 1):
        v_cnt = 2 * spec.n - 2 - degree
        e_cnt = 3 * spec.n - 3 - degree
        if v_cnt < 1:
            continue
        for valences in _valence_sequences(2 * e_cnt, v_cnt):
            for g in _pair_half_edges(valences, spec.allow_loops):
                facts = classify(g, spec.n)
                if facts.degree != degree or not _passes(facts, spec):
                    continue
                lab = canonical_labeling(g)
                if lab.key in found:
                    continue
                found[lab.key] = lab.graph_class()
                if len(found) > spec.max_classes:
                    raise ResourceCapError(
                        f"class cap {spec.max_classes} exceeded",
                        partial=len(found),
                    )
    return found


def _pair_half_edges(valences: tuple[int, ...], allow_loops: bool) -> Iterator[Multigraph]:
    v_cnt = len(valences)
    remaining = list(valences)
    edges: list[tuple[int, int]] = []

    def rec() -> Iterator[Multigraph]:
        u = next((i for i in range(v_cnt) if remaining[i]), None)
        if u is None:
            yield Multigraph(v_cnt, tuple(edges))
            return
        remaining[u] -= 1
        start = u if allow_loops else u + 1
        for w in range(start, v_cnt):
            if remaining[w] <= 0:
                continue
            remaining[w] -= 1
            edges.append((u, w))
            yield from rec()
            edges.pop()
            remaining[w] += 1
        remaining[u] += 1

    yield from rec()
