"""Test-side reference for graph enumeration: half-edge pairing, and the
whole edge automorphism group of a class.

``pairing_classes`` enumerates perfect matchings of half-edges over every
valence sequence and keeps the admissible ones by :func:`classify`.  It is
slow (exponential in the rank) but shares nothing with the production
generator, the contraction closure of the trivalent classes in
:mod:`outhom.enumerator`, except the canonical labeling; the equivalence
tests hold the production key sets to it.

A class lists generators of Q, the lifts of its vertex automorphisms, only;
:func:`full_edge_generators` adds the swaps inside its parallel classes,
read off the edge list, so the tests compare against the whole group
G = Q ⋉ P.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from outhom.enumerator import EnumSpec
from outhom.multigraph import GraphClass, Multigraph, canonical_labeling


@dataclass(frozen=True)
class GraphFacts:
    """Result of :func:`classify`: admissibility flags for a fixed rank."""

    connected: bool
    bridgeless: bool
    loopless: bool
    min_valence_ok: bool
    rank: Optional[int]
    degree: int
    admissible: bool


def classify(g: Multigraph, n: int) -> GraphFacts:
    """Admissibility of ``g`` for rank ``n``.

    Admissible means: connected, bridgeless, loopless, every valence >= 3,
    and first Betti number E - V + 1 equal to ``n``.  The degree is the
    total excess valence over trivalent, summed over vertices.
    """
    connected = _connected_without(g, -1)
    loopless = all(u != v for u, v in g.edges)
    val = g.valences()
    min_valence_ok = bool(val) and min(val) >= 3
    degree = sum(d - 3 for d in val)
    rank = g.edge_count - g.vertex_count + 1 if connected else None
    bridgeless = connected and not _has_bridge(g)
    admissible = (
        connected and bridgeless and loopless and min_valence_ok and rank == n
    )
    return GraphFacts(connected, bridgeless, loopless, min_valence_ok, rank, degree, admissible)


def _has_bridge(g: Multigraph) -> bool:
    # Brute force: graphs here are tiny.  An edge with a parallel partner is
    # never a bridge; loops never are.
    mult = g.multiplicity()
    for pos, (u, v) in enumerate(g.edges):
        if u == v or mult[(u, v)] > 1:
            continue
        if not _connected_without(g, pos):
            return True
    return False


def _connected_without(g: Multigraph, skip: int) -> bool:
    """Whether ``g`` is connected once the edge at position ``skip`` is
    left out (none when ``skip`` is -1); an empty graph is not."""
    if g.vertex_count == 0:
        return False
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for pos, (u, v) in enumerate(g.edges):
        if pos == skip:
            continue
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.vertex_count


def pairing_classes(spec: EnumSpec) -> dict[bytes, Multigraph]:
    """Canonical form of each class that pairing half-edges finds over every
    valence sequence, keyed by canonical key; the class cap
    (``enumerator.MAX_CLASSES``) is not applied.

    Exhaustive over isomorphism classes: half-edges at one vertex are
    interchangeable, so the search only ever pairs the first unpaired
    half-edge of each vertex, and only with a partner no smaller than the
    last one, which loses matchings but no labeled graph.
    """
    found: dict[bytes, Multigraph] = {}
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
                found.setdefault(lab.key, lab.canon)
    return found


def _passes(facts: GraphFacts, spec: EnumSpec) -> bool:
    if not facts.connected or facts.rank != spec.n or not facts.min_valence_ok:
        return False
    if facts.degree > spec.max_degree:
        return False
    if not spec.allow_loops and not facts.loopless:
        return False
    return facts.bridgeless


def _valence_sequences(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing sequences of length ``parts``, entries >= 3, given sum."""

    def rec(remaining: int, parts_left: int, cap: int) -> Iterator[tuple[int, ...]]:
        if parts_left == 0:
            if remaining == 0:
                yield ()
            return
        hi = min(cap, remaining - 3 * (parts_left - 1))
        for d in range(hi, 2, -1):
            for rest in rec(remaining - d, parts_left - 1, d):
                yield (d,) + rest

    yield from rec(total, parts, total)


def _pair_half_edges(valences: tuple[int, ...], allow_loops: bool) -> Iterator[Multigraph]:
    """Every labeled multigraph with these valences, each once: the first
    vertex with a free half-edge pairs it with a vertex no smaller than the
    partner of its previous half-edge."""
    v_cnt = len(valences)
    remaining = list(valences)
    edges: list[tuple[int, int]] = []

    def rec(prev: Optional[tuple[int, int]]) -> Iterator[Multigraph]:
        u = next((i for i in range(v_cnt) if remaining[i]), None)
        if u is None:
            yield Multigraph(v_cnt, tuple(edges))
            return
        remaining[u] -= 1
        start = u if allow_loops else u + 1
        if prev is not None and prev[0] == u:
            start = prev[1]
        for w in range(start, v_cnt):
            if remaining[w] <= 0:
                continue
            remaining[w] -= 1
            edges.append((u, w))
            yield from rec((u, w))
            edges.pop()
            remaining[w] += 1
        remaining[u] += 1

    yield from rec(None)


def parallel_swaps(g: Multigraph) -> list[tuple[int, ...]]:
    """The transpositions of consecutive positions of each parallel class of
    ``g``: they generate P, the edge permutations that fix every vertex."""
    classes: dict[tuple[int, int], list[int]] = {}
    for pos, e in enumerate(g.edges):
        classes.setdefault(e, []).append(pos)
    gens = []
    for positions in classes.values():
        for a, b in zip(positions, positions[1:]):
            p = list(range(g.edge_count))
            p[a], p[b] = b, a
            gens.append(tuple(p))
    return gens


def full_edge_generators(cls: GraphClass) -> tuple[tuple[int, ...], ...]:
    """Generators of the whole edge automorphism group of ``cls``: its
    lifts and the parallel swaps."""
    return cls.edge_perm_generators + tuple(parallel_swaps(cls.canon))
