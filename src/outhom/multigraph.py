"""Multigraphs with positionally identified edges.

A graph is stored as a vertex count plus a sorted list of endpoint pairs;
parallel edges appear as repeated pairs and are distinguished by their
position in the list.  Loops (u, u) are representable because edge
contraction produces them; only a one-edge contraction reports its position
map (:func:`contract_one_edge`).  Nothing here tests admissibility: the
enumerator builds admissible graphs only, so no classifier is needed.

The canonical labeling here is a small self-contained partition-refinement
canonicalizer: graphs in this project have at most ~2 dozen vertices, so a
backtracking search over refined partitions, pruned with the automorphisms
it has found, is entirely adequate.  Refinement compares the vertices of a
cell by integer signatures, the sorted ``cell * k + multiplicity`` over
their neighbours.  :func:`canonical_labeling` returns the search result and
the canonical key; :meth:`Labeling.graph_class` builds from it the class,
with generators of the automorphism group on vertices, their lifts to edge
positions and the parallel classes, so callers that deduplicate by key
build a class only on a key's first occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Edge = tuple[int, int]


@dataclass(frozen=True)
class Multigraph:
    """An undirected multigraph; edges sorted, parallel edges kept distinct."""

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        norm = tuple(sorted((u, v) if u <= v else (v, u) for u, v in self.edges))
        object.__setattr__(self, "edges", norm)
        for u, v in norm:
            if not (0 <= u <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range for V={self.vertex_count}")

    @classmethod
    def _from_sorted(cls, vertex_count: int, edges: tuple[Edge, ...]) -> "Multigraph":
        """The graph on ``edges`` as given, with no normalization or range
        check: each pair must already be ``(u, v)`` with ``0 <= u <= v <
        vertex_count``, and the tuple sorted."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertex_count", vertex_count)
        object.__setattr__(g, "edges", edges)
        return g

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def valences(self) -> list[int]:
        """Valence of each vertex; a loop contributes 2 to its vertex."""
        val = [0] * self.vertex_count
        for u, v in self.edges:
            val[u] += 1
            val[v] += 1
        return val

    def multiplicity(self) -> dict[Edge, int]:
        mult: dict[Edge, int] = {}
        for e in self.edges:
            mult[e] = mult.get(e, 0) + 1
        return mult

    def to_text(self) -> str:
        """Line format used by every cache file: ``V=<k> E=<u>-<v>,...``."""
        body = ",".join(f"{u}-{v}" for u, v in self.edges)
        return f"V={self.vertex_count} E={body}"

    @staticmethod
    def from_text(line: str) -> "Multigraph":
        line = line.strip()
        try:
            vpart, epart = line.split(" ", 1)
            assert vpart.startswith("V=") and epart.startswith("E=")
            v = int(vpart[2:])
            body = epart[2:]
            edges = []
            if body:
                for tok in body.split(","):
                    a, b = tok.split("-")
                    edges.append((int(a), int(b)))
        except (ValueError, AssertionError) as exc:
            raise ValueError(f"bad graph line: {line!r}") from exc
        return Multigraph(v, tuple(edges))


def contract_edges(g: Multigraph, which: Iterable[int]) -> Multigraph:
    """Contract the edges at the given positions to points.

    Merged vertices are relabeled by order of first appearance in the
    original vertex order, so the result is deterministic.  Parallel
    partners of a contracted edge become loops.
    """
    which = set(which)
    for pos in which:
        if not (0 <= pos < g.edge_count):
            raise IndexError(f"edge position {pos} out of range")
    parent = list(range(g.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pos in which:
        u, v = g.edges[pos]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)

    relabel: dict[int, int] = {}
    for v in range(g.vertex_count):
        r = find(v)
        if r not in relabel:
            relabel[r] = len(relabel)

    kept: list[Edge] = []
    for pos, (u, v) in enumerate(g.edges):
        if pos in which:
            continue
        a, b = relabel[find(u)], relabel[find(v)]
        kept.append((a, b) if a <= b else (b, a))
    kept.sort()
    return Multigraph._from_sorted(len(relabel), tuple(kept))


def contract_one_edge(
    g: Multigraph, pos: int
) -> tuple[Multigraph, tuple[Optional[int], ...]]:
    """:func:`contract_edges` of the one non-loop edge at ``pos``, without
    a union-find, and the map from old to new edge positions (``None`` at
    ``pos``; parallel edges keep their relative order).

    The edge is some ``(u, v)`` with ``u < v``: ``v`` merges into ``u`` and
    the labels above ``v`` shift down by one, which is the relabeling by
    first appearance.  Raises ``ValueError`` on a loop.
    """
    if not 0 <= pos < g.edge_count:
        raise IndexError(f"edge position {pos} out of range")
    u, v = g.edges[pos]
    if u == v:
        raise ValueError(f"edge {pos} is a loop")
    relabel = list(range(g.vertex_count - 1))
    relabel.insert(v, u)
    kept = []
    for old, (a, b) in enumerate(g.edges):
        a, b = relabel[a], relabel[b]
        kept.append(((a, b) if a <= b else (b, a), old))
    del kept[pos]
    kept.sort()
    pos_map: list[Optional[int]] = [None] * g.edge_count
    for new_pos, (_, old_pos) in enumerate(kept):
        pos_map[old_pos] = new_pos
    edges = tuple(e for e, _ in kept)
    return Multigraph._from_sorted(g.vertex_count - 1, edges), tuple(pos_map)


def apply_vertex_perm(g: Multigraph, perm: Sequence[int]) -> Multigraph:
    """Relabel vertices by ``perm`` (old label -> new label)."""
    return Multigraph(g.vertex_count, tuple((perm[u], perm[v]) for u, v in g.edges))


@dataclass(frozen=True)
class GraphClass:
    """Canonical form of a multigraph plus automorphism generators.

    ``vertex_perm_generators`` generate the automorphism group of ``canon``:
    they are the automorphisms the pruned canonical search found, a
    generating set rather than the whole group.  ``edge_perm_generators``
    are their lifts to edge positions other than the identity: a lift sends
    the k-th edge of a parallel class to the k-th edge of its image class,
    and the lifts form the group Q.  The edge automorphism group G is Q times
    the permutations inside each parallel class, which ``first`` gives: per
    position, the first position of its class (the edges are sorted, so a
    class's positions are adjacent).  ``orbit_min`` gives per position the
    smallest position of its orbit under G: the smallest class-first in
    the orbit of its class-first under Q, as the lifts map class-firsts to
    class-firsts.  It is ``first``'s own tuple when the two are equal.
    ``canonical_key`` is shared by all graphs isomorphic to ``canon``.
    """

    canon: Multigraph
    vertex_perm_generators: tuple[tuple[int, ...], ...]
    edge_perm_generators: tuple[tuple[int, ...], ...]
    canonical_key: bytes
    first: tuple[int, ...]
    orbit_min: tuple[int, ...]


@dataclass(frozen=True)
class Labeling:
    """The result of one canonical search, before any class is built.

    ``vertex_map`` sends the searched graph's labels to ``canon``'s, and
    ``automorphisms`` (in the searched graph's labels) generate its whole
    automorphism group.  ``key`` is the :class:`GraphClass` key of
    ``canon``, so a caller that meets a key it already holds can skip
    :meth:`graph_class`.
    """

    canon: Multigraph
    vertex_map: tuple[int, ...]
    automorphisms: tuple[tuple[int, ...], ...]
    key: bytes

    def graph_class(self) -> GraphClass:
        """The class of ``canon``, with the automorphisms conjugated by
        ``vertex_map`` into canonical labels, their lifts to edge positions
        and each position's class-first and orbit minimum."""
        perm0 = self.vertex_map
        inv0 = _invert(perm0)
        vertex_gens = tuple(dict.fromkeys(
            tuple(perm0[aut[x]] for x in inv0) for aut in self.automorphisms
        ))
        canon = self.canon
        classes = _class_positions(canon)
        edge_gens = [_edge_map_under(canon, canon, aut, classes) for aut in vertex_gens]
        identity = tuple(range(canon.edge_count))
        gens = tuple(p for p in dict.fromkeys(edge_gens) if p != identity)
        first = tuple(classes[e][0] for e in canon.edges)
        # the class-firsts ascend, so each orbit is met at its smallest
        smallest: dict[int, int] = {}
        for f in first:
            if f not in smallest:
                smallest.update(dict.fromkeys(orbit_of((f,), gens), f))
        orbit_min = tuple(smallest[f] for f in first)
        return GraphClass(
            canon=canon,
            vertex_perm_generators=vertex_gens,
            edge_perm_generators=gens,
            canonical_key=self.key,
            first=first,
            orbit_min=first if orbit_min == first else orbit_min,
        )

    def edge_map(self, g: Multigraph) -> tuple[int, ...]:
        """Map from the positions of ``g``, the searched graph, to those of
        ``canon``.  Within a parallel class the k-th position (in ascending
        order) maps to the k-th position of the image class."""
        return _edge_map_under(g, self.canon, self.vertex_map)


def canonical_labeling(g: Multigraph) -> Labeling:
    """Canonically label ``g``; deterministic and invariant under relabeling."""
    if g.vertex_count < 1:
        raise ValueError("canonical labeling requires at least one vertex")
    best_edges, perm0, auts = _canonical_search(g)
    canon = Multigraph._from_sorted(g.vertex_count, best_edges)
    return Labeling(canon, perm0, tuple(auts), canon.to_text().encode("ascii"))


def canonical_form(g: Multigraph) -> GraphClass:
    """Canonicalize ``g``; deterministic and invariant under relabeling."""
    return canonical_labeling(g).graph_class()


def _canonical_search(
    g: Multigraph,
) -> tuple[tuple[Edge, ...], tuple[int, ...], list[tuple[int, ...]]]:
    """Backtracking over refined partitions, pruned with the automorphisms
    found so far.

    Returns the minimal leaf edge list, the first leaf permutation in search
    order that reaches it, and automorphisms of ``g`` that generate its
    whole automorphism group (McKay & Piperno 2014).  A pruned subtree is
    the image of an earlier sibling's, so it holds no new leaf edge list and
    the first minimal leaf is the one the unpruned search would find.
    """
    v_cnt = g.vertex_count
    mult = [[0] * v_cnt for _ in range(v_cnt)]
    loops = [0] * v_cnt
    for u, v in g.edges:
        if u == v:
            loops[u] += 1
        else:
            mult[u][v] += 1
            mult[v][u] += 1
    val = g.valences()
    # A vertex's refinement signature is the sorted tuple of
    # ``cell * k + m`` over its neighbours, m the edge multiplicity: with
    # k above every m this orders as the (cell, m) pairs do.  Loops need no
    # term: the initial cells split on them and refinement only splits.
    k = 1 + max(max(row) for row in mult)
    nbrs = [[(u, m) for u, m in enumerate(row) if m] for row in mult]

    def refine(cells: list[list[int]]) -> list[list[int]]:
        cell_base = [0] * v_cnt
        while True:
            for ci, cell in enumerate(cells):
                base = ci * k
                for v in cell:
                    cell_base[v] = base
            new_cells: list[list[int]] = []
            changed = False
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                sigs: dict[tuple[int, ...], list[int]] = {}
                for v in cell:
                    sig = tuple(sorted([cell_base[u] + m for u, m in nbrs[v]]))
                    sigs.setdefault(sig, []).append(v)
                if len(sigs) == 1:
                    new_cells.append(cell)
                    continue
                changed = True
                for sig in sorted(sigs):
                    new_cells.append(sigs[sig])
            cells = new_cells
            if not changed:
                return cells

    # leaf edge list -> first leaf permutation reaching it; a later leaf
    # with the same edges yields an automorphism of g
    leaves: dict[tuple[Edge, ...], tuple[int, ...]] = {}
    auts: list[tuple[int, ...]] = []
    best: list[Optional[tuple[Edge, ...]]] = [None]

    def leaf(cells: list[list[int]]) -> None:
        perm = [0] * v_cnt
        for pos, cell in enumerate(cells):
            perm[cell[0]] = pos
        edges = tuple(sorted([
            (perm[u], perm[v]) if perm[u] <= perm[v] else (perm[v], perm[u])
            for u, v in g.edges
        ]))
        other = leaves.get(edges)
        if other is None:
            leaves[edges] = tuple(perm)
            if best[0] is None or edges < best[0]:
                best[0] = edges
        else:
            inv = _invert(other)
            auts.append(tuple(inv[perm[x]] for x in range(v_cnt)))

    def search(cells: list[list[int]], fixed: tuple[int, ...]) -> None:
        cells = refine(cells)
        target = None
        for ci, cell in enumerate(cells):
            if len(cell) > 1:
                target = ci
                break
        if target is None:
            leaf(cells)
            return
        cell = cells[target]
        # A found automorphism fixing ``fixed`` pointwise maps the subtree of
        # one child onto the subtree of its image, with the same leaf edge
        # lists, so a child in the orbit of a tried sibling is skipped.
        tried: list[int] = []
        orbit: set[int] = set()
        stab: list[tuple[int, ...]] = []
        known = 0
        for v in cell:
            if len(auts) > known:
                new = [a for a in auts[known:] if all(a[x] == x for x in fixed)]
                known = len(auts)
                if new:
                    stab.extend(new)
                    orbit = orbit_of(tried, stab)
            if v in orbit:
                continue
            tried.append(v)
            if stab:
                orbit |= orbit_of((v,), stab)
            rest = [u for u in cell if u != v]
            search(cells[:target] + [[v], rest] + cells[target + 1:], fixed + (v,))

    initial: dict[tuple[int, int], list[int]] = {}
    for v in range(v_cnt):
        initial.setdefault((val[v], loops[v]), []).append(v)
    search([initial[k] for k in sorted(initial)], ())
    assert best[0] is not None
    return best[0], leaves[best[0]], auts


def orbit_of(points: Sequence[int], gens: Sequence[Sequence[int]]) -> set[int]:
    """The union of the orbits of ``points`` under the permutations ``gens``."""
    orbit = set(points)
    stack = list(orbit)
    while stack:
        x = stack.pop()
        for gen in gens:
            y = gen[x]
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


def _invert(perm: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def _class_positions(g: Multigraph) -> dict[Edge, list[int]]:
    classes: dict[Edge, list[int]] = {}
    for pos, e in enumerate(g.edges):
        classes.setdefault(e, []).append(pos)
    return classes


def _edge_map_under(
    g: Multigraph,
    canon: Multigraph,
    perm: Sequence[int],
    canon_classes: Optional[dict[Edge, list[int]]] = None,
) -> tuple[int, ...]:
    """Edge position map induced by the vertex map ``perm`` from ``g`` to
    ``canon``, completed within parallel classes in ascending order.

    ``canon_classes`` is ``_class_positions(canon)`` when the caller has it.
    """
    dst_classes = _class_positions(canon) if canon_classes is None else canon_classes
    src_classes = dst_classes if g is canon else _class_positions(g)
    out = [0] * g.edge_count
    for (u, v), positions in src_classes.items():
        a, b = perm[u], perm[v]
        image = dst_classes[(min(a, b), max(a, b))]
        for src, dst in zip(positions, image):
            out[src] = dst
    return tuple(out)
