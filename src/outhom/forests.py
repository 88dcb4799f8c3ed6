"""Oriented forests in a fixed graph, up to automorphism.

A forest is an acyclic set of edge positions; its orientation is an ordering
of that set.  Reordering by a permutation multiplies the generator by the
permutation's sign, so a generator is zero exactly when some automorphism
preserves the forest setwise while permuting its edges oddly.

Forest sets are encoded as bitmasks over edge positions.  The representative
of an orbit is its member with the smallest bitmask.

A class's edge automorphism group is G = Q ⋉ P: Q is generated by the
lifts of the vertex automorphisms (``GraphClass.edge_perm_generators``),
and P permutes the edges inside each parallel class.  A forest holds at
most one edge of each parallel class, so P never changes its orbit, sign or
zero flag.  The collapse of a forest moves each edge to the first position
of its class (``GraphClass.first``), which keeps the order of its edges,
as a class's positions are adjacent.  Then the smallest image
of a forest under G is that of its collapse under Q, the transport parity
is that of the element of Q reaching it, the forest is zero exactly when
an element of Q fixes its collapse with odd parity, and its orbit has
|Q| / |Stab_Q| times the product of its edges' class sizes members.  This
is the first step of a smallest-image search, taking the normal subgroup
out (Linton, "Finding the smallest image of a set", ISSAC 2004); over the
2293 n = 7 trivalent classes and contraction targets it shrinks the
summed group orders from 23,007 to 5,892 and the largest group from 768
to 64 elements.

A lookup scans Q, listed once per :class:`ForestIndex`: the smallest image
of the collapsed mask is the representative, the parity of an element
reaching it is the transport sign, and two elements reaching it with
opposite parities certify an odd symmetry.  Nothing is cached per mask: a
record for every orbit member met would be most of the memory of a basis
build and of an assembly.  (The removal boundary, whose terms repeat
masks, keeps a memo for one source class at a time; see
:class:`chain.BoundaryKernel`.)  The empty mask is its own orbit, and a
one-edge mask has no sign, so its representative is the smallest position
of its orbit, which the class stores (``GraphClass.orbit_min``); forests
of size at most 1 never list a group, nor do the one-edge lookups of the
p = 2 boundaries in their target and source classes.  The same table of Q
gives :meth:`ForestIndex.transport`, an automorphism that moves a position
to its orbit's smallest.

Enumerating representatives walks the acyclic subsets of the first
positions of the classes in order and drops a subset as soon as an element
of Q maps it lower.  For a representative the scan counts the stabilizer
in Q, which gives the orbit size; an odd element in it makes the orbit
zero.

The scan is bit arithmetic.  For a permutation g and a position i, let
``inv[i]`` be the mask of the positions j > i with g(j) < g(i).  The parity
of g on an ascending set S is the parity of the sum over i in S of
``popcount(inv[i] & S)``; since the parity of a sum of popcounts is the
popcount of the XOR, it is ``popcount((XOR of inv[i] over S) & S) & 1``.  Each
element keeps one table ``inv[i] << e | 1 << g(i)`` (e edges), so a single
XOR over the positions of S yields the image of S in the low e bits (the
images are distinct bits) and the XOR of the inversion masks above them.
The same table of a position map into another graph moves a forest there
with its sign: a contraction's map followed by the target's collapse
(:meth:`ForestIndex.collapsed_table`), which repeats images only within
a parallel class, so never on a forest, or a cycle file's canonical
labeling.

Acyclic subsets are walked depth first with an explicit stack and a
union-find whose links are undone on backtracking, in lexicographic order
of the ascending position tuples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Optional, Sequence

from .multigraph import GraphClass, canonical_labeling, contract_edges

ForestKey = tuple[bytes, tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class ForestedGraph:
    """A canonical graph with a forest in basis form.

    ``forest`` is the ascending representative of the orbit.
    """

    graph: GraphClass
    forest: tuple[int, ...]

    @property
    def key(self) -> ForestKey:
        return (self.graph.canonical_key, self.forest)


class ForestIndex:
    """Orbit and sign bookkeeping for the forests of one graph.

    The record of a forest mask is ``(rep, parity, zero)``: the orbit's
    representative mask, the transport parity from the set's ascending
    order to the representative's, and the zero flag.  It is found by a scan
    of Q, the lifts of the class's vertex automorphisms (see the module
    docstring), listed on the first lookup that needs it, one
    :func:`xor_table` per non-identity element.  Nothing is kept per mask;
    the slots below are all an index holds.  The pipeline
    gets its indexes from :meth:`chain.ClassStore.forest_index`, one per
    class for as long as the store lives.
    """

    __slots__ = ("graph", "edge_count", "vertex_count", "endpoints", "_group")

    def __init__(self, graph: GraphClass):
        self.graph = graph
        g = graph.canon
        self.edge_count = g.edge_count
        self.vertex_count = g.vertex_count
        self.endpoints = g.edges
        self._group: Optional[list[list[int]]] = None

    def _group_tables(self) -> list[list[int]]:
        """The :func:`xor_table` of each non-identity element of Q, listed
        once from its generators.  Equal words are kept as one int object."""
        if self._group is None:
            e = self.edge_count
            words: dict[int, int] = {}
            self._group = [
                [words.setdefault(w, w) for w in xor_table(g, e)]
                for g in _group_elements(self.graph.edge_perm_generators, e)
            ]
        return self._group

    def collapsed_table(self, images: Sequence[Optional[int]]) -> list[int]:
        """The :func:`xor_table` of the position map ``images`` into this
        graph followed by the collapse: its XOR over a forest whose image
        is a forest gives the collapsed image and the parity of the order
        the map puts on the forest."""
        first = self.graph.first
        return xor_table(
            [None if m is None else first[m] for m in images], self.edge_count
        )

    def record(self, mask: int) -> tuple[int, int, bool]:
        """The record ``(rep, parity, zero)`` of the forest ``mask``, which
        need not be collapsed; raises ``ValueError`` if ``mask`` has a
        cycle.  The collapse keeps the order of the edges, so it adds no
        sign, and it moves the edges of a forest to distinct positions."""
        positions = _mask_positions(mask)
        if not self.is_acyclic(positions):
            raise ValueError("forest contains a cycle")
        first = self.graph.first
        return self.orbit(sum(1 << first[i] for i in positions))

    def orbit(self, mask: int) -> tuple[int, int, bool]:
        """The record of :meth:`record` for a collapsed forest, without the
        acyclicity check: a subset of a representative, or a forest moved
        by a :meth:`collapsed_table`, as every boundary target is.

        ``rep`` is the smallest image of ``mask`` under Q, ``parity`` that
        of the order an element reaching it puts on ``mask``, and ``zero``
        whether two elements reach it with opposite parities.  The empty
        mask and a one-edge mask have no sign and list no group: the
        one-edge masks of the p = 2 contraction then list no group of a
        target class (at n = 7, p <= 2: 365 instead of 2293 listings, peak
        RSS 46 instead of 53 MB).  When Q is trivial a forest is its own
        orbit."""
        if not mask & mask - 1:
            if mask:
                mask = 1 << self.graph.orbit_min[mask.bit_length() - 1]
            return mask, 1, False
        tables = self._group_tables()
        if not tables:
            return mask, 1, False
        e = self.edge_count
        positions = _mask_positions(mask)
        full = (1 << e) - 1
        rep, parity, zero = mask, 1, False
        for table in tables:
            acc = 0
            for i in positions:
                acc ^= table[i]
            img = acc & full
            if img <= rep:
                q = -1 if (acc >> e & mask).bit_count() & 1 else 1
                if img < rep:
                    rep, parity, zero = img, q, False
                elif q != parity:
                    zero = True
        return rep, parity, zero

    def transport(self, pos: int) -> tuple[int, ...]:
        """An edge automorphism of the class, as a position map, that sends
        ``pos`` to ``orbit_min[pos]``: the first element of Q in the listed
        group that sends ``pos``'s class-first there (the identity if that
        first is the minimum), then a swap of ``pos`` with its class-first."""
        f, rep = self.graph.first[pos], self.graph.orbit_min[pos]
        full = (1 << self.edge_count) - 1
        g = list(range(self.edge_count))
        if rep != f:
            table = next(t for t in self._group_tables() if t[f] & full == 1 << rep)
            g = [(w & full).bit_length() - 1 for w in table]
        g[pos], g[f] = g[f], g[pos]
        return tuple(g)

    def is_acyclic(self, positions: Iterable[int]) -> bool:
        parent = list(range(self.vertex_count))
        endpoints = self.endpoints
        for i in positions:
            u, v = endpoints[i]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                return False
            parent[u] = v
        return True

    def acyclic_subsets(self, p: int) -> Iterator[tuple[int, ...]]:
        """All acyclic p-subsets of edge positions, in lexicographic order."""
        for mask in self._acyclic_masks(p):
            yield tuple(_mask_positions(mask))

    def _acyclic_masks(
        self, p: int, positions: Optional[Sequence[int]] = None
    ) -> Iterator[int]:
        """Bitmasks of the acyclic p-subsets of ``positions`` (ascending;
        all positions if ``None``), in lexicographic order of their
        ascending position tuples.

        A depth-first walk with an explicit stack: each chosen edge links two
        union-find roots, and backtracking unlinks them again (no path
        compression, so the undo is one assignment).  The last edge of a
        subset only needs its two roots to differ.
        """
        if positions is None:
            positions = range(self.edge_count)
        e = len(positions)
        if p < 0:
            raise ValueError("forest size must be >= 0")
        if p == 0:
            yield 0
            return
        endpoints = [self.endpoints[i] for i in positions]
        bits = [1 << i for i in positions]
        parent = list(range(self.vertex_count))

        def root(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        stack: list[tuple[int, int]] = []  # (index, root it linked)
        mask = 0
        start = 0
        while True:
            depth = len(stack)
            if depth == p - 1:
                for i in range(start, e):
                    u, v = endpoints[i]
                    if root(u) != root(v):
                        yield mask | bits[i]
            else:
                # the last index that still leaves room to finish
                last = e - p + depth
                while start <= last:
                    u, v = endpoints[start]
                    ru, rv = root(u), root(v)
                    if ru != rv:
                        parent[ru] = rv
                        stack.append((start, ru))
                        mask |= bits[start]
                        break
                    start += 1
                if start <= last:
                    start += 1
                    continue
            if not stack:
                return
            i, ru = stack.pop()
            parent[ru] = ru
            mask ^= bits[i]
            start = i + 1

    def orbit_representatives(self, p: int) -> list[tuple[tuple[int, ...], int, bool]]:
        """One (rep, orbit_size, zero) triple per orbit of acyclic p-subsets.

        Representatives come out in lexicographic order: the enumeration
        visits the acyclic subsets of the first positions of the parallel
        classes in that order, and such a subset is its orbit's
        representative when no element of Q maps it lower.  The scan of a
        subset stops at the first element that does; for a representative
        it counts the stabilizer in Q, whose index times the class sizes of
        the subset's edges is the orbit size, and an odd stabilizer element
        makes the orbit zero.  At p <= 1 no group is listed: the
        representatives are the non-loop positions that are their orbit's
        smallest (``GraphClass.orbit_min``), and the orbit of one is the
        positions with that minimum.
        """
        if p < 0:
            raise ValueError("forest size must be >= 0")
        if p == 0:
            return [((), 1, False)]
        if p == 1:
            orbit_min = self.graph.orbit_min
            return [
                ((i,), orbit_min.count(i), False)
                for i, (u, v) in enumerate(self.endpoints)
                if orbit_min[i] == i and u != v
            ]
        first = self.graph.first
        class_size = Counter(first)
        firsts = [i for i, (u, v) in enumerate(self.endpoints) if first[i] == i and u != v]
        reps: list[tuple[tuple[int, ...], int, bool]] = []
        tables = self._group_tables()
        order = len(tables) + 1
        e = self.edge_count
        full = (1 << e) - 1
        for mask in self._acyclic_masks(p, firsts):
            positions = _mask_positions(mask)
            stabilizer, zero = 1, False
            for table in tables:
                acc = 0
                for i in positions:
                    acc ^= table[i]
                img = acc & full
                if img < mask:
                    break
                if img == mask:
                    stabilizer += 1
                    if (acc >> e & mask).bit_count() & 1:
                        zero = True
            else:
                size = order // stabilizer
                for i in positions:
                    size *= class_size[i]
                reps.append((tuple(positions), size, zero))
        return reps


def _group_elements(
    gens: Sequence[Sequence[int]], degree: int
) -> list[tuple[int, ...]]:
    """The non-identity elements of the permutation group that ``gens``
    generate on ``range(degree)``."""
    identity = tuple(range(degree))
    group = {identity}
    stack = [identity]
    while stack:
        base = stack.pop()
        for g in gens:
            composed = tuple([g[i] for i in base])
            if composed not in group:
                group.add(composed)
                stack.append(composed)
    group.discard(identity)
    return sorted(group)


def forest_key(class_key: bytes, mask: int) -> ForestKey:
    """The key of the forest ``mask`` in the class ``class_key``."""
    return (class_key, tuple(_mask_positions(mask)))


# per byte value, the byte with its eight bits in reverse order
_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def mask_order(mask: int, width: int) -> int:
    """An integer that orders the forests of one size as their ascending
    position tuples do: minus ``mask`` with its ``8 * width`` bits reversed.

    Where two sets of one size first differ, the smaller position belongs
    to the set whose tuple comes first; reversal makes that position the
    highest differing bit, so that set has the larger reversed mask."""
    reversed_bytes = mask.to_bytes(width, "little").translate(_REVERSED_BYTE)
    return -int.from_bytes(reversed_bytes, "big")


@cache
def _byte_positions(k: int) -> tuple[tuple[int, ...], ...]:
    """Per byte value b, the positions ``8k + j`` of the set bits j of b."""
    return tuple(tuple(8 * k + j for j in range(8) if b >> j & 1) for b in range(256))


def _mask_positions(mask: int) -> list[int]:
    """Ascending positions of the set bits of ``mask``, a byte at a time."""
    out: list[int] = []
    k = 0
    while mask:
        out += _byte_positions(k)[mask & 255]
        mask >>= 8
        k += 1
    return out


def _inversion_masks(images: Sequence[Optional[int]]) -> list[int]:
    """``out[i]`` has bit j for every j > i with ``images[j] < images[i]``, so
    the parity of the map on an ascending set ``cur`` is the parity of the sum
    of ``(out[i] & cur).bit_count()`` over the positions i of ``cur``.
    Positions whose image is ``None`` are left out (and get 0).  Two
    positions with one image make no inversion, so a map that repeats an
    image only on positions no forest holds together, a map followed by a
    collapse, still reads the parity of every forest.

    One pass over the positions in ascending order of their images, then
    positions: the positions met before i that lie above it are those with
    a smaller image."""
    out = [0] * len(images)
    below = 0
    for _, i in sorted((m, i) for i, m in enumerate(images) if m is not None):
        out[i] = below >> i + 1 << i + 1
        below |= 1 << i
    return out


def xor_table(images: Sequence[Optional[int]], e: int) -> list[int]:
    """Per position i, ``inv[i] << e | 1 << images[i]`` (0 where the image is
    ``None``), with ``inv`` from :func:`_inversion_masks` and images below e.

    The XOR of the words over an ascending set S whose images are distinct
    holds the image of S in the low e bits, and ``popcount((xor >> e) & S)
    & 1`` is the parity of the order the map puts on S."""
    return [
        0 if m is None else inv << e | 1 << m
        for inv, m in zip(_inversion_masks(images), images)
    ]


def block_key_of(graph: GraphClass, forest: Sequence[int]) -> bytes:
    """Canonical key of the graph with the whole forest contracted.

    Contracting a forest edge leaves the full contraction unchanged, so the
    key indexes a block decomposition of the contraction boundary
    (:attr:`chain.ChainBasis.blocks`).
    """
    if not forest:
        return graph.canonical_key
    return canonical_labeling(contract_edges(graph.canon, forest)).key
