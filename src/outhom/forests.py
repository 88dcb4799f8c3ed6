"""Oriented forests in a fixed graph, up to automorphism.

A forest is an acyclic set of edge positions; its orientation is an ordering
of that set.  Reordering by a permutation multiplies the generator by the
permutation's sign, so a generator is zero exactly when some automorphism
preserves the forest setwise while permuting its edges oddly.

Forest sets are encoded as bitmasks over edge positions.  For each orbit we
pick the member with the smallest bitmask as representative and transport
signs along a breadth-first traversal of the orbit; a parity conflict
anywhere in the traversal certifies an odd symmetry (the conflict edges are
exactly the Schreier generators of the setwise stabilizer).  So the
traversal needs only a generating set of the edge automorphism group, not the
whole group.

The traversal is bit arithmetic.  For a generator g and a position i, let
``inv[i]`` be the mask of the positions j > i with g(j) < g(i).  The parity
of g on an ascending set S is the parity of the sum over i in S of
``popcount(inv[i] & S)``; since the parity of a sum of popcounts is the
popcount of the XOR, it is ``popcount((XOR of inv[i] over S) & S) & 1``.  Each
generator keeps one table ``inv[i] << e | 1 << g(i)`` (e edges), so a single
XOR over the positions of S yields the image of S in the low e bits (the
images are distinct bits) and the XOR of the inversion masks above them.

Acyclic subsets are walked depth first with an explicit stack and a
union-find whose links are undone on backtracking, in lexicographic order
of the ascending position tuples.

Two lookups share the record ``(rep, parity, zero)`` of a forest mask.  A
:class:`ForestIndex` serves the classes a :class:`chain.ClassStore` owns
(bases, removal sources, the oracle): its BFS caches the record of every
orbit member, because the basis enumeration and ``d_R`` meet most members.
A :class:`GroupScan` serves a class met only as a contraction target: it
lists the class's edge automorphism group once, one XOR table per element,
and scans it on every lookup with no per-mask cache.  Those groups are small
(7.6 elements on average at n = 7, weighted by contraction, at most 128),
about what the BFS visits per orbit, and the member caches were most of the
memory of a contraction assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .multigraph import GraphClass, canonical_labeling, contract_edges

ForestKey = tuple[bytes, tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class ForestedGraph:
    """A canonical graph with a normalized forest.

    ``forest`` is the ascending representative of the orbit.
    """

    graph: GraphClass
    forest: tuple[int, ...]

    @property
    def key(self) -> ForestKey:
        return (self.graph.canonical_key, self.forest)


@dataclass(frozen=True)
class SignedRef:
    """A sign in {-1, 0, +1} and the canonical key it refers to.

    Sign 0 means the forested graph is zero by odd symmetry; the key is
    still the orbit representative, for diagnostics.
    """

    sign: int
    key: ForestKey


class ForestIndex:
    """Orbit and sign bookkeeping for the forests of one graph.

    Caches, per forest set, the record ``(rep, parity, zero, size, key)`` of
    its orbit: the representative mask, the transport parity from the set's
    ascending order to the representative's ascending order, the zero flag,
    the orbit size, and the canonical key of the representative.  One BFS
    fills the cache for a whole orbit, and the members share at most two
    record tuples (one per parity) and one key, so every boundary term into
    the orbit holds the same key object.
    """

    def __init__(self, graph: GraphClass):
        self.graph = graph
        g = graph.canon
        self.edge_count = g.edge_count
        self.vertex_count = g.vertex_count
        self.endpoints = g.edges
        # mask -> (rep_mask, parity asc(mask)->asc(rep), zero, orbit size, key)
        self._info: dict[int, tuple[int, int, bool, int, ForestKey]] = {}

    @cached_property
    def _tables(self) -> list[list[int]]:
        """Per edge generator ``gen`` (the search's automorphism generators
        induced on edges, plus the parallel transpositions),
        ``table[i] = inv[i] << e | 1 << gen[i]``; see the module docstring."""
        gens = self.graph.edge_perm_generators
        return [xor_table(gen, self.edge_count) for gen in gens]

    def _orbit(self, mask: int) -> tuple[int, int, bool, int, ForestKey]:
        """BFS over the orbit of ``mask``, transporting parity; caches the
        record of every member and returns that of ``mask``."""
        par = {mask: 1}
        zero = False
        if mask and self.graph.edge_perm_generators:
            e = self.edge_count
            full = (1 << e) - 1
            tables = self._tables
            queue = [mask]
            while queue:
                cur = queue.pop()
                pcur = par[cur]
                positions = _mask_positions(cur)
                for table in tables:
                    acc = 0
                    for i in positions:
                        acc ^= table[i]
                    img = acc & full
                    q = -pcur if (acc >> e & cur).bit_count() & 1 else pcur
                    known = par.get(img)
                    if known is None:
                        par[img] = q
                        queue.append(img)
                    elif known != q:
                        zero = True
        rep = min(par)
        key = forest_key(self.graph.canonical_key, rep)
        size = len(par)
        # parity asc(m) -> asc(rep) composes the two transports
        records = {1: (rep, 1, zero, size, key), -1: (rep, -1, zero, size, key)}
        prep = par[rep]
        info = self._info
        for m, pm in par.items():
            info[m] = records[prep * pm]
        return info[mask]

    def normalize(self, ordered_forest: Sequence[int]) -> SignedRef:
        """Signed canonical reference of an ordered forest.

        Raises ``ValueError`` on duplicate positions or a cyclic edge set.
        """
        mask = 0
        for i in ordered_forest:
            if not (0 <= i < self.edge_count):
                raise ValueError(f"edge position {i} out of range")
            if mask >> i & 1:
                raise ValueError("duplicate edge in forest")
            mask |= 1 << i
        _, parity, zero, _, key = self.record(mask)
        if zero:
            return SignedRef(0, key)
        return SignedRef(_perm_parity_of_ranks(ordered_forest) * parity, key)

    def record(self, mask: int) -> tuple[int, int, bool, int, ForestKey]:
        """The cached record ``(rep, parity, zero, size, key)`` of the orbit of
        the forest ``mask``; raises ``ValueError`` if ``mask`` has a cycle.

        A cached mask lies in the orbit of a set found acyclic before, and
        automorphisms preserve acyclicity, so only an unseen mask needs the
        union-find.
        """
        if mask not in self._info and not self.is_acyclic(_mask_positions(mask)):
            raise ValueError("forest contains a cycle")
        return self.orbit(mask)

    def orbit(self, mask: int) -> tuple[int, int, bool, int, ForestKey]:
        """The record of :meth:`record` without the acyclicity check, for a
        mask known to be a forest: a subset of one, or its image under a
        contraction, as every boundary target is."""
        return self._info.get(mask) or self._orbit(mask)

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

    def _acyclic_masks(self, p: int) -> Iterator[int]:
        """Bitmasks of the acyclic p-subsets, in lexicographic order of their
        ascending position tuples.

        A depth-first walk with an explicit stack: each chosen edge links two
        union-find roots, and backtracking unlinks them again (no path
        compression, so the undo is one assignment).  The last edge of a
        subset only needs its two roots to differ.
        """
        e = self.edge_count
        if p < 0:
            raise ValueError("forest size must be >= 0")
        if p == 0:
            yield 0
            return
        endpoints = self.endpoints
        parent = list(range(self.vertex_count))

        def root(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        stack: list[tuple[int, int]] = []  # (position, root it linked)
        mask = 0
        start = 0
        while True:
            depth = len(stack)
            if depth == p - 1:
                for i in range(start, e):
                    u, v = endpoints[i]
                    if root(u) != root(v):
                        yield mask | 1 << i
            else:
                # the last position that still leaves room to finish
                last = e - p + depth
                while start <= last:
                    u, v = endpoints[start]
                    ru, rv = root(u), root(v)
                    if ru != rv:
                        parent[ru] = rv
                        stack.append((start, ru))
                        mask |= 1 << start
                        break
                    start += 1
                if start <= last:
                    start += 1
                    continue
            if not stack:
                return
            pos, ru = stack.pop()
            parent[ru] = ru
            mask ^= 1 << pos
            start = pos + 1

    def orbit_representatives(self, p: int) -> list[tuple[tuple[int, ...], int, bool]]:
        """One (rep, orbit_size, zero) triple per orbit of acyclic p-subsets.

        Representatives come out in lexicographic order: the enumeration
        visits subsets in that order and reports an orbit when it reaches
        the orbit's representative.
        """
        reps: list[tuple[tuple[int, ...], int, bool]] = []
        info = self._info
        for mask in self._acyclic_masks(p):
            record = info.get(mask) or self._orbit(mask)
            if record[0] == mask:
                reps.append((record[4][1], record[3], record[2]))
        return reps


class GroupScan:
    """Orbit records of the forests of a class met only as a contraction
    target, by a scan of its whole edge automorphism group.

    The group is the closure of ``edge_perm_generators``, listed on the
    first lookup of a nonempty forest, with one :func:`xor_table` per
    non-identity element; nothing is cached per mask.  The empty forest, the
    only target of a one-edge forest's contraction, needs no group.
    """

    __slots__ = ("graph", "edge_count", "_tables")

    def __init__(self, graph: GraphClass):
        self.graph = graph
        self.edge_count = graph.canon.edge_count
        self._tables: Optional[list[list[int]]] = None

    def orbit(self, mask: int) -> tuple[int, int, bool]:
        """``(rep, parity, zero)`` of the forest ``mask``, as in
        :meth:`ForestIndex.orbit`: the smallest image of ``mask``, the parity
        of the order an element reaching it puts on ``mask``, and whether two
        elements reach it with opposite parities."""
        if not mask:
            return 0, 1, False
        e = self.edge_count
        tables = self._tables
        if tables is None:
            elements = _group_elements(self.graph.edge_perm_generators, e)
            tables = self._tables = [xor_table(g, e) for g in elements]
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
    Positions whose image is ``None`` are left out (and get 0).

    One pass over the positions in ascending order of their images: the
    positions met before i are those with a smaller image."""
    out = [0] * len(images)
    below = 0
    for i in sorted(
        (i for i, m in enumerate(images) if m is not None), key=images.__getitem__
    ):
        out[i] = below >> i + 1 << i + 1
        below |= 1 << i
    return out


def xor_table(images: Sequence[Optional[int]], e: int) -> list[int]:
    """Per position i, ``inv[i] << e | 1 << images[i]`` (0 where the image is
    ``None``), with ``inv`` from :func:`_inversion_masks` and images below e.

    The XOR of the words over an ascending set S holds the image of S in the
    low e bits, and ``popcount((xor >> e) & S) & 1`` is the parity of the
    order the map puts on S."""
    return [
        0 if m is None else inv << e | 1 << m
        for inv, m in zip(_inversion_masks(images), images)
    ]


def _perm_parity_of_ranks(seq: Sequence[int]) -> int:
    """Parity of the permutation sorting ``seq`` (entries distinct)."""
    inv = 0
    seen = 0
    for x in seq:
        # earlier entries greater than x
        inv += (seen >> x).bit_count()
        seen |= 1 << x
    return -1 if inv & 1 else 1


def block_key_of(graph: GraphClass, forest: Sequence[int]) -> bytes:
    """Canonical key of the graph with the whole forest contracted.

    Contracting a forest edge leaves the full contraction unchanged, so the
    key indexes a block decomposition of the contraction boundary
    (:attr:`chain.ChainBasis.blocks`).
    """
    if not forest:
        return graph.canonical_key
    return canonical_labeling(contract_edges(graph.canon, forest)).key
