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
whole group, and the parity of a generator on a set is a popcount over
precomputed inversion masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .multigraph import GraphClass, canonical_form, contract_edges

ForestKey = tuple[bytes, tuple[int, ...]]


@dataclass(frozen=True)
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

    Caches, per forest set, the orbit representative, the transport parity
    from the set's ascending order to the representative's ascending order,
    the zero flag, and the orbit size.  One BFS fills the cache for a whole
    orbit.
    """

    def __init__(self, graph: GraphClass):
        self.graph = graph
        g = graph.canon
        self.edge_count = g.edge_count
        self.endpoints = g.edges
        self.loop_mask = 0
        for pos, (u, v) in enumerate(g.edges):
            if u == v:
                self.loop_mask |= 1 << pos
        # mask -> (rep_mask, parity asc(mask)->asc(rep), zero, orbit size)
        self._info: dict[int, tuple[int, int, bool, int]] = {}
        # inversion masks on the first set of >= 2 edges: indexes live as
        # long as their ClassStore, and most of them never see such a set
        self._inversions: Optional[list[list[int]]] = None

    def generators(self) -> Sequence[tuple[int, ...]]:
        """Edge permutations generating the edge automorphism group: the
        search's vertex automorphism generators, induced on edges, plus the
        parallel transpositions."""
        return self.graph.edge_perm_generators

    def orbit_info(self, mask: int) -> tuple[int, int, bool, int]:
        cached = self._info.get(mask)
        if cached is not None:
            return cached
        if not mask or not self.graph.edge_perm_generators:
            info = (mask, 1, False, 1)
            self._info[mask] = info
            return info
        gens = self.generators()
        # a set of <= 1 edge always transports with parity +1
        inversions = None
        if mask & (mask - 1):
            if self._inversions is None:
                self._inversions = [_inversion_masks(g) for g in gens]
            inversions = self._inversions
        # BFS over the orbit, transporting parity.
        par = {mask: 1}
        queue = [mask]
        zero = False
        while queue:
            cur = queue.pop()
            pcur = par[cur]
            positions = _mask_positions(cur)
            for k, gen in enumerate(gens):
                img = 0
                for i in positions:
                    img |= 1 << gen[i]
                q = pcur
                if inversions is not None:
                    inv = inversions[k]
                    if sum((inv[i] & cur).bit_count() for i in positions) & 1:
                        q = -q
                known = par.get(img)
                if known is None:
                    par[img] = q
                    queue.append(img)
                elif known != q:
                    zero = True
        rep = min(par)
        prep = par[rep]
        size = len(par)
        for m, pm in par.items():
            # parity asc(m) -> asc(rep) composes the two transports
            self._info[m] = (rep, prep * pm, zero, size)
        return self._info[mask]

    def normalize(self, ordered_forest: Sequence[int]) -> SignedRef:
        """Signed canonical reference of an ordered forest.

        Raises ``ValueError`` on duplicate positions or a cyclic edge set.
        """
        positions = list(ordered_forest)
        mask = 0
        for i in positions:
            if not (0 <= i < self.edge_count):
                raise ValueError(f"edge position {i} out of range")
            if mask & (1 << i):
                raise ValueError("duplicate edge in forest")
            mask |= 1 << i
        # a cached mask lies in the orbit of a set that ``normalize`` or
        # ``acyclic_subsets`` found acyclic, and automorphisms preserve
        # acyclicity, so only an unseen mask needs the union-find
        if mask not in self._info and not self.is_acyclic(positions):
            raise ValueError("forest contains a cycle")
        rep, parity, zero, _ = self.orbit_info(mask)
        rep_tuple = tuple(_mask_positions(rep))
        if zero:
            return SignedRef(0, (self.graph.canonical_key, rep_tuple))
        sign = _perm_parity_of_ranks(positions) * parity
        return SignedRef(sign, (self.graph.canonical_key, rep_tuple))

    def is_acyclic(self, positions: Iterable[int]) -> bool:
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in positions:
            u, v = self.endpoints[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    def acyclic_subsets(self, p: int) -> Iterator[tuple[int, ...]]:
        """All acyclic p-subsets of edge positions, in lexicographic order."""
        e = self.edge_count
        endpoints = self.endpoints
        out: list[int] = []
        parent = list(range(self.graph.canon.vertex_count))

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        def extend(start: int, chosen: int) -> Iterator[tuple[int, ...]]:
            if chosen == p:
                yield tuple(out)
                return
            # not enough edges left to finish
            for i in range(start, e - (p - chosen) + 1):
                u, v = endpoints[i]
                ru, rv = find(u), find(v)
                if ru == rv:
                    continue
                parent[ru] = rv
                out.append(i)
                yield from extend(i + 1, chosen + 1)
                out.pop()
                parent[ru] = ru

        if p == 0:
            yield ()
            return
        yield from extend(0, 0)

    def orbit_representatives(self, p: int) -> list[tuple[tuple[int, ...], int, bool]]:
        """One (rep, orbit_size, zero) triple per orbit of acyclic p-subsets.

        Representatives come out in lexicographic order: the enumeration
        visits subsets in that order and reports an orbit when it reaches
        the orbit's representative.
        """
        reps: list[tuple[tuple[int, ...], int, bool]] = []
        for subset in self.acyclic_subsets(p):
            mask = 0
            for i in subset:
                mask |= 1 << i
            cached = self._info.get(mask)
            if cached is not None and cached[0] != mask:
                continue
            rep, _, zero, size = self.orbit_info(mask)
            if rep == mask:
                reps.append((subset, size, zero))
        return reps


def _mask_positions(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _inversion_masks(gen: Sequence[int]) -> list[int]:
    """``out[i]`` has bit j for every j > i with ``gen[j] < gen[i]``, so the
    parity of ``gen`` on an ascending set ``cur`` is the parity of the sum of
    ``(out[i] & cur).bit_count()`` over the positions i of ``cur``."""
    out = []
    for i, gi in enumerate(gen):
        m = 0
        for j in range(i + 1, len(gen)):
            if gen[j] < gi:
                m |= 1 << j
        out.append(m)
    return out


def _perm_parity_of_ranks(seq: Sequence[int]) -> int:
    """Parity of the permutation sorting ``seq`` (entries distinct)."""
    inv = 0
    seen = 0
    for x in seq:
        # earlier entries greater than x
        inv += (seen >> x).bit_count()
        seen |= 1 << x
    return -1 if inv & 1 else 1


def normalize(graph: GraphClass, ordered_forest: Sequence[int]) -> SignedRef:
    """Sign-normalized canonical reference; see :meth:`ForestIndex.normalize`."""
    return ForestIndex(graph).normalize(ordered_forest)


def block_key_of(graph: GraphClass, forest: Sequence[int]) -> bytes:
    """Canonical key of the graph with the whole forest contracted.

    Contracting a forest edge leaves the full contraction unchanged, so the
    key indexes a block decomposition of the contraction boundary
    (:attr:`chain.ChainBasis.blocks`).
    """
    if not forest:
        return graph.canonical_key
    return canonical_form(contract_edges(graph.canon, forest)).canonical_key


def forest_basis(graph: GraphClass, p: int) -> list[ForestedGraph]:
    """Normalized representatives of the nonzero forest orbits of size p."""
    if p < 0:
        raise ValueError("forest size must be >= 0")
    reps = ForestIndex(graph).orbit_representatives(p)
    return [ForestedGraph(graph, rep) for rep, _, zero in reps if not zero]
