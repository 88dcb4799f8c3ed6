"""Cycle vectors in the ancillary text format, and their verification.

One line per term: ``coefficient [edge1 edge2 ...]`` where each edge token
is ``x+y`` (edge in the forest) or ``x-y`` (not in the forest), endpoint
labels 0-based with x <= y, and the forest oriented so that its edges are
in lexicographic order.  Labels x, y are read as vertex labels: every label
up to the largest is used, on a vertex of valence at least 3.  Repeated edge
tokens parse as parallel edges.  Forests are signed and moved to their orbit
representatives by the XOR transport of the boundaries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .chain import BoundaryKernel, ClassStore
from .forests import ForestKey, ForestedGraph, _mask_positions, forest_key, xor_table
from .multigraph import GraphClass, Multigraph, canonical_labeling

_TOKEN = re.compile(r"^(\d+)([+-])(\d+)$")


class CycleFormatError(ValueError):
    """Malformed line, cyclic forest, or a term that is zero by symmetry."""


@dataclass(frozen=True)
class CycleVector:
    """Integer combination of basis-form forested graphs sharing (n, p)."""

    n: int
    p: int
    terms: tuple[tuple[int, ForestedGraph], ...]


def parse_cycle(lines, store: Optional[ClassStore] = None) -> CycleVector:
    """Parse the term lines into a duplicate-free vector of orbit
    representatives.

    ``lines`` is an iterable of strings or an open file.  Terms with one
    representative are accumulated; a term whose generator is zero by odd
    symmetry raises :class:`CycleFormatError` rather than being dropped.
    A forest moves onto the canonical graph as a contraction term moves
    onto its target (:meth:`chain.BoundaryKernel.add_terms`): by the
    :func:`forests.xor_table` of the labeling's edge map, then
    :meth:`ForestIndex.record`.  A line's class comes from
    :meth:`chain.ClassStore.class_of`, which builds one only for a key the
    store does not hold.
    """
    store = store or ClassStore()
    acc: dict[ForestKey, int] = {}
    shape: Optional[tuple[int, int]] = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        coeff, graph, src_mask = _parse_line(line, lineno)
        lab = canonical_labeling(graph)
        cls = store.class_of(lab)
        e = graph.edge_count
        table = xor_table(lab.edge_map(graph), e)
        x = 0
        for i in _mask_positions(src_mask):
            x ^= table[i]
        try:
            rep, parity, zero = store.forest_index(cls).record(x & ~(-1 << e))
        except ValueError as exc:
            raise CycleFormatError(f"line {lineno}: {exc}") from exc
        key = forest_key(cls.canonical_key, rep)
        if zero:
            raise CycleFormatError(f"line {lineno}: term is zero by odd symmetry ({key})")
        n = e - graph.vertex_count + 1
        p = src_mask.bit_count()
        if shape is None:
            shape = (n, p)
        elif shape != (n, p):
            raise CycleFormatError(
                f"line {lineno}: term shape (n={n}, p={p}) differs from {shape}"
            )
        sign = -parity if (x >> e & src_mask).bit_count() & 1 else parity
        acc[key] = acc.get(key, 0) + coeff * sign
    if shape is None:
        raise CycleFormatError("empty cycle file")
    terms = tuple(
        (acc[key], ForestedGraph(store.get(key[0]), key[1]))
        for key in sorted(acc) if acc[key] != 0
    )
    return CycleVector(shape[0], shape[1], terms)


def _parse_line(line: str, lineno: int) -> tuple[int, Multigraph, int]:
    """The coefficient, the graph and the forest mask over its positions.
    The labels must be 0..max, each of valence at least 3 (a loop counts
    twice) as in an admissible graph, checked before a graph is built."""
    m = re.match(r"^(-?\d+)\s*\[(.*)\]$", line)
    if m is None:
        raise CycleFormatError(f"line {lineno}: expected 'coefficient [edges]'")
    coeff = int(m.group(1))
    tokens = m.group(2).split()
    if coeff == 0 or not tokens:
        raise CycleFormatError(f"line {lineno}: zero coefficient or no edges")
    pairs: list[tuple[int, int]] = []
    in_forest: list[bool] = []
    valence: dict[int, int] = {}
    for tok in tokens:
        tm = _TOKEN.match(tok)
        if tm is None:
            raise CycleFormatError(f"line {lineno}: bad edge token {tok!r}")
        x, sign, y = int(tm.group(1)), tm.group(2), int(tm.group(3))
        if x > y:
            raise CycleFormatError(f"line {lineno}: endpoints must satisfy x <= y")
        pairs.append((x, y))
        in_forest.append(sign == "+")
        valence[x] = valence.get(x, 0) + 1
        valence[y] = valence.get(y, 0) + 1
    vertex_count = len(valence)
    if max(valence) >= vertex_count:  # then a label below vertex_count is unused
        unused = next(v for v in range(vertex_count) if v not in valence)
        raise CycleFormatError(f"line {lineno}: vertex label {unused} is unused")
    for v in range(vertex_count):
        if valence[v] < 3:
            raise CycleFormatError(
                f"line {lineno}: vertex {v} has valence {valence[v]}, below 3"
            )
    graph = Multigraph(vertex_count, tuple(pairs))
    # stored edges are stably sorted, so position order is lexicographic,
    # which is exactly the forest orientation the format prescribes
    order = sorted(range(len(pairs)), key=lambda i: (pairs[i], i))
    src_mask = sum(1 << pos for pos, i in enumerate(order) if in_forest[i])
    return coeff, graph, src_mask


def serialize_cycle(w: CycleVector) -> list[str]:
    """One line per term, in canonical labels: edges sorted, forest
    lexicographic."""
    lines = []
    for coeff, fg in sorted(w.terms, key=lambda t: t[1].key):
        forest = set(fg.forest)
        tokens = [
            f"{u}{'+' if pos in forest else '-'}{v}"
            for pos, (u, v) in enumerate(fg.graph.canon.edges)
        ]
        lines.append(f"{coeff} [{' '.join(tokens)}]")
    return lines


@dataclass(frozen=True)
class CycleVerdict:
    is_in_basis: bool
    dC_zero: bool
    dR_zero: bool
    missing: tuple[ForestKey, ...] = ()

    @property
    def is_cycle(self) -> bool:
        return self.is_in_basis and self.dC_zero and self.dR_zero


def verify_cycle(
    w: CycleVector, graphs: Sequence[GraphClass], store: Optional[ClassStore] = None
) -> CycleVerdict:
    """Check membership in the basis and that both boundaries kill w over Z.

    A term is a basis element, as :func:`chain.build_chain_basis` makes one,
    when its class is one of ``graphs`` (the trivalent classes of rank
    ``w.n``) and its forest has ``w.p`` edges, is acyclic, is its orbit's
    representative and is not zero by odd symmetry, so no basis is built.
    The boundaries are applied directly to the support of w.
    """
    store = store or ClassStore()
    keys = {cls.canonical_key for cls in graphs}
    missing = tuple(sorted(fg.key for _, fg in w.terms if not _in_basis(fg, w.p, keys, store)))
    if missing:
        return CycleVerdict(False, False, False, missing)
    kernel = BoundaryKernel(store)
    contract_acc: dict[int, int] = {}
    remove_acc: dict[int, int] = {}
    for coeff, fg in w.terms:
        kernel.add_terms(contract_acc, fg, "contract", coeff)
        kernel.add_terms(remove_acc, fg, "remove", coeff)
    d_c_zero = all(v == 0 for v in contract_acc.values())
    d_r_zero = all(v == 0 for v in remove_acc.values())
    return CycleVerdict(True, d_c_zero, d_r_zero)


def _in_basis(fg: ForestedGraph, p: int, keys: set[bytes], store: ClassStore) -> bool:
    forest = fg.forest
    if fg.graph.canonical_key not in keys or len(forest) != p:
        return False
    mask = sum(1 << i for i in forest if i >= 0)
    if _mask_positions(mask) != list(forest) or mask >> fg.graph.canon.edge_count:
        return False  # a position repeated, out of order or out of range
    try:
        rep, _, zero = store.forest_index(fg.graph).record(mask)
    except ValueError:  # a cycle
        return False
    return rep == mask and not zero
