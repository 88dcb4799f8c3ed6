"""Cycle vectors in the ancillary text format, and their verification.

One line per term: ``coefficient [edge1 edge2 ...]`` where each edge token
is ``x+y`` (edge in the forest) or ``x-y`` (not in the forest), endpoint
labels 0-based with x <= y, and the forest oriented so that its edges are
in lexicographic order.  Labels x, y are read as vertex labels; that reading
is kept local to the parser so it can be flipped if needed.  Repeated edge
tokens parse as parallel edges.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .chain import BoundaryKernel, ClassStore
from .forests import ForestKey, ForestedGraph
from .multigraph import GraphClass, Multigraph, canonical_form_mapped

_TOKEN = re.compile(r"^(\d+)([+-])(\d+)$")


class CycleFormatError(ValueError):
    """Malformed line, cyclic forest, or a term that is zero by symmetry."""


@dataclass(frozen=True)
class CycleVector:
    """Integer combination of normalized forested graphs sharing (n, p)."""

    n: int
    p: int
    terms: tuple[tuple[int, ForestedGraph], ...]


def parse_cycle(lines, store: Optional[ClassStore] = None) -> CycleVector:
    """Parse the term lines into a normalized, duplicate-free vector.

    ``lines`` is an iterable of strings or an open file.  Terms sharing a
    normalized key are accumulated; a term whose generator is zero by odd
    symmetry raises :class:`CycleFormatError` rather than being dropped.
    """
    store = store or ClassStore()
    acc: dict[ForestKey, int] = {}
    graphs_by_key: dict[ForestKey, ForestedGraph] = {}
    shape: Optional[tuple[int, int]] = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        coeff, graph, forest_positions = _parse_line(line, lineno)
        cls, _, edge_map = canonical_form_mapped(graph)
        cls = store.intern(cls)
        mapped = [edge_map[i] for i in forest_positions]
        try:
            ref = store.forest_index(cls).normalize(mapped)
        except ValueError as exc:
            raise CycleFormatError(f"line {lineno}: {exc}") from exc
        if ref.sign == 0:
            raise CycleFormatError(
                f"line {lineno}: term is zero by odd symmetry ({ref.key})"
            )
        n = graph.edge_count - graph.vertex_count + 1
        p = len(forest_positions)
        if shape is None:
            shape = (n, p)
        elif shape != (n, p):
            raise CycleFormatError(
                f"line {lineno}: term shape (n={n}, p={p}) differs from {shape}"
            )
        key = ref.key
        acc[key] = acc.get(key, 0) + coeff * ref.sign
        if key not in graphs_by_key:
            graphs_by_key[key] = ForestedGraph(cls, key[1])
    if shape is None:
        raise CycleFormatError("empty cycle file")
    terms = tuple(
        (acc[key], graphs_by_key[key]) for key in sorted(acc) if acc[key] != 0
    )
    return CycleVector(shape[0], shape[1], terms)


def _parse_line(line: str, lineno: int) -> tuple[int, Multigraph, list[int]]:
    m = re.match(r"^(-?\d+)\s*\[(.*)\]$", line)
    if m is None:
        raise CycleFormatError(f"line {lineno}: expected 'coefficient [edges]'")
    coeff = int(m.group(1))
    tokens = m.group(2).split()
    if coeff == 0 or not tokens:
        raise CycleFormatError(f"line {lineno}: zero coefficient or no edges")
    pairs: list[tuple[int, int]] = []
    in_forest: list[bool] = []
    max_label = 0
    for tok in tokens:
        tm = _TOKEN.match(tok)
        if tm is None:
            raise CycleFormatError(f"line {lineno}: bad edge token {tok!r}")
        x, sign, y = int(tm.group(1)), tm.group(2), int(tm.group(3))
        if x > y:
            raise CycleFormatError(f"line {lineno}: endpoints must satisfy x <= y")
        pairs.append((x, y))
        in_forest.append(sign == "+")
        max_label = max(max_label, y)
    graph = Multigraph(max_label + 1, tuple(pairs))
    # stored edges are stably sorted, so position order is lexicographic,
    # which is exactly the forest orientation the format prescribes
    order = sorted(range(len(pairs)), key=lambda i: (pairs[i], i))
    forest_positions = [pos for pos, i in enumerate(order) if in_forest[i]]
    return coeff, graph, forest_positions


def serialize_cycle(w: CycleVector) -> list[str]:
    """One line per term, normalized: edges sorted, forest lexicographic."""
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
    if fg.graph.canonical_key not in keys or len(fg.forest) != p:
        return False
    try:
        ref = store.forest_index(fg.graph).normalize(fg.forest)
    except ValueError:  # a cycle, or a position repeated or out of range
        return False
    return ref.sign != 0 and ref.key == fg.key
