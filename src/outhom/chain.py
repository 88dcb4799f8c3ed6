"""Boundary matrices on bases of forested graphs.

Columns are indexed by a basis of normalized forested graphs.  The
contraction boundary sends a column into forested graphs on one-step
contracted (possibly loop-bearing) graphs; those codomain generators are not
enumerated in advance but hash-consed as they occur, then the rows are
re-sorted by canonical key so the matrix does not depend on sweep order.
The removal boundary stays on the same graph, so its rows are the basis one
forest size down.

Loop-bearing contraction targets are genuine codomain generators here: a
target is dropped only when it is zero by odd symmetry or when its entries
cancel.  Dropping loop-bearing targets instead would make the degree-zero
homology of rank 2 vanish, which the acceptance suite rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .forests import ForestedGraph, ForestIndex, ForestKey
from .multigraph import (
    GraphClass,
    canonical_form_mapped,
    contract_edges_mapped,
)


class InconsistencyError(RuntimeError):
    """A nonzero boundary target is missing from the expected basis."""


@dataclass(frozen=True)
class SparseIntMat:
    """Sparse integer matrix; entries hold no zeros and no duplicates."""

    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]
    row_labels: Optional[tuple[ForestKey, ...]] = None

    def col_dicts(self) -> list[dict[int, int]]:
        out: list[dict[int, int]] = [dict() for _ in range(self.cols)]
        for r, c, v in self.entries:
            out[c][r] = v
        return out

    def to_lines(self) -> list[str]:
        lines = [f"{self.rows} {self.cols} {len(self.entries)}"]
        for r, c, v in sorted(self.entries, key=lambda t: (t[1], t[0])):
            lines.append(f"{r} {c} {v}")
        return lines

    @staticmethod
    def from_lines(lines: Sequence[str], row_labels=None) -> "SparseIntMat":
        rows, cols, nnz = (int(x) for x in lines[0].split())
        entries = []
        for line in lines[1 : nnz + 1]:
            r, c, v = line.split()
            entries.append((int(r), int(c), int(v)))
        return SparseIntMat(rows, cols, tuple(entries), row_labels)


@dataclass
class ChainBasis:
    """Indexed basis of forested graphs for fixed (n, p).

    ``blocks`` partitions column indices by the canonical key of the fully
    contracted graph; the contraction boundary never maps across blocks.
    """

    n: int
    p: int
    elements: tuple[ForestedGraph, ...]
    index: dict[ForestKey, int] = field(default_factory=dict)
    blocks: dict[bytes, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.index:
            self.index = {el.key: i for i, el in enumerate(self.elements)}
        if not self.blocks:
            blocks: dict[bytes, list[int]] = {}
            for i, el in enumerate(self.elements):
                blocks.setdefault(el.block_key, []).append(i)
            self.blocks = {k: tuple(v) for k, v in blocks.items()}

    @property
    def dim(self) -> int:
        return len(self.elements)


class ClassStore:
    """Interning table for graph classes plus contraction memoization.

    Keeps one :class:`ForestIndex` per canonical key so forest orbits are
    computed once per class, and memoizes single-edge contraction results
    with their edge position maps.
    """

    def __init__(self) -> None:
        self._classes: dict[bytes, GraphClass] = {}
        self._findex: dict[bytes, ForestIndex] = {}
        self._contract: dict[tuple[bytes, int], tuple[bytes, tuple[Optional[int], ...]]] = {}
        self._full_contract: dict[tuple[bytes, tuple[int, ...]], bytes] = {}

    def intern(self, cls: GraphClass) -> GraphClass:
        return self._classes.setdefault(cls.canonical_key, cls)

    def get(self, key: bytes) -> GraphClass:
        return self._classes[key]

    def forest_index(self, cls: GraphClass) -> ForestIndex:
        cls = self.intern(cls)
        fi = self._findex.get(cls.canonical_key)
        if fi is None:
            fi = ForestIndex(cls)
            self._findex[cls.canonical_key] = fi
        return fi

    def contract_one(
        self, cls: GraphClass, pos: int
    ) -> tuple[GraphClass, tuple[Optional[int], ...]]:
        """Contract one edge of the canonical graph; canonicalize the result.

        Returns the interned target class and the map from source edge
        positions to target canonical positions (``None`` for ``pos``).
        """
        cached = self._contract.get((cls.canonical_key, pos))
        if cached is not None:
            key, pos_map = cached
            return self._classes[key], pos_map
        contracted, raw_map = contract_edges_mapped(cls.canon, [pos])
        target, _, edge_map = canonical_form_mapped(contracted)
        target = self.intern(target)
        pos_map = tuple(
            None if m is None else edge_map[m] for m in raw_map
        )
        self._contract[(cls.canonical_key, pos)] = (target.canonical_key, pos_map)
        return target, pos_map

    def block_key(self, cls: GraphClass, forest: tuple[int, ...]) -> bytes:
        """Canonical key of the full contraction of ``forest`` in ``cls``."""
        if not forest:
            return cls.canonical_key
        cached = self._full_contract.get((cls.canonical_key, forest))
        if cached is not None:
            return cached
        contracted, _ = contract_edges_mapped(cls.canon, forest)
        target, _, _ = canonical_form_mapped(contracted)
        self.intern(target)
        key = target.canonical_key
        self._full_contract[(cls.canonical_key, forest)] = key
        return key


def build_chain_basis(
    n: int,
    p: int,
    graphs: Sequence[GraphClass],
    store: Optional[ClassStore] = None,
    max_basis: Optional[int] = None,
    orbit_lists: Optional[Iterable] = None,
) -> ChainBasis:
    """Basis of nonzero forest orbits of size p over the given graphs.

    Graphs are taken in the given order (callers pass them sorted by
    canonical key); within one graph, representatives come out in
    lexicographic order.  ``orbit_lists`` may supply precomputed
    ``orbit_representatives(p)`` results matching ``graphs``.
    """
    store = store or ClassStore()
    elements: list[ForestedGraph] = []
    if orbit_lists is None:
        orbit_lists = (
            store.forest_index(cls).orbit_representatives(p) for cls in graphs
        )
    from .enumerator import ResourceCapError

    for cls, reps in zip(graphs, orbit_lists):
        cls = store.intern(cls)
        for rep, _, zero in reps:
            if zero:
                continue
            elements.append(ForestedGraph(cls, rep, store.block_key(cls, rep)))
            if max_basis is not None and len(elements) > max_basis:
                raise ResourceCapError(
                    f"basis cap {max_basis} exceeded at n={n} p={p}",
                    partial=len(elements),
                )
    return ChainBasis(n=n, p=p, elements=tuple(elements))


def basis_from_labels(
    n: int, p: int, labels: Sequence[ForestKey], store: ClassStore
) -> ChainBasis:
    """Rebuild a basis-like object from hash-consed row labels."""
    elements = []
    for key, forest in labels:
        cls = store.get(key)
        elements.append(ForestedGraph(cls, forest, store.block_key(cls, forest)))
    return ChainBasis(n=n, p=p, elements=tuple(elements))


def boundary_terms(
    el: ForestedGraph, kind: str, store: ClassStore
) -> Iterator[tuple[int, ForestKey]]:
    """Terms ``(sign, target key)`` of the ``"contract"`` or ``"remove"``
    boundary of one generator: the i-th forest edge is contracted or dropped,
    with sign ``(-1)^i``.  Targets zero by odd symmetry are skipped."""
    if kind not in ("contract", "remove"):
        raise ValueError(f"unknown boundary kind {kind!r}")
    src = store.intern(el.graph)
    forest = el.forest
    for i, pos in enumerate(forest, start=1):
        rest = [f for f in forest if f != pos]
        if kind == "contract":
            target, pos_map = store.contract_one(src, pos)
            ref = store.forest_index(target).normalize([pos_map[f] for f in rest])
        else:
            ref = store.forest_index(src).normalize(rest)
        if ref.sign != 0:
            yield (-ref.sign if i & 1 else ref.sign), ref.key


def accumulate_boundary(
    acc: dict[tuple[ForestKey, int], int],
    b: ChainBasis,
    kind: str,
    store: ClassStore,
    scale: int = 1,
) -> dict[tuple[ForestKey, int], int]:
    """Add ``scale`` times one boundary of every basis column into ``acc``."""
    for col, el in enumerate(b.elements):
        for sign, key in boundary_terms(el, kind, store):
            cell = (key, col)
            acc[cell] = acc.get(cell, 0) + scale * sign
    return acc


def assemble(
    acc: dict[tuple[ForestKey, int], int],
    cols: int,
    target: Optional[ChainBasis] = None,
) -> SparseIntMat:
    """Matrix of ``{(row key, col): value}``.  Rows are the sorted keys of
    nonzero cells, or the ``target`` basis, which must hold every key."""
    if target is None:
        labels = tuple(sorted({key for (key, _), v in acc.items() if v != 0}))
        row_of = {key: r for r, key in enumerate(labels)}
    else:
        labels = tuple(e.key for e in target.elements)
        row_of = target.index
        missing = [key for key, _ in acc if key not in row_of]
        if missing:
            raise InconsistencyError(
                f"boundary target {min(missing)} missing from the p={target.p} basis"
            )
    entries = tuple(
        sorted((row_of[key], col, v) for (key, col), v in acc.items() if v != 0)
    )
    return SparseIntMat(len(labels), cols, entries, labels)


def boundary_contract(b: ChainBasis, store: Optional[ClassStore] = None) -> SparseIntMat:
    """Matrix of the contraction boundary on the given basis.

    Rows are the distinct normalized one-edge contractions, hash-consed and
    sorted by canonical key; all-zero rows are dropped.  For p = 0 the
    matrix is 0 x dim.
    """
    store = store or ClassStore()
    return assemble(accumulate_boundary({}, b, "contract", store), b.dim)


def boundary_remove(
    b: ChainBasis,
    target: Optional[ChainBasis] = None,
    store: Optional[ClassStore] = None,
) -> SparseIntMat:
    """Matrix of the removal boundary on the given basis.

    With ``target`` given, rows are that basis and a nonzero image missing
    from it raises :class:`InconsistencyError`.  Without it, rows are
    hash-consed like in :func:`boundary_contract` (used at forest sizes
    whose predecessor basis is too large to enumerate).
    """
    store = store or ClassStore()
    return assemble(accumulate_boundary({}, b, "remove", store), b.dim, target)


def matmul(a: SparseIntMat, b: SparseIntMat) -> SparseIntMat:
    """Exact integer product a . b (rows of b = cols of a)."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} . {b.rows}x{b.cols}")
    a_cols = a.col_dicts()
    out: dict[tuple[int, int], int] = {}
    b_by_col: list[list[tuple[int, int]]] = [[] for _ in range(b.cols)]
    for r, c, v in b.entries:
        b_by_col[c].append((r, v))
    for c in range(b.cols):
        col_acc: dict[int, int] = {}
        for k, bv in b_by_col[c]:
            for r, av in a_cols[k].items():
                col_acc[r] = col_acc.get(r, 0) + av * bv
        for r, v in col_acc.items():
            if v != 0:
                out[(r, c)] = v
    entries = tuple(sorted((r, c, v) for (r, c), v in out.items()))
    return SparseIntMat(a.rows, b.cols, entries)
