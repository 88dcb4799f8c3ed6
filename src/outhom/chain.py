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
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .forests import ForestedGraph, ForestIndex, ForestKey, block_key_of, xor_table
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
        if len(lines) != nnz + 1:
            raise ValueError(f"{nnz} entries declared, {len(lines) - 1} given")
        entries = []
        for line in lines[1:]:
            r, c, v = line.split()
            entries.append((int(r), int(c), int(v)))
        # (row, col) order, as ``assemble`` returns it: the order of entries
        # fixes the block row numbering and so the kernel basis
        return SparseIntMat(rows, cols, tuple(sorted(entries)), row_labels)


def vstack(top: SparseIntMat, bottom: SparseIntMat) -> SparseIntMat:
    """[top; bottom]: the rows of ``bottom`` follow those of ``top``."""
    if top.cols != bottom.cols:
        raise ValueError(
            f"shape mismatch: {top.rows}x{top.cols} over {bottom.rows}x{bottom.cols}"
        )
    shifted = tuple((r + top.rows, c, v) for r, c, v in bottom.entries)
    return SparseIntMat(top.rows + bottom.rows, top.cols, top.entries + shifted)


@dataclass
class ChainBasis:
    """Indexed basis of forested graphs for fixed (n, p).

    ``blocks`` partitions column indices by the canonical key of the fully
    contracted graph (:func:`forests.block_key_of`); the contraction boundary
    never maps across blocks.  It canonicalizes every contraction when first
    read and the pipeline does not need it; the tests and the benchmark
    replay (``bench/child.py``) read it.
    """

    n: int
    p: int
    elements: tuple[ForestedGraph, ...]
    index: dict[ForestKey, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.index:
            self.index = {el.key: i for i, el in enumerate(self.elements)}

    @cached_property
    def blocks(self) -> dict[bytes, tuple[int, ...]]:
        blocks: dict[bytes, list[int]] = {}
        for i, el in enumerate(self.elements):
            blocks.setdefault(block_key_of(el.graph, el.forest), []).append(i)
        return {k: tuple(v) for k, v in blocks.items()}

    @property
    def dim(self) -> int:
        return len(self.elements)


class ClassStore:
    """Interning table for graph classes plus contraction memoization.

    Keeps one :class:`ForestIndex` per basis class it is asked for, so
    forest orbits are computed once per class, and memoizes single-edge
    contraction results with their edge position maps.  The forest indices
    of contraction targets stay with the :class:`BoundaryKernel` that met
    them.
    """

    def __init__(self) -> None:
        self._classes: dict[bytes, GraphClass] = {}
        self._findex: dict[bytes, ForestIndex] = {}
        self._contract: dict[tuple[bytes, int], tuple[bytes, tuple[Optional[int], ...]]] = {}

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
            elements.append(ForestedGraph(cls, rep))
            if max_basis is not None and len(elements) > max_basis:
                raise ResourceCapError(
                    f"basis cap {max_basis} exceeded at n={n} p={p}",
                    partial=len(elements),
                )
    return ChainBasis(n=n, p=p, elements=tuple(elements))


class BoundaryKernel:
    """Signed boundary terms of forested graphs, with integer row ids.

    A kernel serves one assembly.  Rows are interned once per orbit of a
    target class: numbered in the order met and labelled by the orbit's key,
    or, given a ``target`` basis, looked up in its index.

    Removing the forest edge at ``pos`` leaves the mask ``F ^ 1 << pos``,
    already in ascending order.  Contracting it goes through a table, one per
    (source class, position), built from ``ClassStore.contract_one``'s
    position map only once a term with a nonempty remaining forest needs it:
    :func:`forests.xor_table`, whose XOR over the remaining forest gives the
    target mask and the parity of the order the map puts on it.

    Target classes get their forest index from the store when it holds one
    and a fresh one otherwise, which lives and dies with the kernel: the
    contracted classes of a trivalent basis are read by no other level.
    """

    def __init__(self, store: ClassStore, target: Optional[ChainBasis] = None):
        self.store = store
        self.target = target
        # row id -> key, when rows are interned rather than looked up
        self.labels: list[ForestKey] = []
        # per target class: its forest index and the row id of each orbit
        # met, by representative mask
        self._targets: dict[bytes, tuple[ForestIndex, dict[int, int]]] = {}
        # per source class, per position: [target, table or None]
        self._contractions: dict[bytes, list[Optional[list]]] = {}

    def _target_of(self, cls: GraphClass) -> tuple[ForestIndex, dict[int, int]]:
        key = cls.canonical_key
        t = self._targets.get(key)
        if t is None:
            fi = self.store._findex.get(key) or ForestIndex(cls)
            t = self._targets[key] = (fi, {})
        return t

    def _row(self, key: ForestKey) -> int:
        if self.target is None:
            self.labels.append(key)
            return len(self.labels) - 1
        row = self.target.index.get(key)
        if row is None:
            raise InconsistencyError(
                f"boundary target {key} missing from the p={self.target.p} basis"
            )
        return row

    def add_terms(
        self, acc: dict[int, int], el: ForestedGraph, kind: str, scale: int = 1
    ) -> None:
        """Add ``scale`` times the ``"contract"`` or ``"remove"`` boundary of
        one generator into ``acc``, keyed by row id: the i-th forest edge is
        contracted or dropped, with sign ``(-1)^i``.  Targets zero by odd
        symmetry are skipped."""
        src = el.graph
        forest = el.forest
        fmask = 0
        for j in forest:
            fmask |= 1 << j
        if kind == "remove":
            fi, rows = self._target_of(src)
        elif kind == "contract":
            per_pos = self._contractions.get(src.canonical_key)
            if per_pos is None:
                per_pos = [None] * src.canon.edge_count
                self._contractions[src.canonical_key] = per_pos
        else:
            raise ValueError(f"unknown boundary kind {kind!r}")
        for i, pos in enumerate(forest, start=1):
            sign = -scale if i & 1 else scale
            mask = fmask ^ 1 << pos
            if kind == "contract":
                entry = per_pos[pos]
                if entry is None:
                    target, _ = self.store.contract_one(src, pos)
                    entry = per_pos[pos] = [self._target_of(target), None]
                (fi, rows), table = entry
                if mask:
                    e = fi.edge_count
                    if table is None:
                        pos_map = self.store.contract_one(src, pos)[1]
                        table = entry[1] = xor_table(pos_map, e)
                    x = 0
                    for j in forest:
                        x ^= table[j]
                    if (x >> e & mask).bit_count() & 1:
                        sign = -sign
                    mask = x & ~(-1 << e)
            rep, parity, zero, _, key = fi.record(mask)
            if zero:
                continue
            row = rows.get(rep)
            if row is None:
                row = rows[rep] = self._row(key)
            acc[row] = acc.get(row, 0) + sign * parity


def assemble(
    b: ChainBasis,
    parts: Sequence[tuple[str, int]],
    store: ClassStore,
    target: Optional[ChainBasis] = None,
) -> SparseIntMat:
    """Matrix of the sum of ``scale`` times the ``kind`` boundary over the
    ``(kind, scale)`` parts, on the columns of ``b``.

    Rows are the keys of the nonzero rows in sorted order, or the ``target``
    basis, which must hold every target key (else
    :class:`InconsistencyError`)."""
    kernel = BoundaryKernel(store, target)
    entries: list[tuple[int, int, int]] = []
    for col, el in enumerate(b.elements):
        acc: dict[int, int] = {}
        for kind, scale in parts:
            kernel.add_terms(acc, el, kind, scale)
        entries += [(row, col, v) for row, v in acc.items() if v]
    if target is None:
        keys = kernel.labels
        live = sorted({row for row, _, _ in entries}, key=keys.__getitem__)
        rank = dict(zip(live, range(len(live))))
        entries = [(rank[row], col, v) for row, col, v in entries]
        labels = tuple(keys[row] for row in live)
    else:
        labels = tuple(e.key for e in target.elements)
    entries.sort()
    return SparseIntMat(len(labels), b.dim, tuple(entries), labels)


def boundary_contract(b: ChainBasis, store: Optional[ClassStore] = None) -> SparseIntMat:
    """Matrix of the contraction boundary on the given basis.

    Rows are the distinct normalized one-edge contractions, hash-consed and
    sorted by canonical key; all-zero rows are dropped.  For p = 0 the
    matrix is 0 x dim.
    """
    return assemble(b, (("contract", 1),), store or ClassStore())


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
    return assemble(b, (("remove", 1),), store or ClassStore(), target)


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
