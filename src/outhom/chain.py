"""Boundary matrices on bases of forested graphs.

Columns are indexed by a basis of forested graphs (orbit representatives).
The contraction boundary sends a column into forested graphs on one-step
contracted (possibly loop-bearing) graphs; those codomain generators are not
enumerated in advance but hash-consed as they occur, each as its target
class key and representative mask, then the rows are re-sorted by canonical
key so the matrix does not depend on sweep order.  A target's class and the
contraction's position map are built only for a term whose remaining forest
is not empty; a one-edge forest, every generator at p = 1, needs only the
target key.  Contractions of the positions of one edge orbit of a class
share one canonical search, that of the orbit's smallest position, which
is the one the p = 1 basis holds.
The removal boundary stays on the same graph, so its rows are the basis one
forest size down, matched to the sorted rows by one walk over its elements.

Orbit lookups, for the basis and for both boundaries, go through the
:class:`ClassStore`'s one :class:`forests.ForestIndex` per class, so a
class's edge group is listed once per store, not once per level.

A matrix keeps its entries in three integer arrays (row, column, value) in
(row, column) order.  Assembly appends each column's terms to the arrays,
renumbers the rows in place and puts the entries in order with one counting
sort by row, permuting one array at a time; no per-entry Python object is
kept.

Loop-bearing contraction targets are genuine codomain generators here: a
target is dropped only when it is zero by odd symmetry or when its entries
cancel.  Dropping loop-bearing targets instead would make the degree-zero
homology of rank 2 vanish, which the acceptance suite rejects.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Iterable, Optional, Sequence

from .enumerator import ResourceCapError
from .forests import (
    ForestedGraph,
    ForestIndex,
    _mask_positions,
    block_key_of,
    mask_order,
)
from .multigraph import (
    GraphClass,
    Labeling,
    _edge_map_under,
    canonical_labeling,
    contract_one_edge,
)


class InconsistencyError(RuntimeError):
    """A nonzero boundary target is missing from the expected basis."""


class SparseIntMat:
    """Sparse integer matrix of shape ``rows x cols``.

    The nonzero entries sit in three ``array('q')`` columns, ``row_ids``,
    ``col_ids`` and ``values``, in (row, col) order and without duplicates,
    so an entry costs 24 bytes and values must fit in 64 bits.  The
    constructor takes ``(row, col, value)`` triples in any order and sorts
    them; :meth:`from_arrays` wraps arrays that are already in order.
    """

    __slots__ = ("rows", "cols", "row_ids", "col_ids", "values")

    def __init__(
        self, rows: int, cols: int, entries: Iterable[tuple[int, int, int]] = ()
    ) -> None:
        triples = sorted(entries)
        self.rows = rows
        self.cols = cols
        self.row_ids = array("q", [t[0] for t in triples])
        self.col_ids = array("q", [t[1] for t in triples])
        self.values = array("q", [t[2] for t in triples])

    @classmethod
    def from_arrays(
        cls, rows: int, cols: int, row_ids: array, col_ids: array, values: array
    ) -> "SparseIntMat":
        """The matrix on these arrays, not copied; they must be in (row, col)
        order."""
        m = cls.__new__(cls)
        m.rows, m.cols = rows, cols
        m.row_ids, m.col_ids, m.values = row_ids, col_ids, values
        return m

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def entries(self) -> tuple[tuple[int, int, int], ...]:
        """The ``(row, col, value)`` triples in (row, col) order, built anew on
        every read; for tests and small matrices, never for the pipeline."""
        return tuple(zip(self.row_ids, self.col_ids, self.values))

    def col_dicts(self) -> list[dict[int, int]]:
        out: list[dict[int, int]] = [dict() for _ in range(self.cols)]
        for r, c, v in zip(self.row_ids, self.col_ids, self.values):
            out[c][r] = v
        return out

    def to_lines(self) -> list[str]:
        """The file form: a ``rows cols nnz`` header, then ``row col value``
        lines in (col, row) order."""
        r, c, v = self.row_ids, self.col_ids, self.values
        lines = [f"{self.rows} {self.cols} {self.nnz}"]
        lines += [f"{r[k]} {c[k]} {v[k]}" for k in _counting_order(c, self.cols)]
        return lines

    @staticmethod
    def from_lines(lines: Sequence[str]) -> "SparseIntMat":
        """Inverse of :meth:`to_lines`; the entry lines may come in any order.
        Raises ``ValueError`` on a count or an index that does not fit, on a
        count, index or value outside 64 bits, or on a (row, col) cell given
        twice."""
        rows, cols, nnz = (int(x) for x in lines[0].split())
        if not all(0 <= x < 1 << 63 for x in (rows, cols, nnz)):
            raise ValueError("a count is negative or does not fit in 64 bits")
        if len(lines) != nnz + 1:
            raise ValueError(f"{nnz} entries declared, {len(lines) - 1} given")
        r, c, v = array("q"), array("q"), array("q")
        try:
            for line in lines[1:]:
                a, b, x = line.split()
                r.append(int(a))
                c.append(int(b))
                v.append(int(x))
        except OverflowError as exc:
            raise ValueError("an entry does not fit in 64 bits") from exc
        if nnz and not (0 <= min(r) and max(r) < rows and 0 <= min(c) and max(c) < cols):
            raise ValueError(f"an entry lies outside the {rows} x {cols} shape")
        # (row, col) order, as ``assemble`` leaves it: a least-significant-
        # digit radix sort, by column and then stably by row
        for by_row in (False, True):
            order = _counting_order(r, rows) if by_row else _counting_order(c, cols)
            r = _take(order, r)
            c = _take(order, c)
            v = _take(order, v)
            del order
        if any(r[k] == r[k - 1] and c[k] == c[k - 1] for k in range(1, nnz)):
            raise ValueError("an entry is given twice")
        return SparseIntMat.from_arrays(rows, cols, r, c, v)


def _counting_order(keys: array, size: int) -> array:
    """Positions of ``keys`` (each in ``range(size)``) ordered stably by key:
    one counting sort, O(len(keys) + size)."""
    start = [0] * (size + 1)
    for k in keys:
        start[k + 1] += 1
    for i in range(size):
        start[i + 1] += start[i]
    order = array("q", bytes(8 * len(keys)))
    for pos, k in enumerate(keys):
        order[start[k]] = pos
        start[k] += 1
    return order


def _take(order: array, column: array) -> array:
    """``column`` rearranged into ``order``.  Callers rebind each column in
    turn, so only one original and its copy are alive at a time."""
    return array("q", (column[k] for k in order))


def vstack(top: SparseIntMat, bottom: SparseIntMat) -> SparseIntMat:
    """[top; bottom]: the rows of ``bottom`` follow those of ``top``."""
    if top.cols != bottom.cols:
        raise ValueError(
            f"shape mismatch: {top.rows}x{top.cols} over {bottom.rows}x{bottom.cols}"
        )
    shift = top.rows
    return SparseIntMat.from_arrays(
        top.rows + bottom.rows,
        top.cols,
        top.row_ids + array("q", (r + shift for r in bottom.row_ids)),
        top.col_ids + bottom.col_ids,
        top.values + bottom.values,
    )


@dataclass
class ChainBasis:
    """Basis of forested graphs for fixed (n, p) in key order (classes by
    canonical key, each class's forests lexicographic), as assembly reads it.

    ``blocks`` partitions column indices by the canonical key of the fully
    contracted graph (:func:`forests.block_key_of`); the contraction boundary
    never maps across blocks.  It canonicalizes every contraction when first
    read and the pipeline does not need it; the tests and the benchmark
    replay (``bench/child.py``) read it.
    """

    n: int
    p: int
    elements: tuple[ForestedGraph, ...]

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

    It memoizes per (class, position) the target key and the labeling's
    vertex map of at most one canonical search (:meth:`contract_key`).  A
    target key with no class yet keeps its :class:`Labeling`, and
    :meth:`get` builds the class from it on first read.
    :meth:`contract_one` adds the position map, a map onto the target
    shared by an edge orbit: the orbit's smallest position
    (``GraphClass.orbit_min``) gets it from a second contraction and the
    stored vertex map, and every other position not yet searched from that
    map through the automorphism :meth:`ForestIndex.transport` gives, with
    no search of its own.

    :meth:`forest_index` is where every :class:`ForestIndex` of a run is
    made: one per class it is asked for, kept as long as the store, so each
    class's edge group is listed once however many filtration levels, basis
    builds and assemblies read it.
    """

    def __init__(self) -> None:
        self._classes: dict[bytes, GraphClass] = {}
        self._labelings: dict[bytes, Labeling] = {}
        self._findex: dict[bytes, ForestIndex] = {}
        # per (class key, position): (target key, vertex map, None), then
        # (target key, None, position map) once the map is built
        self._contract: dict[tuple[bytes, int], tuple] = {}

    def intern(self, cls: GraphClass) -> GraphClass:
        self._labelings.pop(cls.canonical_key, None)
        return self._classes.setdefault(cls.canonical_key, cls)

    def class_of(self, lab: Labeling) -> GraphClass:
        """The class held under ``lab.key``; only when there is none is it
        built from ``lab`` and interned."""
        cls = self._classes.get(lab.key)
        if cls is None:
            cls = self.intern(lab.graph_class())
        return cls

    def get(self, key: bytes) -> GraphClass:
        cls = self._classes.get(key)
        if cls is None:
            cls = self._classes[key] = self._labelings.pop(key).graph_class()
        return cls

    def forest_index(self, cls: GraphClass) -> ForestIndex:
        cls = self.intern(cls)
        fi = self._findex.get(cls.canonical_key)
        if fi is None:
            fi = self._findex[cls.canonical_key] = ForestIndex(cls)
        return fi

    def _contraction(self, cls: GraphClass, pos: int) -> tuple:
        memo = self._contract.get((cls.canonical_key, pos))
        if memo is None:
            lab = canonical_labeling(contract_one_edge(cls.canon, pos)[0])
            # one bytes object per key, however many contractions reach it
            known = self._classes.get(lab.key)
            if known is None:
                key = self._labelings.setdefault(lab.key, lab).key
            else:
                key = known.canonical_key
            memo = (key, lab.vertex_map, None)
            self._contract[(cls.canonical_key, pos)] = memo
        return memo

    def contract_key(self, cls: GraphClass, pos: int) -> bytes:
        """The canonical key of the contraction of the non-loop edge at
        ``pos`` of the canonical graph; builds no class and no map."""
        return self._contraction(cls, pos)[0]

    def contract_one(
        self, cls: GraphClass, pos: int
    ) -> tuple[GraphClass, tuple[Optional[int], ...]]:
        """Contract one non-loop edge of the canonical graph.

        Returns the interned target class and a map from source edge
        positions to target canonical positions (``None`` for ``pos``), an
        edge isomorphism of the contraction onto the target's canonical
        graph.  The map is shared by an edge orbit: a position that is not
        the smallest of its orbit under the class's edge automorphisms
        (``cls.orbit_min[pos]``) gets ``rep_map[g[j]]``, g an automorphism
        sending it to that representative (:meth:`ForestIndex.transport`,
        read off the group a basis build above p = 1 has listed), whose map
        ``rep_map`` comes from a canonical search.  Another isomorphism than
        a fresh labeling's may result, but it moves every forest onto the
        same representative with the same sign.
        """
        key = cls.canonical_key
        memo = self._contract.get((key, pos))
        if memo is None:
            rep = cls.orbit_min[pos]
            if rep != pos:
                target, rep_map = self.contract_one(cls, rep)
                g = self.forest_index(cls).transport(pos)
                pos_map = tuple([rep_map[i] for i in g])
                self._contract[(key, pos)] = (target.canonical_key, None, pos_map)
                return target, pos_map
            memo = self._contraction(cls, pos)
        target_key, vertex_map, pos_map = memo
        target = self.get(target_key)
        if pos_map is None:
            contracted, raw_map = contract_one_edge(cls.canon, pos)
            edge_map = _edge_map_under(contracted, target.canon, vertex_map)
            pos_map = tuple(None if m is None else edge_map[m] for m in raw_map)
            self._contract[(key, pos)] = (target_key, None, pos_map)
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

    Graphs are taken in the given order (sorted by canonical key, which
    assembly into the basis needs); each graph's representatives come out
    in lexicographic order.  ``orbit_lists`` may supply precomputed
    ``orbit_representatives(p)`` results matching ``graphs``; otherwise they
    come from the store's index of each class.
    """
    store = store or ClassStore()
    elements: list[ForestedGraph] = []
    if orbit_lists is None:
        orbit_lists = (store.forest_index(cls).orbit_representatives(p) for cls in graphs)
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

    A kernel serves one assembly, or one cycle's support: generators of
    one forest size.  Rows are interned once per orbit of a target class,
    in ``rows`` under the class key and the representative mask, and
    numbered in the order met; :func:`assemble` renumbers them.

    Removing the forest edge at ``pos`` leaves the mask ``F ^ 1 << pos``,
    already in ascending order.  Contracting it needs only the target key
    (``ClassStore.contract_key``) when the remaining forest is empty, as it
    is for every term of a one-edge forest: the empty forest is its own
    orbit, with sign +1 and never zero.  A nonempty remaining forest takes
    its target from ``ClassStore.contract_one`` and goes through a table,
    one per (source class, position), built from its position map, a map
    onto the target shared by an edge orbit, the first time such a term
    needs it: :meth:`forests.ForestIndex.collapsed_table`, the map followed
    by the target's collapse onto the first position of each parallel
    class, whose XOR over the remaining forest gives the collapsed target
    mask and the parity of the order the map puts on it.  Any edge
    isomorphism onto the target gives the same record: two differ by an
    automorphism of the target, whose scan the record already takes.
    Removal terms of a representative are collapsed already, so every
    lookup is :meth:`forests.ForestIndex.orbit`'s scan of the lifted vertex
    automorphisms alone.

    Orbits are looked up through the store's index of each class met
    (:meth:`ClassStore.forest_index`), fetched once per removal source class
    and once per contraction table; the kernel keeps no index of its own.
    Removal terms repeat masks (78k distinct among 239k terms at n = 6,
    p = 8), so their records are memoized, one source class at a time: the
    memo is reset when the source class changes, and a basis lists its
    elements class by class.  Contraction targets get no memo.
    """

    def __init__(self, store: ClassStore):
        self.store = store
        # per target class met: the row id of each orbit, by representative
        # mask, numbered in the order met
        self.rows: dict[bytes, dict[int, int]] = {}
        self.row_count = 0
        # per source class, per position: (the target class's ``rows``
        # entry, index and table, both None when the remaining forests are
        # empty)
        self._contractions: dict[bytes, list[Optional[tuple]]] = {}
        # the removal source class key, its index, and its records by mask
        self._removal: tuple = (None, None, {})

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
            tkey = src.canonical_key
            rows = self.rows.setdefault(tkey, {})
            if tkey != self._removal[0]:
                self._removal = (tkey, self.store.forest_index(src), {})
            _, fi, memo = self._removal
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
                    # the generators of one kernel share a forest size, so
                    # a position's remaining forests are all empty or none
                    if mask:
                        target, pos_map = self.store.contract_one(src, pos)
                        fi = self.store.forest_index(target)
                        rows = self.rows.setdefault(target.canonical_key, {})
                        entry = (rows, fi, fi.collapsed_table(pos_map))
                    else:
                        rows = self.rows.setdefault(self.store.contract_key(src, pos), {})
                        entry = (rows, None, None)
                    per_pos[pos] = entry
                rows, fi, table = entry
                if mask:
                    e = fi.edge_count
                    x = 0
                    for j in forest:
                        x ^= table[j]
                    if (x >> e & mask).bit_count() & 1:
                        sign = -sign
                    mask = x & ~(-1 << e)
            if mask:
                if kind == "contract":
                    record = fi.orbit(mask)
                else:
                    record = memo.get(mask)
                    if record is None:
                        record = memo[mask] = fi.orbit(mask)
                if record[2]:  # zero by odd symmetry
                    continue
                rep = record[0]
                sign *= record[1]
            else:  # the empty forest: its own orbit, parity +1, never zero
                rep = 0
            row = rows.get(rep)
            if row is None:
                row = rows[rep] = self.row_count
                self.row_count += 1
            acc[row] = acc.get(row, 0) + sign


def assemble(
    b: ChainBasis,
    parts: Sequence[tuple[str, int]],
    store: ClassStore,
    target: Optional[ChainBasis] = None,
) -> SparseIntMat:
    """Matrix of the sum of ``scale`` times the ``kind`` boundary over the
    ``(kind, scale)`` parts, on the columns of ``b``.

    Interned rows are sorted by (class key, :func:`forests.mask_order` of the
    representative mask), which is key order because every row's forest has
    size ``b.p - 1``: the nonzero rows, numbered in that order; or, walked
    onto the ``target`` basis's elements in one pass, that basis, which must
    hold every key met (else :class:`InconsistencyError`).  A row's key is
    not kept: a hash-consed row is known by its number alone."""
    if b.p > 2 and any(kind == "contract" for kind, _ in parts):
        # list the target groups, which the store keeps, before any row is
        # interned: listed among the rows, they would keep the rows' freed
        # memory resident (n = 7: 648 instead of 853 MB held after dc_10)
        for src, els in groupby(b.elements, lambda el: el.graph):
            for pos in set().union(*(el.forest for el in els)):
                store.forest_index(store.contract_one(src, pos)[0])._group_tables()
    kernel = BoundaryKernel(store)
    row_ids, col_ids, values = array("q"), array("q"), array("q")
    for col, el in enumerate(b.elements):
        acc: dict[int, int] = {}
        for kind, scale in parts:
            kernel.add_terms(acc, el, kind, scale)
        for row, v in acc.items():
            if v:
                row_ids.append(row)
                col_ids.append(col)
                values.append(v)
    interned, count = kernel.rows, kernel.row_count
    # free the contraction tables and removal records: the sort below needs
    # room for a second copy of the arrays
    del kernel
    # renumber the interned ids in key order, class by class and each class's
    # representatives by ``mask_order``: the ids that kept an entry in turn,
    # or by one forward walk over a target, which lists that same order
    if target is None:
        used = bytearray(count)
        for row in row_ids:
            used[row] = 1
    renumber = array("q", bytes(8 * count))
    elements = () if target is None else target.elements
    rows, j, kept = len(elements), 0, 0
    for class_key in sorted(interned):
        by_mask = interned.pop(class_key)
        width = (max(by_mask, default=0).bit_length() + 7) // 8
        while j < rows and elements[j].graph.canonical_key < class_key:
            j += 1
        for rep in sorted(by_mask, key=lambda m: mask_order(m, width)):
            row = by_mask[rep]
            if target is not None:
                # a step past the class only happens when the key is missing
                forest = tuple(_mask_positions(rep))
                while j < rows and elements[j].forest < forest:
                    j += 1
                el = elements[j] if j < rows else None
                if el is None or el.forest != forest or el.graph.canonical_key != class_key:
                    raise InconsistencyError(
                        f"boundary target {(class_key, forest)} missing from the p={target.p} basis"
                    )
                renumber[row] = j
            elif used[row]:
                renumber[row] = kept
                kept += 1
    for k, row in enumerate(row_ids):
        row_ids[k] = renumber[row]
    if target is None:
        rows = kept
    # columns ascend within each row already, so a stable sort by row puts
    # the entries in (row, col) order
    order = _counting_order(row_ids, rows)
    row_ids = _take(order, row_ids)
    col_ids = _take(order, col_ids)
    values = _take(order, values)
    return SparseIntMat.from_arrays(rows, b.dim, row_ids, col_ids, values)


def boundary_contract(b: ChainBasis, store: Optional[ClassStore] = None) -> SparseIntMat:
    """Matrix of the contraction boundary on the given basis.

    Rows are the distinct one-edge contractions, as orbit representatives,
    hash-consed and numbered in canonical key order; all-zero rows are
    dropped, and no row keeps its key.  For p = 0 the matrix is 0 x dim.
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
    out: list[tuple[int, int, int]] = []
    b_by_col: list[list[tuple[int, int]]] = [[] for _ in range(b.cols)]
    for r, c, v in zip(b.row_ids, b.col_ids, b.values):
        b_by_col[c].append((r, v))
    for c in range(b.cols):
        col_acc: dict[int, int] = {}
        for k, bv in b_by_col[c]:
            for r, av in a_cols[k].items():
                col_acc[r] = col_acc.get(r, 0) + av * bv
        out += [(r, c, v) for r, v in col_acc.items() if v]
    return SparseIntMat(a.rows, b.cols, out)
