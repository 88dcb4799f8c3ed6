"""Test-side references for boundary assembly, forest signs, contraction
and the oracle.

``normalize`` is the sign of an ordered forest as it was before the
transport in bit operations: ``ForestIndex.record`` of its set, times the
parity of the sort, counted pairwise; it reads no ``xor_table``.
``reference_boundary`` lists each term's remaining forest in order and puts
it through ``normalize``; the sums are keyed by ``(target key, column)``.
It moves a contraction term by that contraction's own canonical labeling
(``fresh_contraction``), so the production path's maps shared by an edge
orbit are checked against maps that share nothing.
The equivalence tests hold the production :func:`outhom.chain.assemble` to
it; since an assembled matrix keeps no row keys, ``assemble_keyed`` reads
them off the reference once the two matrices are seen to be equal.  ``contract_edges_mapped`` is the
union-find contraction with its position map, the reference for
``multigraph.contract_one_edge``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from outhom.chain import ChainBasis, ClassStore, InconsistencyError, SparseIntMat, assemble
from outhom.forests import ForestedGraph, ForestIndex, ForestKey, forest_key
from outhom.multigraph import GraphClass, Multigraph, canonical_labeling
from outhom.pipeline import _oracle_bases


class SignedRef(NamedTuple):
    """A sign in {-1, 0, +1} and the key of the orbit representative; sign 0
    means the forested graph is zero by odd symmetry."""

    sign: int
    key: ForestKey


def perm_parity(seq: Sequence[int]) -> int:
    """Parity (+1 or -1) of the permutation sorting ``seq`` (entries
    distinct), by a pairwise inversion count."""
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inversions & 1 else 1


def normalize(fi: ForestIndex, ordered: Sequence[int]) -> SignedRef:
    """Signed reference of the forest ``ordered`` of ``fi``'s class.

    Raises ``ValueError`` on a position out of range or repeated, or a
    cyclic edge set."""
    mask = 0
    for i in ordered:
        if not 0 <= i < fi.edge_count:
            raise ValueError(f"edge position {i} out of range")
        if mask >> i & 1:
            raise ValueError("duplicate edge in forest")
        mask |= 1 << i
    rep, parity, zero = fi.record(mask)
    key = forest_key(fi.graph.canonical_key, rep)
    return SignedRef(0 if zero else perm_parity(ordered) * parity, key)


def contract_edges_mapped(
    g: Multigraph, which: Iterable[int]
) -> tuple[Multigraph, tuple[Optional[int], ...]]:
    """``multigraph.contract_edges`` by a union-find, with the map from old to
    new edge positions: contracted positions map to ``None``, parallel edges
    keep their relative order."""
    which = set(which)
    for pos in which:
        if not (0 <= pos < g.edge_count):
            raise IndexError(f"edge position {pos} out of range")
    parent = list(range(g.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for pos in which:
        ru, rv = find(g.edges[pos][0]), find(g.edges[pos][1])
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    relabel: dict[int, int] = {}
    for v in range(g.vertex_count):
        relabel.setdefault(find(v), len(relabel))
    kept = []
    for pos, (u, v) in enumerate(g.edges):
        if pos not in which:
            a, b = relabel[find(u)], relabel[find(v)]
            kept.append(((min(a, b), max(a, b)), pos))
    kept.sort()
    pos_map: list[Optional[int]] = [None] * g.edge_count
    for new_pos, (_, old_pos) in enumerate(kept):
        pos_map[old_pos] = new_pos
    return Multigraph(len(relabel), tuple(e for e, _ in kept)), tuple(pos_map)


def fresh_contraction(
    cls: GraphClass, pos: int, store: ClassStore
) -> tuple[GraphClass, tuple[Optional[int], ...]]:
    """The contraction of the edge at ``pos`` as its own canonical labeling
    gives it: the interned target class and the labeling's map from source
    positions to target positions (``None`` for ``pos``), with no edge
    orbit shared, unlike ``ClassStore.contract_one``."""
    contracted, raw_map = contract_edges_mapped(cls.canon, [pos])
    lab = canonical_labeling(contracted)
    edge_map = lab.edge_map(contracted)
    return store.class_of(lab), tuple(None if m is None else edge_map[m] for m in raw_map)


def boundary_terms(
    el: ForestedGraph, kind: str, store: ClassStore, contractions: dict
) -> Iterator[tuple[int, ForestKey]]:
    """Terms ``(sign, target key)`` of the ``"contract"`` or ``"remove"``
    boundary of one generator: the i-th forest edge is contracted or dropped,
    with sign ``(-1)^i``.  Targets zero by odd symmetry are skipped.  A
    contraction is a :func:`fresh_contraction`, kept in ``contractions`` by
    (class key, position)."""
    src = store.intern(el.graph)
    forest = el.forest
    for i, pos in enumerate(forest, start=1):
        rest = [f for f in forest if f != pos]
        if kind == "contract":
            held = (src.canonical_key, pos)
            if held not in contractions:
                contractions[held] = fresh_contraction(src, pos, store)
            target, pos_map = contractions[held]
            ref = normalize(store.forest_index(target), [pos_map[f] for f in rest])
        else:
            ref = normalize(store.forest_index(src), rest)
        if ref.sign != 0:
            yield (-ref.sign if i & 1 else ref.sign), ref.key


def reference_boundary(
    b: ChainBasis,
    parts: Sequence[tuple[str, int]],
    store: ClassStore,
    target: Optional[ChainBasis] = None,
) -> tuple[SparseIntMat, tuple[ForestKey, ...]]:
    """The matrix :func:`outhom.chain.assemble` returns, summed term by term
    over ``(target key, column)`` cells, and the key of each row: the sorted
    nonzero keys, or the ``target`` basis keys."""
    acc: dict[tuple[ForestKey, int], int] = {}
    contractions: dict = {}
    for kind, scale in parts:
        for col, el in enumerate(b.elements):
            for sign, key in boundary_terms(el, kind, store, contractions):
                cell = (key, col)
                acc[cell] = acc.get(cell, 0) + scale * sign
    if target is None:
        labels = tuple(sorted({key for (key, _), v in acc.items() if v != 0}))
        row_of = {key: r for r, key in enumerate(labels)}
    else:
        labels = tuple(e.key for e in target.elements)
        row_of = {key: r for r, key in enumerate(labels)}
        missing = [key for key, _ in acc if key not in row_of]
        if missing:
            raise InconsistencyError(
                f"boundary target {min(missing)} missing from the p={target.p} basis"
            )
    entries = tuple(
        sorted((row_of[key], col, v) for (key, col), v in acc.items() if v != 0)
    )
    return SparseIntMat(len(labels), b.dim, entries), labels


def assemble_keyed(
    b: ChainBasis,
    parts: Sequence[tuple[str, int]],
    store: ClassStore,
    target: Optional[ChainBasis] = None,
) -> tuple[SparseIntMat, tuple[ForestKey, ...]]:
    """:func:`outhom.chain.assemble`'s matrix and the key of each of its rows,
    taken from :func:`reference_boundary` on a store of its own after
    asserting that the two matrices are equal."""
    got = assemble(b, parts, store, target)
    want, keys = reference_boundary(b, parts, ClassStore(), target)
    assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)
    return got, keys


def basis_from_labels(
    n: int, p: int, labels: Sequence[ForestKey], store: ClassStore
) -> ChainBasis:
    """Rebuild a basis-like object from hash-consed row labels."""
    elements = [ForestedGraph(store.get(key), forest) for key, forest in labels]
    return ChainBasis(n=n, p=p, elements=tuple(elements))


def oracle_euler_characteristic(n: int) -> int:
    """Alternating sum of full-complex dimensions (equals that of homology)."""
    bases, _ = _oracle_bases(n)
    return sum(-b.dim if k % 2 else b.dim for k, b in enumerate(bases))
