"""Test-side references for boundary assembly and the oracle.

``reference_boundary`` is the term generator as it was before the kernel in
bit operations: each term's remaining forest is listed in order and put
through ``ForestIndex.normalize``, which sorts it with the permutation
parity and transports it to its orbit representative; the sums are keyed by
``(target key, column)``.  The equivalence tests hold the production
:func:`outhom.chain.assemble` to it, entries and row labels alike.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from outhom.chain import ChainBasis, ClassStore, InconsistencyError, SparseIntMat
from outhom.forests import ForestedGraph, ForestKey
from outhom.pipeline import _oracle_bases


def boundary_terms(
    el: ForestedGraph, kind: str, store: ClassStore
) -> Iterator[tuple[int, ForestKey]]:
    """Terms ``(sign, target key)`` of the ``"contract"`` or ``"remove"``
    boundary of one generator: the i-th forest edge is contracted or dropped,
    with sign ``(-1)^i``.  Targets zero by odd symmetry are skipped."""
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
    for kind, scale in parts:
        for col, el in enumerate(b.elements):
            for sign, key in boundary_terms(el, kind, store):
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
