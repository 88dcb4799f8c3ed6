"""Reference linear algebra for the tests.

Dense fraction-free (Bareiss) elimination over the rationals is the
independent check of the sparse engine in ``outhom.exactla``: a second
algorithm, with column-order pivoting and no shared code, that tests compare
ranks and kernels against.  The small helpers below it (matrix times vector,
the rank of a few vectors over GF(p), and the entrywise check that a kernel
is one) are used by tests only.  Meant for small matrices only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from outhom.chain import SparseIntMat, matmul
from outhom.exactla import FieldSpec, NullspaceBasis


def _to_dense(m: SparseIntMat) -> list[list[int]]:
    a = [[0] * m.cols for _ in range(m.rows)]
    for r, c, v in m.entries:
        a[r][c] = v
    return a


def _bareiss_echelon(a: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon; returns the matrix and pivot columns."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    piv_cols: list[int] = []
    r = 0
    denom = 1
    for c in range(cols):
        sel = next((i for i in range(r, rows) if a[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            a[r], a[sel] = a[sel], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // denom
            a[i][c] = 0
        denom = a[r][c]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return a, piv_cols


def bareiss_rank(m: SparseIntMat) -> int:
    """Rank of ``m`` over the rationals."""
    if m.rows == 0 or m.cols == 0:
        return 0
    _, piv_cols = _bareiss_echelon(_to_dense(m))
    return len(piv_cols)


def bareiss_nullspace(m: SparseIntMat) -> list[dict[int, int]]:
    """Kernel of ``m`` over the rationals, cleared to integer vectors."""
    if m.rows == 0:
        return [{c: 1} for c in range(m.cols)]
    a, piv_cols = _bareiss_echelon(_to_dense(m))
    rank = len(piv_cols)
    free = [c for c in range(m.cols) if c not in set(piv_cols)]
    columns = []
    for f in free:
        x: dict[int, Fraction] = {f: Fraction(1)}
        for r in range(rank - 1, -1, -1):
            c = piv_cols[r]
            s = Fraction(0)
            for j, v in enumerate(a[r]):
                if j != c and v and x.get(j):
                    s += v * x[j]
            if s:
                x[c] = -s / a[r][c]
        lcm = math.lcm(*(v.denominator for v in x.values()))
        columns.append({k: int(v * lcm) for k, v in x.items() if v})
    return columns


def mat_vec(m: SparseIntMat, vec: dict[int, int]) -> dict[int, int]:
    """Integer matrix times sparse integer column vector."""
    out: dict[int, int] = {}
    cols = m.col_dicts()
    for c, x in vec.items():
        for r, a in cols[c].items():
            out[r] = out.get(r, 0) + a * x
    return {r: v for r, v in out.items() if v != 0}


def rank_of_vectors(vectors: Sequence[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of a small family of sparse vectors."""
    basis: list[dict[int, int]] = []
    for vec in vectors:
        cur = {k: v % p for k, v in vec.items() if v % p}
        for b in basis:
            lead = next(iter(sorted(b)))
            x = cur.get(lead)
            if x:
                for k, v in b.items():
                    nv = (cur.get(k, 0) - x * v) % p
                    if nv:
                        cur[k] = nv
                    else:
                        cur.pop(k, None)
        if cur:
            lead = min(cur)
            inv = pow(cur[lead], p - 2, p)
            basis.append({k: v * inv % p for k, v in cur.items()})
            basis.sort(key=lambda b: min(b))
    return len(basis)


def check_product_zero(m: SparseIntMat, ns: NullspaceBasis, f: FieldSpec) -> bool:
    """Entrywise verification that M . N vanishes over f."""
    product = matmul(m, ns.to_mat())
    if f.p is not None:
        return all(v % f.p == 0 for _, _, v in product.entries)
    return not product.entries
