"""Exact rank and nullspace of sparse integer matrices.

Prime fields get a sparse Gaussian elimination with Markowitz-flavored pivot
selection: pick the active column with fewest entries, then the shortest row
in it, ties broken by index, so results are reproducible.  Dense products
(removal boundary composed with a nullspace) switch to a vectorized mod-p
elimination.

The rationals get a dense fraction-free (Bareiss) elimination.  It exists as
the independent check of the prime-field path and for the small full-complex
computations, not as a large-scale engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .chain import SparseIntMat, matmul
from .enumerator import ResourceCapError
from .parallel import pmap

DEFAULT_PRIMES = (65521, 65519)

# above this density a prime-field matrix is eliminated densely
_DENSE_CELLS_CAP = 64_000_000
_DENSE_DENSITY = 0.02


class RankOverflowError(RuntimeError):
    """Rational elimination exceeded the configured size limits."""


@dataclass(frozen=True)
class FieldSpec:
    """Either the rationals or GF(p) for an odd prime p < 2**31."""

    kind: str  # "rational" | "prime"
    p: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind == "prime":
            if self.p is None or not (2 < self.p < 2**31) or not _is_prime(self.p):
                raise ValueError(f"not an odd prime below 2^31: {self.p}")
        elif self.kind == "rational":
            if self.p is not None:
                raise ValueError("rational field takes no prime")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("prime", p)

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec("rational")

    def label(self) -> str:
        return "rational" if self.kind == "rational" else str(self.p)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class NullspaceBasis:
    """Columns spanning the kernel: source_dim-vectors as sparse dicts."""

    source_dim: int
    dim: int
    columns: tuple[dict[int, int], ...]

    def to_mat(self) -> SparseIntMat:
        entries = []
        for c, vec in enumerate(self.columns):
            for r, v in vec.items():
                entries.append((r, c, v))
        return SparseIntMat(self.source_dim, self.dim, tuple(sorted(entries)))


def rank_of(m: SparseIntMat, f: FieldSpec, max_nnz: Optional[int] = None) -> int:
    """Exact rank of m over f."""
    if f.kind == "rational":
        return _bareiss_rank(m)
    cells = m.rows * m.cols
    if cells and cells <= _DENSE_CELLS_CAP and len(m.entries) / cells >= _DENSE_DENSITY:
        return _dense_rank_gf(m, f.p)
    pivots, _, _ = _gf_eliminate(m, f.p, max_nnz)
    return len(pivots)


def nullspace_of(
    m: SparseIntMat, f: FieldSpec, max_nnz: Optional[int] = None
) -> NullspaceBasis:
    """Kernel basis with M . N = 0 exactly over f; deterministic."""
    if f.kind == "rational":
        return _rational_nullspace(m)
    pivots, piv_rows, _ = _gf_eliminate(m, f.p, max_nnz)
    return _gf_backsolve(m.cols, pivots, piv_rows, f.p)


def nullspace_blockwise(
    m: SparseIntMat,
    col_blocks: Sequence[Sequence[int]],
    f: FieldSpec,
    max_nnz: Optional[int] = None,
    threads: int = 1,
) -> NullspaceBasis:
    """Per-block kernels of a block-diagonal matrix, re-embedded and
    concatenated in block order; blocks run on ``threads`` processes."""
    jobs = [(sub, f, max_nnz) for sub in _split_blocks(m, col_blocks)]
    columns: list[dict[int, int]] = []
    for cols, ns in zip(col_blocks, pmap(_block_nullspace, jobs, threads)):
        for vec in ns.columns:
            columns.append({cols[i]: v for i, v in vec.items()})
    return NullspaceBasis(m.cols, len(columns), tuple(columns))


def _block_nullspace(job) -> NullspaceBasis:
    sub, f, max_nnz = job
    return nullspace_of(sub, f, max_nnz)


def _split_blocks(
    m: SparseIntMat, col_blocks: Sequence[Sequence[int]]
) -> list[SparseIntMat]:
    """Column submatrices in one pass over ``m``.

    Each block numbers its rows in order of first appearance in
    ``m.entries``, which fixes the pivot order and so the kernel basis.
    """
    where = {c: (k, i) for k, cols in enumerate(col_blocks) for i, c in enumerate(cols)}
    rows_seen: list[dict[int, int]] = [{} for _ in col_blocks]
    entries: list[list[tuple[int, int, int]]] = [[] for _ in col_blocks]
    for r, c, v in m.entries:
        hit = where.get(c)
        if hit is None:
            continue
        k, ci = hit
        seen = rows_seen[k]
        entries[k].append((seen.setdefault(r, len(seen)), ci, v))
    return [
        SparseIntMat(len(seen), len(cols), tuple(ents))
        for cols, seen, ents in zip(col_blocks, rows_seen, entries)
    ]


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


# ---------------------------------------------------------------------------
# sparse elimination over GF(p)

def _gf_eliminate(m: SparseIntMat, p: int, max_nnz: Optional[int] = None):
    """Returns (pivots, pivot rows, nnz peak).

    Pivot rows are normalized to 1 at the pivot column.  Once a row is
    pivotal it leaves the active set, so the stored dict never changes
    afterwards; its remaining entries sit in later pivot columns and free
    columns only, which is what the back-substitution requires.
    """
    rows: list[dict[int, int]] = [dict() for _ in range(m.rows)]
    col_rows: dict[int, set[int]] = {}
    for r, c, v in m.entries:
        v %= p
        if v:
            rows[r][c] = v
            col_rows.setdefault(c, set()).add(r)
    nnz = sum(len(rw) for rw in rows)
    peak = nnz
    pivots: list[tuple[int, int]] = []
    piv_rows: list[dict[int, int]] = []
    while col_rows:
        c_star = min(col_rows, key=lambda c: (len(col_rows[c]), c))
        r_star = min(col_rows[c_star], key=lambda r: (len(rows[r]), r))
        piv = rows[r_star]
        inv = pow(piv[c_star], p - 2, p)
        for k in list(piv):
            piv[k] = piv[k] * inv % p
        # pivot row leaves the active set
        for k in piv:
            group = col_rows.get(k)
            if group is not None:
                group.discard(r_star)
                if not group:
                    del col_rows[k]
        victims = col_rows.pop(c_star, set())
        for r in victims:
            row = rows[r]
            factor = row.pop(c_star)
            nnz -= 1
            for k, v in piv.items():
                if k == c_star:
                    continue
                nv = (row.get(k, 0) - factor * v) % p
                if nv:
                    if k not in row:
                        col_rows.setdefault(k, set()).add(r)
                        nnz += 1
                    row[k] = nv
                elif k in row:
                    del row[k]
                    group = col_rows.get(k)
                    if group is not None:
                        group.discard(r)
                        if not group:
                            del col_rows[k]
                    nnz -= 1
            if nnz > peak:
                peak = nnz
                if max_nnz is not None and peak > max_nnz:
                    raise ResourceCapError(
                        f"elimination fill {peak} exceeded cap {max_nnz}"
                    )
        pivots.append((r_star, c_star))
        piv_rows.append(piv)
    return pivots, piv_rows, peak


def _gf_backsolve(
    cols: int,
    pivots: list[tuple[int, int]],
    piv_rows: list[dict[int, int]],
    p: int,
) -> NullspaceBasis:
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    # which pivots mention a column, newest first
    mentions: dict[int, list[int]] = {}
    for i, row in enumerate(piv_rows):
        for c in row:
            if c != pivots[i][1]:
                mentions.setdefault(c, []).append(i)
    columns = []
    for f in free_cols:
        x = {f: 1}
        pending = sorted(set(mentions.get(f, ())), reverse=True)
        seen = set(pending)
        while pending:
            i = pending.pop(0)
            row = piv_rows[i]
            c_i = pivots[i][1]
            s = 0
            for k, v in row.items():
                if k == c_i:
                    continue
                xv = x.get(k)
                if xv:
                    s = (s + v * xv) % p
            if s:
                x[c_i] = (-s) % p
                for j in mentions.get(c_i, ()):
                    if j < i and j not in seen:
                        seen.add(j)
                        pending.append(j)
                pending.sort(reverse=True)
        columns.append(x)
    return NullspaceBasis(cols, len(columns), tuple(columns))


def _dense_rank_gf(m: SparseIntMat, p: int) -> int:
    a = np.zeros((m.rows, m.cols), dtype=np.int64)
    for r, c, v in m.entries:
        a[r, c] = v % p
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = a[r, c:] * inv % p
        rest = np.nonzero(a[r + 1 :, c])[0]
        if rest.size:
            idx = rest + r + 1
            a[idx, c:] = (a[idx, c:] - np.outer(a[idx, c], a[r, c:])) % p
        r += 1
    return r


# ---------------------------------------------------------------------------
# dense fraction-free elimination over the rationals (oracle path)

_BAREISS_CELL_CAP = 4_000_000


def _to_dense(m: SparseIntMat) -> list[list[int]]:
    if m.rows * m.cols > _BAREISS_CELL_CAP:
        raise RankOverflowError(
            f"matrix {m.rows}x{m.cols} too large for dense rational elimination"
        )
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


def _bareiss_rank(m: SparseIntMat) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    _, piv_cols = _bareiss_echelon(_to_dense(m))
    return len(piv_cols)


def _rational_nullspace(m: SparseIntMat) -> NullspaceBasis:
    """Kernel over the rationals, cleared to integer vectors."""
    if m.cols == 0:
        return NullspaceBasis(0, 0, ())
    if m.rows == 0:
        cols = tuple({c: 1} for c in range(m.cols))
        return NullspaceBasis(m.cols, m.cols, cols)
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
    return NullspaceBasis(m.cols, len(columns), tuple(columns))


def check_product_zero(m: SparseIntMat, ns: NullspaceBasis, f: FieldSpec) -> bool:
    """Entrywise verification that M . N vanishes over f."""
    product = matmul(m, ns.to_mat())
    if f.kind == "prime":
        return all(v % f.p == 0 for _, _, v in product.entries)
    return not product.entries
