"""Exact rank and nullspace of sparse integer matrices.

One sparse Gaussian elimination serves both fields: GF(p) reduces every
entry mod p and inverts by Fermat, the rationals keep ``Fraction`` entries
and invert by division.  Pivot selection is Markowitz-flavored: pick the
active column with fewest entries, then the shortest row in it, ties broken
by index, so results are reproducible.

Every elimination starts with a structural peel over the matrix's entry
arrays (Bouillaguet & Delaplace, "Sparse Gaussian elimination modulo p: an
update", CASC 2016): a row or column with one live entry is a pivot that
needs no arithmetic, and taking it can leave new ones.  Only the core that
stays is loaded into per-row dicts and eliminated, so the rank is the count
of peel pivots plus the rank of the core.  ``nullspace_of`` back-substitutes
through the peel pivots, in peel order, and then the core's pivot rows; over
the rationals each kernel vector is cleared to integers.

The core is kept compact, since its fill is what limits the largest ranks:
per column an append-only list of rows, filtered for stale entries when the
column is the pivot column, beside exact live counts per column (so the
active columns are the keys of the counts); one int object per column key;
GF(p) entries as symmetric residues, so +-1 and +-2 are cached ints.
``rank_of`` keeps no pivot row, and a row that empties is dropped.  At
n = 6, p = 9 the core of ``d_C`` takes 132 bytes per entry this way.

A rank takes two more steps from structured Gaussian elimination
(LaMacchia & Odlyzko, "Solving large sparse linear systems over finite
fields", CRYPTO 1990).  Between the peel and the elimination, ``_merge``
takes every core row that reaches one or two entries in a weighted
union-find over the columns: a two-entry row folds one column into another
with no row rewritten, a one-entry row kills a column.  Every row of
``d_C`` has at most three entries, so at n = 6, p = 9 this takes 3,935 of
the 5,787 core columns and hands on 11,399 rows of three entries.  Then
the elimination drops every live row that is a scalar multiple of another
live row of the same support, in one pass each time the active columns
have halved since the last, since its own steps on two-entry pivot rows
make such rows.  A taken row is independent of the rows taken before it
and a dropped one is not, so the rank is the same.  ``nullspace_of`` takes
neither step, so its pivots and kernel vectors do not depend on them.

The ``max_nnz`` cap bounds the live entries of the whole input, before the
peel, and the fill of the elimination of the core, counted after each row
it reduces, in ascending row order, and after each pass's drops.  The
merge makes no row longer, so a rank's elimination starts from at most the
core's entries.  A rank keeps no pivot row, so it counts a pivot row's
entries only until its step ends.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from typing import Optional, Sequence

from .chain import SparseIntMat
from .enumerator import ResourceCapError

DEFAULT_PRIMES = (65521, 65519)


@dataclass(frozen=True)
class FieldSpec:
    """GF(p) for an odd prime p < 2**31, or the rationals when p is None."""

    p: Optional[int] = None

    def __post_init__(self) -> None:
        if self.p is not None and not (2 < self.p < 2**31 and _is_prime(self.p)):
            raise ValueError(f"not an odd prime below 2^31: {self.p}")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(p)

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec()

    def label(self) -> str:
        return "rational" if self.p is None else str(self.p)


def _is_prime(n: int) -> bool:
    """Exact trial division by 2 and the odd numbers up to sqrt(n)."""
    if n < 3:
        return n == 2
    return n % 2 == 1 and all(n % q for q in range(3, math.isqrt(n) + 1, 2))


@dataclass(frozen=True)
class NullspaceBasis:
    """Columns spanning the kernel: source_dim-vectors as sparse dicts."""

    source_dim: int
    dim: int
    columns: tuple[dict[int, int], ...]

    def to_mat(self) -> SparseIntMat:
        """The columns as a ``source_dim x dim`` matrix.  Raises
        ``ValueError`` if an entry lies outside the 64-bit signed range that
        :class:`SparseIntMat` stores, as a rational kernel's cleared entries
        can."""
        entries = []
        for c, vec in enumerate(self.columns):
            for r, v in vec.items():
                entries.append((r, c, v))
        try:
            return SparseIntMat(self.source_dim, self.dim, entries)
        except OverflowError as exc:
            raise ValueError(
                "a kernel entry lies outside the 64-bit signed range of SparseIntMat"
            ) from exc


def rank_of(m: SparseIntMat, f: FieldSpec, max_nnz: Optional[int] = None) -> int:
    """Exact rank of m over f: the pivots of the structural peel
    (:func:`_peel`), the rows the merge of short rows takes
    (:func:`_merge`), and the rank of what is left."""
    peel_rows, _, rows, col_rows = _peel(m, f.p, max_nnz)
    merged = _merge(rows, col_rows, f.p)
    pivots, _, _ = _reduce(rows, col_rows, f.p, max_nnz, pivot_rows=False)
    return len(peel_rows) + merged + len(pivots)


def nullspace_of(
    m: SparseIntMat, f: FieldSpec, max_nnz: Optional[int] = None
) -> NullspaceBasis:
    """Kernel basis with M . N = 0 exactly over f; deterministic.  Over the
    rationals every column is an integer vector.

    The back-substitution runs through the peel pivots, in peel order, and
    then the core's.  A peel pivot's row is its whole row of ``m``: a column
    singleton's row has no live entry in an earlier column singleton's
    column (that column's one live row was another row), and its entries in
    earlier row singletons' columns meet a 0 there, since a row singleton
    forces its column to 0 in every kernel vector.
    """
    peel_rows, peel_cols, rows, col_rows = _peel(m, f.p, max_nnz)
    pivots, piv_rows, _ = _reduce(rows, col_rows, f.p, max_nnz)
    peel = list(zip(peel_rows, peel_cols))
    peel_piv_rows = [_pivot_row(m, r, c, f.p) for r, c in peel]
    return _backsolve(m.cols, peel + pivots, peel_piv_rows + piv_rows, f.p)


def nullspace_blockwise(
    m: SparseIntMat,
    col_blocks: Sequence[Sequence[int]],
    f: FieldSpec,
    max_nnz: Optional[int] = None,
) -> NullspaceBasis:
    """Per-block kernels of a block-diagonal matrix, re-embedded and
    concatenated in block order.  Off the rank pipeline; the benchmark
    replay (``bench/child.py``) times it and ``matmul`` on its result."""
    columns: list[dict[int, int]] = []
    for cols, sub in zip(col_blocks, _split_blocks(m, col_blocks)):
        for vec in nullspace_of(sub, f, max_nnz).columns:
            columns.append({cols[i]: v for i, v in vec.items()})
    return NullspaceBasis(m.cols, len(columns), tuple(columns))


def _split_blocks(
    m: SparseIntMat, col_blocks: Sequence[Sequence[int]]
) -> list[SparseIntMat]:
    """Column submatrices in one pass over ``m``.

    Each block numbers its rows in order of first appearance in
    ``m``, which fixes the pivot order and so the kernel basis.
    """
    where = {c: (k, i) for k, cols in enumerate(col_blocks) for i, c in enumerate(cols)}
    rows_seen: list[dict[int, int]] = [{} for _ in col_blocks]
    entries: list[list[tuple[int, int, int]]] = [[] for _ in col_blocks]
    for r, c, v in zip(m.row_ids, m.col_ids, m.values):
        hit = where.get(c)
        if hit is None:
            continue
        k, ci = hit
        seen = rows_seen[k]
        entries[k].append((seen.setdefault(r, len(seen)), ci, v))
    return [
        SparseIntMat(len(seen), len(cols), ents)
        for cols, seen, ents in zip(col_blocks, rows_seen, entries)
    ]


# ---------------------------------------------------------------------------
# sparse elimination over GF(p) (modulus p) or Q (modulus None)

def _peel(m: SparseIntMat, p: Optional[int], max_nnz: Optional[int] = None):
    """Structural peel: returns (pivot rows, pivot columns, core rows, core
    column sets), the pivots as two ``array('q')`` in peel order.

    An entry is live when it is nonzero mod p (nonzero over Q).  A column
    whose only live entry sits in row r spans a coordinate that no other
    column reaches, so the rank is 1 plus the rank without row r and that
    column; a row with one live entry is the transposed case.  The peel takes
    such pivots until none is left, with no arithmetic: live counts per row
    and per column, over CSR offsets into ``m``'s (row, col) order and a CSC
    list of the live rows of each column, dropped once the peel is done.
    The core is what stays: rows as dicts of entries, renumbered in row
    order, and per column the list of its core rows in ascending order, as
    :func:`_reduce` takes them.  Over GF(p) the entries are symmetric
    residues, and all rows share one int object per column key.

    The nnz cap bounds the live entries of the whole matrix here and the
    fill of the core in :func:`_reduce`.
    """
    row_ids, col_ids, values = m.row_ids, m.col_ids, m.values
    live = bytes(v % p != 0 for v in values) if p else bytes(v != 0 for v in values)
    nnz = live.count(1)
    if max_nnz is not None and nnz > max_nnz:
        raise ResourceCapError(f"input nnz {nnz} exceeded cap {max_nnz}")
    # live entries per row and per column; 0 once a row or column is gone
    rc = array("q", bytes(8 * m.rows))
    cc = array("q", bytes(8 * m.cols))
    for r in compress(row_ids, live):
        rc[r] += 1
    for c in compress(col_ids, live):
        cc[c] += 1
    # the entries of row r are rptr[r]:rptr[r + 1]; the live rows of column
    # c are crow[cptr[c]:cptr[c + 1]]
    per_row = array("q", bytes(8 * m.rows))
    for r in row_ids:
        per_row[r] += 1
    rptr = array("q", accumulate(per_row, initial=0))
    del per_row
    cptr = array("q", accumulate(cc, initial=0))
    fill = cptr[:-1]
    crow = array("q", bytes(8 * nnz))
    for r, c in compress(zip(row_ids, col_ids), live):
        crow[fill[c]] = r
        fill[c] += 1
    del fill

    peel_rows = array("q")
    peel_cols = array("q")
    col_stack = [c for c in range(m.cols) if cc[c] == 1]
    row_stack = [r for r in range(m.rows) if rc[r] == 1]
    while col_stack or row_stack:
        if col_stack:
            c = col_stack.pop()
            if cc[c] != 1:
                continue
            # pivot on the one live entry of column c and drop its row r
            r = next(r for r in crow[cptr[c]:cptr[c + 1]] if rc[r])
            for k in range(rptr[r], rptr[r + 1]):
                other = col_ids[k]
                if live[k] and cc[other]:
                    cc[other] -= 1
                    if cc[other] == 1:
                        col_stack.append(other)
            rc[r] = 0
        else:
            r = row_stack.pop()
            if rc[r] != 1:
                continue
            # pivot on the one live entry of row r and drop its column c
            c = next(
                col_ids[k] for k in range(rptr[r], rptr[r + 1]) if live[k] and cc[col_ids[k]]
            )
            for other in crow[cptr[c]:cptr[c + 1]]:
                if rc[other]:
                    rc[other] -= 1
                    if rc[other] == 1:
                        row_stack.append(other)
            cc[c] = 0
        peel_rows.append(r)
        peel_cols.append(c)

    del crow, cptr
    # one int object per column, shared by every core row's keys; GF(p)
    # values as symmetric residues, so the common +-1, +-2 are cached ints
    col_keys = list(range(m.cols))
    half = p // 2 if p else 0
    rows: list[dict] = []
    col_rows: dict[int, list[int]] = {}
    for r in range(m.rows):
        if not rc[r]:
            continue
        i = len(rows)
        row = {}
        for k in range(rptr[r], rptr[r + 1]):
            c = col_ids[k]
            if live[k] and cc[c]:
                c = col_keys[c]
                if p:
                    v = values[k] % p
                    row[c] = v - p if v > half else v
                else:
                    row[c] = Fraction(values[k])
                group = col_rows.get(c)
                if group is None:
                    col_rows[c] = [i]
                else:
                    group.append(i)
        rows.append(row)
    return peel_rows, peel_cols, rows, col_rows


def _pivot_row(m: SparseIntMat, r: int, c: int, p: Optional[int]) -> dict:
    """Row r of ``m`` (a slice of its (row, col) order) as a pivot row:
    live entries only, scaled to 1 at column c."""
    lo = bisect_left(m.row_ids, r)
    hi = bisect_left(m.row_ids, r + 1, lo)
    row = {
        k: v % p if p else Fraction(v)
        for k, v in zip(m.col_ids[lo:hi], m.values[lo:hi])
    }
    inv = pow(row[c], p - 2, p) if p else 1 / row[c]
    return {k: v * inv % p if p else v * inv for k, v in row.items() if v}


def _merge(rows: list[dict], col_rows: dict[int, list[int]], p: Optional[int]) -> int:
    """Takes every row that reaches one or two entries modulo the rows taken
    before it, in place; returns how many it took.

    A weighted union-find over the core's columns holds what the taken rows
    say: column c has a root and a factor, with e_c = factor * e_root
    modulo the taken rows, and a dead root is itself in their span.  So the
    live roots are a basis of the quotient, and a row reduced over them (dead
    roots dropped, entries on one root added up, zeros dropped) is its image
    there.  A pass walks the rows in ascending order and acts on the image's
    length: 0, the row is dependent and leaves; 1, its root dies; 2, the
    root of smaller weight (ties: the larger column) goes under the other,
    a1 e_1 + a2 e_2 = 0 giving e_2 = (-a1 / a2) e_1; 3 or more, the image
    replaces the row.  Each taken row is independent of the ones before and
    leaves.  Passes repeat while one took a row, since a row can reach two
    entries only after later merges; the last pass reduces every row over
    the final roots.

    The rows that stay and ``col_rows`` are rebuilt in :func:`_reduce`'s
    input form: renumbered in order, GF(p) entries as symmetric residues on
    the columns' shared key objects, ascending row lists.  A row that
    leaves is freed as it goes, and no row gets longer, so the fill
    ``_reduce`` starts from is at most the core's.
    """
    if not col_rows:
        return 0
    size = max(col_rows) + 1
    parent: list = [None] * size
    for c in col_rows:
        parent[c] = c
    col_rows.clear()
    factor: list = [1] * size
    weight = [1] * size
    dead = bytearray(size)
    half = p // 2 if p else 0
    gone: dict = {}
    taken = 0

    def find(c):
        """The root of c, with the path to it compressed."""
        path = []
        r = parent[c]
        while parent[r] != r:
            path.append(c)
            c, r = r, parent[r]
        f = factor[c]
        for x in reversed(path):
            if p:
                f = factor[x] * f % p
            else:
                f = factor[x] * f
            factor[x] = f
            parent[x] = r
        return r

    again = True
    while again:
        again = False
        for i, row in enumerate(rows):
            if not row:
                continue
            if all(parent[c] == c and not dead[c] for c in row):
                if len(row) > 2:
                    continue
                image = row
            else:
                image = {}
                for c, v in row.items():
                    r = parent[c]
                    if r != c:
                        if parent[r] != r:
                            r = find(c)
                        v = v * factor[c]
                    if dead[r]:
                        continue
                    w = image.get(r)
                    image[r] = v if w is None else w + v
                for r, v in list(image.items()):
                    if p:
                        v %= p
                        if v > half:
                            v -= p
                    if v:
                        image[r] = v
                    else:
                        del image[r]
            if len(image) > 2:
                rows[i] = image
                continue
            rows[i] = gone
            if not image:
                continue
            if len(image) == 1:
                dead[next(iter(image))] = 1
            else:
                (r1, a1), (r2, a2) = image.items()
                if (weight[r1], r2) < (weight[r2], r1):
                    r1, a1, r2, a2 = r2, a2, r1, a1
                # e_2 = -a1 / a2 * e_1, and r2 goes under r1
                parent[r2] = r1
                factor[r2] = -a1 * pow(a2, p - 2, p) % p if p else -a1 / a2
                weight[r1] += weight[r2]
            taken += 1
            again = True

    rows[:] = [row for row in rows if row]
    for i, row in enumerate(rows):
        for c in row:
            group = col_rows.get(c)
            if group is None:
                col_rows[c] = [i]
            else:
                group.append(i)
    return taken


def _reduce(
    rows: list[dict], col_rows: dict[int, list[int]], p: Optional[int],
    max_nnz: Optional[int] = None, pivot_rows: bool = True,
):
    """Returns (pivots, pivot rows, nnz peak); the pivot rows are ``None``
    unless ``pivot_rows`` asks for them.

    ``rows[r]`` maps column to a nonzero entry: an int mod p, which the
    elimination keeps as a symmetric residue in (-p/2, p/2] (:func:`_peel`
    loads them so), or a ``Fraction`` when p is None.  ``col_rows[c]`` lists
    the rows with an entry in c, and the elimination only appends to it:
    an entry goes stale when its row cancels c or leaves, and a row that
    cancels c and regains it by fill is listed twice.  Exact live counts
    per column sit beside the lists, and a pivot step filters its column's
    list down to the rows that still hold c, once each, in ascending row
    order.  Rows leave by being replaced with one shared empty dict: a
    pivot row when it is taken, and a victim row once it empties.

    Pivot rows are scaled to 1 at the pivot column.  Once a row is
    pivotal it leaves the active set, so the stored dict never changes
    afterwards; its remaining entries sit in later pivot columns and free
    columns only, which is what the back-substitution requires.

    Without pivot rows (a rank), a pass of :func:`_drop_repeats` runs
    before the pivot step at which the active columns are at most half of
    what they were at the last pass (the core's columns, for the first),
    and the pivot order is the one that follows from the drops.  The nnz
    cap bounds the fill, counted after each victim row; it counts the fill
    that is left after the drops, and no released pivot row.
    """
    nnz = sum(len(rw) for rw in rows)
    peak = nnz
    half = p // 2 if p else 0
    gone: dict = {}
    pivots: list[tuple[int, int]] = []
    piv_rows: Optional[list[dict]] = [] if pivot_rows else None
    # live rows per active column; a column leaves when its count is 0
    counts = {c: len(group) for c, group in col_rows.items()}
    # (count, column) entries; a column is pushed again whenever its count
    # changes, so the first popped entry that matches its column's current
    # count is min((count, column)) over the active columns
    heap = [(count, c) for c, count in counts.items()]
    heapq.heapify(heap)
    # a rank drops repeated rows each time the active columns have halved
    drop_at = -1 if pivot_rows else len(counts) // 2
    while counts:
        if len(counts) <= drop_at:
            nnz -= _drop_repeats(rows, counts, gone, p)
            drop_at = len(counts) // 2
            heap = [(count, c) for c, count in counts.items()]
            heapq.heapify(heap)
        while True:
            count, c_star = heapq.heappop(heap)
            if counts.get(c_star) == count:
                break
        group = []
        last = -1
        for r in sorted(col_rows.pop(c_star)):
            if r != last and c_star in rows[r]:
                group.append(r)
            last = r
        del counts[c_star]
        r_star = min(group, key=lambda r: (len(rows[r]), r))
        piv = rows[r_star]
        rows[r_star] = gone
        if p:
            inv = pow(piv[c_star], p - 2, p)
            for k, v in piv.items():
                v = v * inv % p
                piv[k] = v - p if v > half else v
        else:
            inv = 1 / piv[c_star]
            for k, v in piv.items():
                piv[k] = v * inv
        # pivot row leaves the active set
        for k in piv:
            if k != c_star:
                count = counts[k] - 1
                if count:
                    counts[k] = count
                else:
                    del counts[k], col_rows[k]
        for r in group:
            if r == r_star:
                continue
            row = rows[r]
            factor = row.pop(c_star)
            nnz -= 1
            for k, v in piv.items():
                if k == c_star:
                    continue
                nv = row.get(k, 0) - factor * v
                if p:
                    nv %= p
                    if nv > half:
                        nv -= p
                if nv:
                    if k not in row:
                        count = counts.get(k)
                        if count is None:
                            counts[k] = 1
                            col_rows[k] = [r]
                        else:
                            counts[k] = count + 1
                            col_rows[k].append(r)
                        nnz += 1
                    row[k] = nv
                elif k in row:
                    del row[k]
                    count = counts[k] - 1
                    if count:
                        counts[k] = count
                    else:
                        del counts[k], col_rows[k]
                    nnz -= 1
            if not row:
                rows[r] = gone
            if nnz > peak:
                peak = nnz
                if max_nnz is not None and peak > max_nnz:
                    raise ResourceCapError(
                        f"elimination fill {peak} exceeded cap {max_nnz}"
                    )
        # every count that changed sits in a column of the pivot row
        for k in piv:
            count = counts.get(k)
            if count is not None:
                heapq.heappush(heap, (count, k))
        if len(heap) > 2 * len(counts):
            heap = [(count, c) for c, count in counts.items()]
            heapq.heapify(heap)
        pivots.append((r_star, c_star))
        if piv_rows is not None:
            piv_rows.append(piv)
        else:
            nnz -= len(piv)
    return pivots, piv_rows, peak


def _drop_repeats(
    rows: list[dict], counts: dict[int, int], gone: dict, p: Optional[int]
) -> int:
    """Drops every live row that is a scalar multiple of the first live row
    of the same support, walking the rows in ascending order; returns the
    number of entries dropped.

    A dropped row is replaced by ``gone`` and leaves its columns' counts,
    which stay positive: the row it repeats is live and holds the same
    columns.  Its entries in the column lists go stale, as a pivot step's
    filter expects.  A row that is a multiple of a later row of the same
    support is kept: the rank needs no row dropped that is not a repeat,
    not every repeat found.
    """
    # the first live row of each support, keyed by the support's hash (a
    # frozenset of a long row is larger than the row's dict), or by the
    # support itself when a row of another support took that hash
    first: dict[int, dict] = {}
    clash: dict[frozenset, dict] = {}
    dropped = 0
    for r, row in enumerate(rows):
        if not row:
            continue
        other = first.setdefault(hash(frozenset(row)), row)
        if other.keys() != row.keys():
            other = clash.setdefault(frozenset(row), row)
        if other is row:
            continue
        # row = (a / b) * other, with a and b the entries at one column
        k = next(iter(row))
        a, b = row[k], other[k]
        if p:
            if any((v * b - other[c] * a) % p for c, v in row.items()):
                continue
        elif any(v * b != other[c] * a for c, v in row.items()):
            continue
        rows[r] = gone
        dropped += len(row)
        for c in row:
            counts[c] -= 1
    return dropped


def _backsolve(
    cols: int,
    pivots: list[tuple[int, int]],
    piv_rows: list[dict],
    p: Optional[int],
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
        seen = set(mentions.get(f, ()))
        pending = [-i for i in seen]  # max-heap: largest index first
        heapq.heapify(pending)
        while pending:
            i = -heapq.heappop(pending)
            row = piv_rows[i]
            c_i = pivots[i][1]
            s = 0
            for k, v in row.items():
                if k == c_i:
                    continue
                xv = x.get(k)
                if xv:
                    s += v * xv
            if p:
                s %= p
            if s:
                x[c_i] = (-s) % p if p else -s
                for j in mentions.get(c_i, ()):
                    if j < i and j not in seen:
                        seen.add(j)
                        heapq.heappush(pending, -j)
        if not p:
            lcm = math.lcm(*(v.denominator for v in x.values()))
            x = {k: int(v * lcm) for k, v in x.items()}
        columns.append(x)
    return NullspaceBasis(cols, len(columns), tuple(columns))
