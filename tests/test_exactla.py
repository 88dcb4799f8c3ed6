from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outhom.chain import SparseIntMat, boundary_contract, boundary_remove, matmul, vstack
from outhom.enumerator import ResourceCapError
from outhom.exactla import (
    DEFAULT_PRIMES,
    FieldSpec,
    _backsolve,
    _drop_repeats,
    _is_prime,
    _merge,
    _peel,
    _pivot_row,
    _reduce,
    nullspace_blockwise,
    nullspace_of,
    rank_of,
)
from reference_la import (
    bareiss_nullspace,
    bareiss_rank,
    check_product_zero,
    mat_vec,
    rank_of_vectors,
)

GF1 = FieldSpec.prime(DEFAULT_PRIMES[0])
GF2 = FieldSpec.prime(DEFAULT_PRIMES[1])
QQ = FieldSpec.rational()


def _random_sparse(rng, rows, cols, fill, lo=-9, hi=9):
    cells = {}
    for _ in range(fill):
        cells[(rng.randrange(rows), rng.randrange(cols))] = rng.randint(lo, hi)
    return SparseIntMat(
        rows, cols, tuple((r, c, v) for (r, c), v in cells.items() if v)
    )


class TestFieldSpec:
    def test_default_primes_are_prime(self):
        for p in DEFAULT_PRIMES:
            FieldSpec.prime(p)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec.prime(65520)

    def test_prime_above_the_bound_rejected(self):
        # 2**31 + 11 is prime, but above the bound
        assert _is_prime(2**31 + 11)
        with pytest.raises(ValueError):
            FieldSpec.prime(2**31 + 11)
        with pytest.raises(ValueError):
            FieldSpec.prime(2)

    def test_rational_takes_no_prime(self):
        assert QQ == FieldSpec(None) == FieldSpec()
        assert QQ.p is None and GF1 == FieldSpec(DEFAULT_PRIMES[0])

    def test_labels(self):
        assert GF1.label() == "65521"
        assert QQ.label() == "rational"

    def test_is_prime_matches_a_sieve(self):
        bound = 2**17
        sieve = bytearray([1]) * bound
        sieve[0] = sieve[1] = 0
        for q in range(2, int(bound**0.5) + 1):
            if sieve[q]:
                sieve[q * q :: q] = bytes(len(range(q * q, bound, q)))
        assert [n for n in range(bound) if _is_prime(n)] == [
            n for n in range(bound) if sieve[n]
        ]

    def test_is_prime_on_pseudoprimes_and_the_largest_prime(self):
        # strong pseudoprimes to small bases, and Carmichael numbers
        for n in (2047, 1373653, 25326001, 561, 1105, 1729):
            assert not _is_prime(n)
        assert _is_prime(2**31 - 1)


class TestRank:
    def test_identity(self):
        ident = SparseIntMat(3, 3, ((0, 0, 1), (1, 1, 1), (2, 2, 1)))
        assert rank_of(ident, GF1) == 3
        assert rank_of(ident, QQ) == 3

    def test_all_ones_2x2(self):
        ones = SparseIntMat(2, 2, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
        assert rank_of(ones, GF1) == 1

    def test_zero_matrix(self):
        assert rank_of(SparseIntMat(4, 3, ()), GF1) == 0
        assert rank_of(SparseIntMat(0, 0, ()), QQ) == 0

    def test_200_random_matrices_match_bareiss(self):
        rng = random.Random(65521)
        for _ in range(200):
            m = _random_sparse(rng, 40, 60, 120)
            r_q = bareiss_rank(m)
            assert rank_of(m, QQ) == r_q
            assert rank_of(m, GF1) == r_q
            assert rank_of(m, GF2) == r_q


def _core(m, p):
    """Every live entry of ``m`` as :func:`_reduce`'s rows and column lists."""
    rows = [dict() for _ in range(m.rows)]
    col_rows = {}
    for r, c, v in m.entries:
        v = v % p if p else Fraction(v)
        if v:
            rows[r][c] = v
            col_rows.setdefault(c, []).append(r)
    return rows, col_rows


def _unpeeled(m, p, max_nnz=None):
    """:func:`_reduce` on every live entry of ``m``, with no peel in front."""
    return _reduce(*_core(m, p), p, max_nnz)


def _mod(result, p):
    """(pivots, pivot rows, peak) with the pivot rows' entries as GF(p)
    elements, so symmetric and standard residues compare equal."""
    pivots, piv_rows, peak = result
    return pivots, [{k: v % p for k, v in row.items()} for row in piv_rows], peak


def _is_kernel(m, ns, f):
    """M . x vanishes over f for every column x of ``ns``, in Python ints:
    rational kernel vectors of the random cases below can outgrow the
    64-bit entries of a ``SparseIntMat``."""
    products = (mat_vec(m, x).values() for x in ns.columns)
    if f.p:
        return not any(v % f.p for mx in products for v in mx)
    return not any(products)


def _peel_case(rng, p):
    """A random matrix built to reach every branch of the structural peel:
    a random part (rank-deficient when it is a product of thin factors),
    duplicated rows, entries that are nonzero multiples of ``p`` (dead over
    GF(p), live over Q), empty rows and columns, and a staircase whose
    singletons peel one after the other."""
    rows, cols = rng.randint(0, 30), rng.randint(0, 30)
    cells: dict[tuple[int, int], int] = {}
    if rows and cols:
        if rng.random() < 0.5:
            k = rng.randint(1, 4)
            left = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(k)] for _ in range(rows)]
            right = [[rng.choice((0, 0, 1, -2, 3)) for _ in range(cols)] for _ in range(k)]
            for r in range(rows):
                for c in range(cols):
                    cells[r, c] = sum(left[r][t] * right[t][c] for t in range(k))
        else:
            for _ in range(rng.randint(0, rows * cols // 3 + 1)):
                cells[rng.randrange(rows), rng.randrange(cols)] = rng.randint(-4, 4)
        for _ in range(rng.randint(0, 3)):
            src, dst = rng.randrange(rows), rng.randrange(rows)
            for c in range(cols):
                cells[dst, c] = cells.get((src, c), 0)
        for _ in range(rng.randint(0, 4)):
            cells[rng.randrange(rows), rng.randrange(cols)] = p * rng.choice((-2, -1, 1, 3))
    # a staircase: row i holds columns i and i + 1, so its first column and,
    # transposed, its last row are singletons, and each peel frees the next
    length = rng.randint(0, 12)
    transposed = rng.random() < 0.5
    for i in range(length):
        for j in (i, i + 1):
            r, c = (rows + j, cols + i) if transposed else (rows + i, cols + j)
            cells[r, c] = rng.choice((-1, 1, 2, p))
    rows += (length + 1 if transposed else length) + rng.randint(0, 2)
    cols += (length if transposed else length + 1) + rng.randint(0, 2)
    entries = [(r, c, v) for (r, c), v in cells.items() if v]
    rng.shuffle(entries)
    return SparseIntMat(rows, cols, entries)


class TestPeel:
    """The peel plus the elimination of its core counts the pivots of the
    plain elimination of the whole matrix, and kernels back-solved through
    both sets of pivots are kernels of that dimension."""

    @pytest.mark.parametrize("f", [GF1, GF2, QQ], ids=["65521", "65519", "rational"])
    def test_rank_matches_unpeeled_elimination(self, f):
        rng = random.Random(2016)
        p = f.p or DEFAULT_PRIMES[0]
        peeled_total = core_rows = peeled_kernels = 0
        for _ in range(300):
            m = _peel_case(rng, p)
            want = len(_unpeeled(m, f.p)[0])
            assert rank_of(m, f) == want
            peel_rows, peel_cols, rows, col_rows = _peel(m, f.p)
            assert peel_rows.typecode == peel_cols.typecode == "q"
            # distinct rows and columns, each pivot a live entry out of the core
            assert len(set(peel_rows)) == len(set(peel_cols)) == len(peel_rows) <= want
            cells = {(r, c): v for r, c, v in m.entries}
            for r, c in zip(peel_rows, peel_cols):
                assert cells[r, c] % p if f.p else cells[r, c]
                assert c not in col_rows
            ns = nullspace_of(m, f)
            assert ns.dim == m.cols - want
            assert _is_kernel(m, ns, f)
            peeled_total += len(peel_rows)
            core_rows += len(rows)
            peeled_kernels += bool(peel_rows and ns.dim)
        assert peeled_total and core_rows and peeled_kernels

    def test_kernel_beyond_64_bits_is_a_value_error(self):
        # the first matrix of this corpus has a rational kernel whose
        # cleared entries pass 2^63
        m = _peel_case(random.Random(7), DEFAULT_PRIMES[0])
        ns = nullspace_of(m, QQ)
        assert _is_kernel(m, ns, QQ)
        assert max(abs(v) for col in ns.columns for v in col.values()) >= 1 << 63
        with pytest.raises(ValueError, match="64-bit"):
            ns.to_mat()

    def test_kernels_of_boundaries_n3_to_n5(self, bases_by_rank, store):
        # d_C and d_C stacked over d_R at every level, the matrices whose
        # kernels cycle work reads
        for n in (3, 4, 5):
            bases = bases_by_rank[n]
            for p, basis in enumerate(bases):
                if basis.dim == 0:
                    continue
                dc = boundary_contract(basis, store)
                mats = [dc]
                if p >= 1:
                    mats.append(vstack(dc, boundary_remove(basis, bases[p - 1], store)))
                for m in mats:
                    for f in (GF1, GF2, QQ):
                        ns = nullspace_of(m, f)
                        assert ns.dim == m.cols - rank_of(m, f)
                        assert check_product_zero(m, ns, f)

    def test_multiples_of_p_are_dead(self):
        p = DEFAULT_PRIMES[0]
        m = SparseIntMat(2, 2, ((0, 0, p), (0, 1, 1), (1, 0, 1), (1, 1, -p)))
        assert rank_of(m, GF1) == 2 and len(_peel(m, GF1.p)[0]) == 2
        assert rank_of(m, QQ) == 2 and len(_peel(m, None)[0]) == 0

    def test_singleton_chain_peels_whole(self):
        # an upper bidiagonal 40 x 41, where one column singleton frees the
        # next, and its transpose, where row singletons do
        chain = [(i, j, 1) for i in range(40) for j in (i, i + 1)]
        transposed = [(j, i, v) for i, j, v in chain]
        for m in (SparseIntMat(40, 41, chain), SparseIntMat(41, 40, transposed)):
            for f in (GF1, QQ):
                peel_rows, _, rows, col_rows = _peel(m, f.p)
                assert (len(peel_rows), rows, col_rows) == (40, [], {})
                assert rank_of(m, f) == 40

    def test_input_cap_counts_live_entries_of_the_whole(self):
        p = DEFAULT_PRIMES[0]
        m = SparseIntMat(3, 3, ((0, 0, 1), (1, 1, 1), (2, 2, p)))
        assert rank_of(m, GF1, max_nnz=2) == 2
        with pytest.raises(ResourceCapError, match="input nnz 3 exceeded cap 2"):
            rank_of(m, QQ, max_nnz=2)


class TestNullspace:
    def test_zero_matrix_identity_like(self):
        ns = nullspace_of(SparseIntMat(5, 4, ()), GF1)
        assert ns.dim == 4
        assert sorted(tuple(col.items()) for col in ns.columns) == [
            ((c, 1),) for c in range(4)
        ]

    def test_all_ones_2x2_kernel(self):
        ones = SparseIntMat(2, 2, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
        ns = nullspace_of(ones, GF1)
        assert ns.dim == 1
        (col,) = ns.columns
        p = DEFAULT_PRIMES[0]
        assert (col.get(0, 0) + col.get(1, 0)) % p == 0 and col

    def test_random_nullspaces_verify(self):
        rng = random.Random(99)
        for _ in range(50):
            m = _random_sparse(rng, 20, 30, 70)
            ns = nullspace_of(m, GF1)
            assert ns.dim == 30 - rank_of(m, GF1)
            assert check_product_zero(m, ns, GF1)

    def test_rational_nullspace_exact_integers(self):
        rng = random.Random(5)
        for _ in range(20):
            m = _random_sparse(rng, 8, 12, 30)
            ns = nullspace_of(m, QQ)
            assert ns.dim == 12 - bareiss_rank(m)
            assert check_product_zero(m, ns, QQ)
            assert all(type(v) is int for col in ns.columns for v in col.values())
            # same span as the dense reference kernel
            both = list(ns.columns) + bareiss_nullspace(m)
            stacked = SparseIntMat(
                len(both),
                12,
                tuple((i, c, v) for i, col in enumerate(both) for c, v in col.items()),
            )
            assert bareiss_rank(stacked) == ns.dim

    def test_assembled_contraction_boundaries_n4(self, bases_by_rank, store):
        # M.N = 0 entrywise and nullity matches the dense rational oracle
        for p in range(1, 6):
            basis = bases_by_rank[4][p]
            if basis.dim == 0:
                continue
            dc = boundary_contract(basis, store)
            ns = nullspace_of(dc, GF1)
            assert check_product_zero(dc, ns, GF1)
            r_q = bareiss_rank(dc)
            assert ns.dim == dc.cols - r_q
            assert rank_of(dc, QQ) == r_q

    def test_blockwise_additivity(self, bases_by_rank, store):
        for p in range(1, 6):
            basis = bases_by_rank[4][p]
            if basis.dim == 0:
                continue
            dc = boundary_contract(basis, store)
            blocks = [basis.blocks[k] for k in sorted(basis.blocks)]
            ns_blocks = nullspace_blockwise(dc, blocks, GF1)
            ns_whole = nullspace_of(dc, GF1)
            assert ns_blocks.dim == ns_whole.dim
            assert check_product_zero(dc, ns_blocks, GF1)


def _random_block_diagonal(rng, blocks=6, empty=3):
    """A block-diagonal matrix with its rows and columns shuffled and a few
    empty columns."""
    cells = []
    rows = cols = 0
    for _ in range(blocks):
        h, w = rng.randint(1, 5), rng.randint(1, 5)
        for _ in range(rng.randint(1, 2 * h * w)):
            cells.append((rows + rng.randrange(h), cols + rng.randrange(w)))
        rows += h
        cols += w
    cols += empty
    row_perm = list(range(rows))
    col_perm = list(range(cols))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    entries = {(row_perm[r], col_perm[c]): rng.choice((-2, -1, 1, 2)) for r, c in cells}
    m = SparseIntMat(rows, cols, tuple(sorted((r, c, v) for (r, c), v in entries.items())))
    return m


def _reference_components(m):
    """Connected components of the row/column graph by breadth-first search."""
    col_rows = {c: set() for c in range(m.cols)}
    row_cols = {}
    for r, c, _ in m.entries:
        col_rows[c].add(r)
        row_cols.setdefault(r, set()).add(c)
    seen = set()
    out = []
    for start in range(m.cols):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            c = queue.pop()
            for r in col_rows[c]:
                for other in row_cols[r]:
                    if other not in comp:
                        comp.add(other)
                        queue.append(other)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return out


class TestComponents:
    """``ChainBasis.blocks`` and ``nullspace_blockwise`` are off the rank
    pipeline but read by the benchmark replay; they are checked against the
    breadth-first components of the matrix."""

    def test_same_partition_as_contracted_graph_blocks(self, bases_by_rank, store):
        for n in (2, 3, 4, 5):
            for basis in bases_by_rank[n]:
                dc = boundary_contract(basis, store)
                assert sorted(_reference_components(dc)) == sorted(basis.blocks.values())

    def test_blockwise_kernel_matches_whole(self):
        rng = random.Random(23)
        for _ in range(50):
            m = _random_block_diagonal(rng)
            for f in (GF1, QQ):
                ns = nullspace_blockwise(m, _reference_components(m), f)
                assert ns.dim == nullspace_of(m, f).dim
                assert check_product_zero(m, ns, f)


class TestComposite:
    def test_product_rank_matches_direct_application(self, bases_by_rank, store):
        from outhom.chain import boundary_remove

        p_prime = DEFAULT_PRIMES[0]
        for n in (3, 4):
            for p in range(1, 2 * n - 2):
                basis = bases_by_rank[n][p]
                if basis.dim == 0:
                    continue
                dc = boundary_contract(basis, store)
                dr = boundary_remove(basis, bases_by_rank[n][p - 1], store)
                ns = nullspace_of(dc, GF1)
                composite = matmul(dr, ns.to_mat())
                direct = [mat_vec(dr, col) for col in ns.columns]
                assert rank_of(composite, GF1) == rank_of_vectors(direct, p_prime)

    def test_cross_prime_rank_agreement_n_le_4(self, bases_by_rank, store):
        from outhom.chain import boundary_remove

        for n in (2, 3, 4):
            for p in range(2 * n - 2):
                basis = bases_by_rank[n][p]
                if basis.dim == 0:
                    continue
                dc = boundary_contract(basis, store)
                assert rank_of(dc, GF1) == rank_of(dc, GF2)
                if p >= 1:
                    dr = boundary_remove(basis, bases_by_rank[n][p - 1], store)
                    assert rank_of(dr, GF1) == rank_of(dr, GF2)


class TestGuards:
    def test_input_nnz_cap(self):
        # no fill at all: the input alone is over the cap
        ident = SparseIntMat(3, 3, ((0, 0, 1), (1, 1, 1), (2, 2, 1)))
        for f in (GF1, QQ):
            with pytest.raises(ResourceCapError, match="input nnz 3 exceeded cap 2"):
                rank_of(ident, f, max_nnz=2)
            assert rank_of(ident, f, max_nnz=3) == 3

    def test_elimination_fill_cap(self):
        rng = random.Random(1)
        m = _random_sparse(rng, 60, 60, 900)
        from outhom.enumerator import ResourceCapError

        with pytest.raises(ResourceCapError):
            nullspace_of(m, GF1, max_nnz=10)

    def test_rank_cap_counts_live_rows_only(self):
        # nothing peels off this matrix.  A rank merges row 0's two entries
        # into one column, then releases each pivot row when its step ends:
        # its live rows never hold more than 31 entries over GF(3), so a cap
        # of 31 passes.  Without the merge they would reach 33, and a kernel
        # keeps its pivot rows and counts 34.
        gf3 = FieldSpec.prime(3)
        m = SparseIntMat(8, 13, (
            (0, 1, 1), (0, 4, -1), (1, 5, 1), (1, 6, -1), (1, 11, -1), (2, 0, 1),
            (2, 1, 1), (2, 2, 1), (2, 7, 1), (2, 10, -1), (3, 1, 1), (3, 2, -1),
            (3, 6, 1), (3, 12, -1), (4, 1, 1), (4, 6, -1), (4, 12, -1), (5, 0, 1),
            (5, 3, 1), (5, 5, -1), (5, 8, -1), (5, 11, 1), (6, 4, 1), (6, 7, -1),
            (6, 8, -1), (6, 10, 1), (6, 11, 1), (7, 3, 1), (7, 6, 1), (7, 8, 1),
        ))
        assert not _peel(m, 3)[0]
        assert _reference_eliminate(m, 3, drop_repeats=True, merge=True)[2] == 31
        assert _reference_eliminate(m, 3, drop_repeats=True)[2] == 33
        assert _reference_eliminate(m, 3)[2] == 34
        assert rank_of(m, gf3, max_nnz=31) == bareiss_rank(m) == 8
        with pytest.raises(ResourceCapError, match="elimination fill 31 exceeded cap 30"):
            rank_of(m, gf3, max_nnz=30)


def _reference_drop(rows, taken, col_rows, p):
    """Drops, in ascending row order, each live row whose entries are those
    of the first live row of its support times one scalar; returns the
    number of rows and of entries dropped."""
    first = {}
    dropped = entries = 0
    for r, row in enumerate(rows):
        if r in taken or not row:
            continue
        other = rows[first.setdefault(frozenset(row), r)]
        if other is row:
            continue
        k = min(row)
        scale = row[k] * pow(other[k], p - 2, p) % p
        if all(v == scale * other[c] % p for c, v in row.items()):
            for c in row:
                col_rows[c].discard(r)
            taken.add(r)
            dropped += 1
            entries += len(row)
    return dropped, entries


def _reference_merge(rows, p, events=None):
    """The specification of :func:`_merge` on dict rows, with GF(p) entries
    as standard residues or, when p is None, rationals: returns the rows it
    took and the live roots, and leaves the image of every other row in
    ``rows`` (a taken or dependent row as an empty dict).

    A plain union-find: ``parent[c]`` is ``(parent, factor)`` with
    e_c = factor * e_parent modulo the taken rows, found by walking the
    whole path every time.  ``events`` counts the cases: ``merge`` and
    ``kill`` (an image of two entries or one), ``dependent`` (none),
    ``late`` (a row taken after the first pass), ``dead`` (an entry on a
    dead root), ``balanced`` and ``unbalanced`` (a row whose entries
    collide on one root and whose image is then empty or one entry long:
    the closing row of a cycle whose factors multiply to 1 or not).
    """
    def norm(v):
        return v % p if p else v

    parent = {c: (c, 1) for row in rows for c in row}
    weight = dict.fromkeys(parent, 1)
    dead = set()
    taken = passes = 0
    again = True
    while again:
        again = False
        passes += 1
        for i, row in enumerate(rows):
            if not row:
                continue
            image = {}
            collided = False
            for c, v in row.items():
                f = 1
                while parent[c][0] != c:
                    c, g = parent[c]
                    f = norm(f * g)
                if c in dead:
                    if events is not None:
                        events["dead"] += 1
                    continue
                collided |= c in image
                image[c] = norm(image.get(c, 0) + v * f)
            image = {c: v for c, v in image.items() if v}
            if len(image) > 2:
                rows[i] = image
                continue
            rows[i] = {}
            if events is not None:
                events[("dependent", "kill", "merge")[len(image)]] += 1
                if collided and len(image) < 2:
                    events[("balanced", "unbalanced")[len(image)]] += 1
                events["late"] += bool(image) and passes > 1
            if not image:
                continue
            if len(image) == 1:
                dead.update(image)
            else:
                # the root of larger weight stays a root; ties: the smaller column
                (r1, a1), (r2, a2) = sorted(image.items(), key=lambda e: (-weight[e[0]], e[0]))
                parent[r2] = (r1, norm(-a1 * pow(a2, p - 2, p)) if p else -a1 / a2)
                weight[r1] += weight[r2]
            taken += 1
            again = True
    live = {c for c, (up, _) in parent.items() if up == c and c not in dead}
    return taken, live


def _reference_eliminate(m, p, max_nnz=None, events=None, drop_repeats=False, merge=False):
    """Elimination that scans every active column for the pivot column.

    The specification of :func:`_reduce` on a whole matrix: the pivot column is
    ``min((count, column))`` over active columns, the pivot row
    ``min((length, row))`` within it, and the other rows of the pivot column
    are reduced in ascending row order, so the fill cap trips at the same
    row.  ``events`` counts fill, cancellation, and refill (fill where the
    row cancelled the column before, which leaves a stale entry in
    :func:`_reduce`'s column list), so a test can show it exercised each.

    With ``drop_repeats``, the specification of the rank-only path: before
    the pivot step at which the active columns are at most half of what
    they were at the last drop (the whole matrix's, for the first),
    :func:`_reference_drop` drops repeated rows (``events["drop"]`` counts
    them), and a pivot row's entries leave the count when its step ends.
    With ``merge`` as well, :func:`_reference_merge` first takes the rows
    that reach two entries or fewer, and the elimination starts from the
    images of the rest, as ``rank_of`` runs it on a matrix that nothing
    peels off; the pivots returned are then the elimination's only.
    """
    cancelled = set()
    rows = [dict() for _ in range(m.rows)]
    for r, c, v in m.entries:
        v %= p
        if v:
            rows[r][c] = v
    if merge:
        _reference_merge(rows, p)
    col_rows = {}
    for r, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    nnz = peak = sum(len(rw) for rw in rows)
    pivots, piv_rows = [], []
    # pivot rows and dropped rows
    taken = set()
    drop_at = len(col_rows) // 2 if drop_repeats else -1
    while col_rows:
        if len(col_rows) <= drop_at:
            dropped, entries = _reference_drop(rows, taken, col_rows, p)
            nnz -= entries
            drop_at = len(col_rows) // 2
            if events is not None:
                events["drop"] += dropped
        c_star = min(col_rows, key=lambda c: (len(col_rows[c]), c))
        r_star = min(col_rows[c_star], key=lambda r: (len(rows[r]), r))
        taken.add(r_star)
        piv = rows[r_star]
        inv = pow(piv[c_star], p - 2, p)
        for k in list(piv):
            piv[k] = piv[k] * inv % p
        for k in piv:
            group = col_rows.get(k)
            if group is not None:
                group.discard(r_star)
                if not group:
                    del col_rows[k]
        for r in sorted(col_rows.pop(c_star, set())):
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
                        if events is not None:
                            events["fill"] += 1
                            events["refill"] += (r, k) in cancelled
                    row[k] = nv
                elif k in row:
                    del row[k]
                    group = col_rows.get(k)
                    if group is not None:
                        group.discard(r)
                        if not group:
                            del col_rows[k]
                    nnz -= 1
                    cancelled.add((r, k))
                    if events is not None:
                        events["cancel"] += 1
            if nnz > peak:
                peak = nnz
                if max_nnz is not None and peak > max_nnz:
                    raise ResourceCapError(
                        f"elimination fill {peak} exceeded cap {max_nnz}"
                    )
        pivots.append((r_star, c_star))
        piv_rows.append(piv)
        if drop_repeats:
            # the rank path releases the pivot row when its step ends
            nnz -= len(piv)
    return pivots, piv_rows, peak


def _reference_backsolve(cols, pivots, piv_rows, p):
    """Back-substitution that re-sorts its pending pivots on every step."""
    pivot_cols = {c for _, c in pivots}
    mentions = {}
    for i, row in enumerate(piv_rows):
        for c in row:
            if c != pivots[i][1]:
                mentions.setdefault(c, []).append(i)
    columns = []
    for f in (c for c in range(cols) if c not in pivot_cols):
        x = {f: 1}
        pending = sorted(set(mentions.get(f, ())), reverse=True)
        seen = set(pending)
        while pending:
            i = pending.pop(0)
            c_i = pivots[i][1]
            s = sum(v * x.get(k, 0) for k, v in piv_rows[i].items() if k != c_i) % p
            if s:
                x[c_i] = (-s) % p
                for j in mentions.get(c_i, ()):
                    if j < i and j not in seen:
                        seen.add(j)
                        pending.append(j)
                pending.sort(reverse=True)
        columns.append(x)
    return columns


class TestEliminationOrder:
    """The heap-kept pivot selection and the heap-ordered back-substitution
    reproduce the plain scans exactly, over primes small enough that fill
    and cancellation both happen."""

    @staticmethod
    def _samples():
        rng = random.Random(2016)
        for _ in range(150):
            rows, cols = rng.randint(1, 30), rng.randint(1, 30)
            fill = rng.randint(1, rows * cols // 2 + 1)
            yield rng.choice((3, 5, 7)), _random_sparse(rng, rows, cols, fill, -3, 3)

    def test_same_pivots_rows_and_peak(self):
        events = {"fill": 0, "cancel": 0, "refill": 0}
        for p, m in self._samples():
            assert _mod(_unpeeled(m, p), p) == _reference_eliminate(m, p, events=events)
        assert events["fill"] > 0 and events["cancel"] > 0 and events["refill"] > 0

    def test_stale_column_entry(self):
        # pivot row 0 cancels row 4's entry in column 2, and pivot row 1
        # fills it back in: column 2's list then names row 4 twice, and row
        # 4 must be reduced once when column 2 is the pivot column
        m = SparseIntMat(5, 4, (
            (0, 0, -1), (0, 2, 1), (0, 3, -1), (1, 1, 1), (1, 2, 1),
            (2, 3, -1), (3, 2, -1), (4, 0, -1), (4, 1, 1), (4, 2, 1),
        ))
        for p in (3, 5, 65521):
            events = {"fill": 0, "cancel": 0, "refill": 0}
            assert _mod(_unpeeled(m, p), p) == _reference_eliminate(m, p, events=events)
            assert events["refill"] == 1
        assert len(_unpeeled(m, None)[0]) == bareiss_rank(m) == 4

    def test_rank_keeps_no_pivot_rows(self):
        # without pivot rows, no row of the core holds an entry afterwards:
        # each pivot row is released when it is taken; the pivots and the
        # peak are those of the plain scan that drops repeated rows
        events = {"fill": 0, "cancel": 0, "refill": 0, "drop": 0}
        for p, m in self._samples():
            rows, col_rows = _core(m, p)
            pivots, piv_rows, peak = _reduce(rows, col_rows, p, pivot_rows=False)
            assert piv_rows is None and not any(rows)
            want = _reference_eliminate(m, p, events=events, drop_repeats=True)
            assert (pivots, peak) == want[::2]
        assert events["drop"] > 0

    def test_same_fill_cap(self):
        capped = 0
        for p, m in self._samples():
            _, _, peak = _reference_eliminate(m, p)
            start = sum(1 for _, _, v in m.entries if v % p)
            if peak == start:
                continue
            capped += 1
            for cap in (peak - 1, (start + peak) // 2):
                with pytest.raises(ResourceCapError) as got:
                    _unpeeled(m, p, cap)
                with pytest.raises(ResourceCapError) as want:
                    _reference_eliminate(m, p, cap)
                assert str(got.value) == str(want.value)
            assert _unpeeled(m, p, peak)[2] == peak
        assert capped > 0

    def test_same_kernels(self):
        for p, m in self._samples():
            pivots, piv_rows, _ = _unpeeled(m, p)
            got = _backsolve(m.cols, pivots, piv_rows, p)
            assert list(got.columns) == _reference_backsolve(m.cols, pivots, piv_rows, p)

    def test_same_kernels_through_the_peel(self):
        # the pivots nullspace_of hands to _backsolve: the peel's, whose rows
        # are whole rows of m and can mention earlier pivot columns, then
        # the core's
        peeled = 0
        for p, m in self._samples():
            got = nullspace_of(m, FieldSpec.prime(p))
            peel_rows, peel_cols, rows, col_rows = _peel(m, p)
            pivots, piv_rows, _ = _reduce(rows, col_rows, p)
            peel = list(zip(peel_rows, peel_cols))
            whole = [_pivot_row(m, r, c, p) for r, c in peel]
            want = _reference_backsolve(m.cols, peel + pivots, whole + piv_rows, p)
            assert list(got.columns) == want
            assert check_product_zero(m, got, FieldSpec.prime(p))
            peeled += bool(peel and got.dim)
        assert peeled


GF3 = FieldSpec.prime(3)


def _symmetric(v, p):
    """An entry as :func:`_reduce` holds it: a symmetric residue mod p, or a
    ``Fraction`` when p is None."""
    if p is None:
        return Fraction(v)
    v %= p
    return v - p if v > p // 2 else v


def _column_counts(rows):
    """Live rows per column, counted afresh."""
    return dict(Counter(c for row in rows for c in row))


def _from_rows(rows, cols):
    return SparseIntMat(
        len(rows), cols, tuple((r, c, v) for r, row in enumerate(rows) for c, v in row.items())
    )


def _tall_with_repeats(rng):
    """60 rows over 20 columns, as dicts: 8 to 25 random sparse rows (so the
    rank is sometimes below 20), then multiples of them by -1, 2 or -2,
    shuffled."""
    base = []
    for _ in range(rng.randint(8, 25)):
        support = rng.sample(range(20), rng.randint(2, 5))
        base.append({c: rng.choice((-3, -2, -1, 1, 2, 4)) for c in support})
    rows = list(base)
    while len(rows) < 60:
        scale = rng.choice((-1, 2, -2))
        rows.append({c: scale * v for c, v in rng.choice(base).items()})
    rng.shuffle(rows)
    return rows


class TestDropRepeats:
    """``rank_of`` drops rows that repeat an earlier live row of the same
    support up to a scalar; a rank never changes by it."""

    FIELDS = pytest.mark.parametrize("p", [3, DEFAULT_PRIMES[0], None], ids=["3", "65521", "rational"])

    @FIELDS
    def test_planted_multiples_are_dropped(self, p):
        q = p or DEFAULT_PRIMES[0]
        base = {0: 1, 3: 2, 5: -1}
        plain = [
            base,
            {0: 1, 3: 2, 5: 1},  # same support, not a multiple
            {c: -v for c, v in base.items()},
            {0: 1, 3: 2},  # a multiple of base on part of its support
            {c: 2 * v for c, v in base.items()},
            {c: (q - 2) * v for c, v in base.items()},
            {0: 1, 3: 2, 5: -1, 6: 1},
        ]
        rows = [{c: _symmetric(v, p) for c, v in row.items()} for row in plain]
        counts = _column_counts(rows)
        gone = {}
        assert _drop_repeats(rows, counts, gone, p) == 9
        assert [i for i, row in enumerate(rows) if row is gone] == [2, 4, 5]
        assert counts == _column_counts(rows) == {0: 4, 3: 4, 5: 3, 6: 1}

    @FIELDS
    def test_repeats_found_when_supports_share_a_hash(self, p):
        # two supports of the dc_11 core at n = 7 whose frozensets hash
        # alike; each row must still meet the first row of its own support
        s, t = (71618, 71622), (177721, 177725)
        assert hash(frozenset(s)) == hash(frozenset(t)), "CPython's frozenset hash"
        plain = [dict(zip(s, (1, 2))), dict(zip(t, (1, 2))), dict(zip(t, (2, 4))), dict(zip(s, (-1, -2)))]
        rows = [{c: _symmetric(v, p) for c, v in row.items()} for row in plain]
        counts = {c: 2 for c in s + t}
        gone = {}
        assert _drop_repeats(rows, counts, gone, p) == 4
        assert [row is gone for row in rows] == [False, False, True, True]
        assert counts == {c: 1 for c in s + t}

    @FIELDS
    def test_counts_match_a_recount(self, p):
        rng = random.Random(1990)
        dropped = 0
        for _ in range(50):
            rows = [
                {c: w for c, v in row.items() if (w := _symmetric(v, p))}
                for row in _tall_with_repeats(rng)
            ]
            counts = _column_counts(rows)
            before = sum(len(row) for row in rows)
            gone = {}
            entries = _drop_repeats(rows, counts, gone, p)
            assert sum(len(row) for row in rows) == before - entries
            assert counts == _column_counts(rows)
            dropped += entries
        assert dropped

    def test_rank_matches_bareiss_with_planted_repeats(self, monkeypatch):
        dropped = []

        def counted(*args):
            dropped.append(_drop_repeats(*args))
            return dropped[-1]

        monkeypatch.setattr("outhom.exactla._drop_repeats", counted)
        rng = random.Random(2016)
        deficient = 0
        for _ in range(200):
            m = _from_rows(_tall_with_repeats(rng), 20)
            want = bareiss_rank(m)
            assert rank_of(m, GF1) == want
            assert rank_of(m, QQ) == want
            assert rank_of(m, GF3) == len(_reference_eliminate(m, 3)[0])
            deficient += want < m.cols
        assert deficient and sum(dropped) > 0

    @FIELDS
    def test_rank_peak_below_kernel_peak(self, p):
        # six unit rows take columns 0..5 with no fill, so the pass runs
        # with 6 of 12 columns active; it drops the two multiples of each
        # of rows B, C and D.  Column 6 then pivots on A, which fills each
        # copy of B kept by one entry
        a = {6: 1, 7: 1, 8: 1}
        b = {6: 1, 9: 2, 10: -1}
        c = {7: 1, 9: 1, 11: 2}
        d = {8: -1, 10: 1, 11: 1}
        plain = [{i: 1} for i in range(6)] + [a]
        for row in (b, c, d):
            plain += [{k: s * v for k, v in row.items()} for s in (1, 2, -1)]
        m = _from_rows(plain, 12)
        start = m.nnz
        rank_pivots, _, rank_peak = _reduce(*_core(m, p), p, pivot_rows=False)
        kernel_pivots, _, kernel_peak = _reduce(*_core(m, p), p)
        assert rank_peak == start < start + 3 <= kernel_peak
        assert len(rank_pivots) == len(kernel_pivots) == bareiss_rank(m)


def _merge_case(rng, q):
    """A random matrix whose peeled core the merge acts on.  Filler rows of
    three to five entries keep most columns from peeling, beside:

    - a chain of two-entry rows over the columns in a random order;
    - rows that close a triangle of that chain: a combination of two
      neighbouring chain rows (a balanced cycle), or the same with one
      coefficient moved by 1 (unbalanced) or by ``q`` (balanced over GF(q)
      only); an unbalanced cycle kills its root, and later rows meet it dead;
    - three-entry rows over two neighbouring chain columns, which reach two
      entries only once the chain row between them is merged;
    - entries that are, or are near, multiples of ``q``.

    The rows are shuffled, so a row can come before the merges it needs."""
    cols = rng.randint(4, 16)
    near = (1, -1, 2, -3, q - 1, q + 1, (q + 1) // 2, 2 * q + 1, q)
    order = rng.sample(range(cols), cols)
    chain = [{a: rng.choice(near), b: rng.choice(near)} for a, b in zip(order, order[1:])]
    del chain[rng.randint(1, len(chain)):]
    rows = list(chain)
    for _ in range(rng.randint(0, 3) if len(chain) > 1 else 0):
        i = rng.randrange(len(chain) - 1)
        a, b, c = order[i : i + 3]
        u, v = chain[i][a], chain[i][b]
        w, z = chain[i + 1][b], chain[i + 1][c]
        # w * (u e_a + v e_b) - v * (w e_b + z e_c)
        rows.append({a: w * u + rng.choice((0, 0, 1, q)), c: -v * z})
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(chain))
        extra = rng.randrange(cols)
        rows.append({extra: rng.choice(near), order[i]: rng.choice(near), order[i + 1]: rng.choice(near)})
    for _ in range(rng.randint(cols // 2, cols)):
        rows.append({c: rng.choice(near) for c in rng.sample(range(cols), rng.randint(3, min(5, cols)))})
    rng.shuffle(rows)
    return _from_rows([{c: v for c, v in row.items() if v} for row in rows], cols)


def _rows_of(m):
    rows = [dict() for _ in range(m.rows)]
    for r, c, v in m.entries:
        rows[r][c] = v
    return rows


class TestMerge:
    """``rank_of`` takes the rows that reach one or two entries in a
    union-find over the core's columns (:func:`_merge`) before the
    elimination.  Its ranks are checked against references that share no
    code with it: over Q the fraction-free Bareiss rank, over GF(p) a dense
    row reduction mod p (Bareiss over Q would miss the entries that are
    multiples of p)."""

    FIELDS = TestDropRepeats.FIELDS

    @FIELDS
    def test_rank_matches_references(self, p):
        rng = random.Random(1990)
        q = p or DEFAULT_PRIMES[0]
        events = Counter()
        for _ in range(150):
            m = _merge_case(rng, q)
            want = rank_of_vectors(_rows_of(m), p) if p else bareiss_rank(m)
            assert rank_of(m, FieldSpec(p)) == want
            _reference_merge(_peel(m, p)[2], p, events)
        # chains, both kinds of cycle, dead roots and late merges all occur
        for case in ("merge", "kill", "dependent", "late", "dead", "balanced", "unbalanced"):
            assert events[case], case

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([DEFAULT_PRIMES[0], 3, None]))
    def test_rows_handed_on_are_long_and_on_live_roots(self, rng, p):
        m = _merge_case(rng, p or DEFAULT_PRIMES[0])
        _, _, rows, col_rows = _peel(m, p)
        images = [dict(row) for row in rows]
        taken, live = _reference_merge(images, p)
        assert _merge(rows, col_rows, p) == taken
        assert all(len(row) >= 3 and row.keys() <= live for row in rows)
        if p:
            assert all(-(p // 2) <= v <= p // 2 for row in rows for v in row.values())
            images = [{c: v % p for c, v in image.items()} for image in images]
            assert [{c: v % p for c, v in row.items()} for row in rows] == [x for x in images if x]
        else:
            assert rows == [x for x in images if x]
        # _reduce's input form: ascending row lists, one key object a column
        want = {}
        for i, row in enumerate(rows):
            for c in row:
                want.setdefault(c, []).append(i)
        assert col_rows == want
        assert all(c is next(k for k in col_rows if k == c) for row in rows for c in row)

    @FIELDS
    def test_chain_and_cycles_by_hand(self, p):
        # e0 - e1 and e1 + 2 e2 put e1 and e2 under e0; e0 + 2 e2 closes a
        # balanced triangle (row 0 + row 1) and is dependent, e0 + e2 an
        # unbalanced one, which kills the root of e0, e1 and e2.  The last
        # row keeps only e3..e5.
        plain = [{0: 1, 1: -1}, {1: 1, 2: 2}, {0: 1, 2: 2}, {0: 1, 2: 1},
                 {0: 1, 3: 1, 4: 1, 5: 1}]
        rows = [{c: _symmetric(v, p) for c, v in row.items()} for row in plain]
        col_rows = {c: [i for i, row in enumerate(rows) if c in row] for c in range(6)}
        assert _merge(rows, col_rows, p) == 3
        assert [{c: v % p if p else v for c, v in row.items()} for row in rows] == [{3: 1, 4: 1, 5: 1}]
        assert col_rows == {3: [0], 4: [0], 5: [0]}
        m = _from_rows(plain, 6)
        assert rank_of(m, FieldSpec(p)) == bareiss_rank(m) == 4
