from __future__ import annotations

import itertools
import random

import pytest

from outhom.artifacts import label_text, parse_label
from outhom.chain import (
    ChainBasis,
    ClassStore,
    InconsistencyError,
    SparseIntMat,
    assemble,
    boundary_contract,
    boundary_remove,
    build_chain_basis,
    matmul,
    vstack,
)
from outhom.enumerator import EnumSpec, enumerate_graphs
from outhom.forests import ForestIndex, block_key_of
from outhom.multigraph import canonical_labeling, contract_edges, orbit_of
from outhom.pipeline import _oracle_bases
from reference_chain import (
    assemble_keyed,
    basis_from_labels,
    contract_edges_mapped,
    normalize,
    reference_boundary,
)
from reference_enum import full_edge_generators

CONTRACT = (("contract", 1),)
REMOVE = (("remove", 1),)
FULL = (("contract", 1), ("remove", -1))


class TestSmallExamples:
    def test_theta_contraction_boundary(self, bases_by_rank, store):
        basis = bases_by_rank[2][1]
        dc, labels = assemble_keyed(basis, CONTRACT, store)
        assert (dc.rows, dc.cols) == (1, 1)
        assert dc.entries == ((0, 0, -1),)
        assert tuple(labels) == ((b"V=1 E=0-0,0-0", ()),)

    def test_theta_removal_boundary(self, bases_by_rank, store):
        dr = boundary_remove(bases_by_rank[2][1], bases_by_rank[2][0], store)
        assert dr.entries == ((0, 0, -1),)

    def test_p0_boundary_is_empty(self, bases_by_rank, store):
        basis = bases_by_rank[3][0]
        dc = boundary_contract(basis, store)
        assert (dc.rows, dc.cols) == (0, basis.dim)
        assert dc.entries == ()

    def test_k4_two_forests_all_odd_symmetric(self, k4):
        # every pair of K4 edges is swapped by an automorphism, so the
        # two-forest terms -(G,(e2)) + (G,(e1)) only ever occur before
        # normalization; no K4 column survives into the p=2 basis
        fi = ForestIndex(k4)
        reps = fi.orbit_representatives(2)
        assert reps and all(zero for _, _, zero in reps)

    def test_two_forest_removal_terms(self, bases_by_rank, store):
        # dR(G, (e1, e2)) = -(G,(e2)) + (G,(e1)), checked column by column
        for n in (3, 4):
            basis2 = bases_by_rank[n][2]
            basis1 = bases_by_rank[n][1]
            assert basis2.dim > 0
            dr = boundary_remove(basis2, basis1, store)
            col_dicts = dr.col_dicts()
            row_of = {el.key: r for r, el in enumerate(basis1.elements)}
            for j, el in enumerate(basis2.elements):
                fi = store.forest_index(store.intern(el.graph))
                e1, e2 = el.forest
                expected: dict[int, int] = {}
                for sgn, kept in ((-1, (e2,)), (1, (e1,))):
                    ref = normalize(fi, list(kept))
                    if ref.sign == 0:
                        continue
                    row = row_of[ref.key]
                    expected[row] = expected.get(row, 0) + sgn * ref.sign
                expected = {r: v for r, v in expected.items() if v}
                assert col_dicts[j] == expected


class TestComplexIdentities:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_contraction_squares_to_zero(self, n, bases_by_rank, store):
        for p in range(2, 2 * n - 2):
            basis = bases_by_rank[n][p]
            if basis.dim == 0:
                continue
            dc1, labels = assemble_keyed(basis, CONTRACT, store)
            mid = basis_from_labels(n, p - 1, labels, store)
            dc2 = boundary_contract(mid, store)
            assert matmul(dc2, dc1).entries == ()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_removal_squares_to_zero(self, n, bases_by_rank, store):
        for p in range(2, 2 * n - 2):
            dr1 = boundary_remove(bases_by_rank[n][p], bases_by_rank[n][p - 1], store)
            dr2 = boundary_remove(bases_by_rank[n][p - 1], bases_by_rank[n][p - 2], store)
            assert matmul(dr2, dr1).entries == ()

    @pytest.mark.parametrize("n", [2, 3])
    def test_boundaries_anticommute(self, n, bases_by_rank, store):
        # dC.dR = -dR.dC, which is what makes (dC - dR)^2 vanish
        for p in range(2, 2 * n - 2):
            basis = bases_by_rank[n][p]
            if basis.dim == 0:
                continue
            dr = boundary_remove(basis, bases_by_rank[n][p - 1], store)
            dc_low, path_a_rows = assemble_keyed(bases_by_rank[n][p - 1], CONTRACT, store)
            path_a = matmul(dc_low, dr)

            dc, dc_rows = assemble_keyed(basis, CONTRACT, store)
            mid = basis_from_labels(n, p - 1, dc_rows, store)
            dr_hashed, path_b_rows = assemble_keyed(mid, REMOVE, store)
            path_b = matmul(dr_hashed, dc)

            da = {(path_a_rows[r], c): v for r, c, v in path_a.entries}
            db = {(path_b_rows[r], c): v for r, c, v in path_b.entries}
            assert da == {k: -v for k, v in db.items()}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_block_diagonality(self, n, bases_by_rank, store):
        for p in range(1, 2 * n - 2):
            basis = bases_by_rank[n][p]
            if basis.dim == 0:
                continue
            dc, labels = assemble_keyed(basis, CONTRACT, store)
            for r, c, _ in dc.entries:
                key, forest = labels[r]
                el = basis.elements[c]
                row_block = block_key_of(store.get(key), forest)
                assert row_block == block_key_of(el.graph, el.forest)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_filtration_law(self, n, bases_by_rank, store):
        # every removal target lands in the basis one filtration step down;
        # boundary_remove would raise InconsistencyError otherwise
        for p in range(1, 2 * n - 2):
            boundary_remove(bases_by_rank[n][p], bases_by_rank[n][p - 1], store)

    def test_missing_target_raises(self, bases_by_rank, store):
        basis1 = bases_by_rank[2][1]
        empty = basis_from_labels(2, 0, (), store)
        with pytest.raises(InconsistencyError):
            boundary_remove(basis1, empty, store)


class TestReferenceEquivalence:
    """The kernel builds the same matrices, shape and entries, as the
    ``normalize``-based reference generator.  Each side gets its own store, so
    the kernel's forest indices for contraction targets are its own."""

    @staticmethod
    def _assert_same(got: SparseIntMat, want: tuple) -> None:
        """``got`` against the matrix of a :func:`reference_boundary` pair."""
        assert (got.rows, got.cols) == (want[0].rows, want[0].cols)
        assert got.entries == want[0].entries

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_trivalent_levels(self, n, bases_by_rank):
        bases = bases_by_rank[n]
        store, ref_store = ClassStore(), ClassStore()
        for p, basis in enumerate(bases):
            targets = (None, bases[p - 1]) if p else (None,)
            for parts, target in [(CONTRACT, None)] + [(REMOVE, t) for t in targets]:
                want = reference_boundary(basis, parts, ref_store, target)
                self._assert_same(assemble(basis, parts, store, target), want)
                if parts is CONTRACT:
                    wrapped = boundary_contract(basis, store)
                else:
                    wrapped = boundary_remove(basis, target, store)
                self._assert_same(wrapped, want)

    def test_n6_levels_where_orbits_share_searches(self):
        # from p = 2 on most contraction terms sit at positions that reuse
        # their orbit representative's search; the levels are walked on one
        # store in ascending p, as the pipeline walks them, so the p = 1
        # keys are memoized before any map is asked for
        graphs = enumerate_graphs(EnumSpec(6))
        store = ClassStore()
        bases = [build_chain_basis(6, p, graphs, store) for p in range(4)]
        for p in (1, 2, 3):
            for parts, target in ((CONTRACT, None), (REMOVE, bases[p - 1])):
                self._assert_same(
                    assemble(bases[p], parts, store, target),
                    reference_boundary(bases[p], parts, ClassStore(), target),
                )

    @pytest.mark.parametrize("n", [2, 3])
    def test_oracle_levels(self, n):
        # loop-bearing and parallel-edge graphs, into the next basis down
        bases, store = _oracle_bases(n)
        ref_store = ClassStore()
        for k in range(1, len(bases)):
            b, lower = bases[k], bases[k - 1]
            self._assert_same(
                assemble(b, FULL, store, lower),
                reference_boundary(b, FULL, ref_store, lower),
            )
            for parts in (CONTRACT, REMOVE, FULL):
                for target in (lower, None):
                    self._assert_same(
                        assemble(b, parts, ClassStore(), target),
                        reference_boundary(b, parts, ref_store, target),
                    )

    @pytest.mark.parametrize("drop", ["element", "class"])
    def test_target_without_a_key_raises_on_both(self, bases_by_rank, drop):
        # the walk onto the target must not take an element of another
        # class, or a later element of the same class, for a missing key
        basis, lower = bases_by_rank[4][2], bases_by_rank[4][1]
        keys = [el.key for el in lower.elements]
        first = keys[0][0]
        gone = {keys[len(keys) // 2]} if drop == "element" else {k for k in keys if k[0] == first}
        target = ChainBasis(4, 1, tuple(el for el in lower.elements if el.key not in gone))
        assert target.elements[0].forest == lower.elements[0].forest
        for build in (assemble, reference_boundary):
            with pytest.raises(InconsistencyError, match="missing from the p=1 basis") as info:
                build(basis, REMOVE, ClassStore(), target)
            assert any(str(key) in str(info.value) for key in gone)

    def test_missing_removal_target_raises_on_both(self, bases_by_rank):
        basis1 = bases_by_rank[2][1]
        empty = basis_from_labels(2, 0, (), ClassStore())
        for build in (assemble, reference_boundary):
            with pytest.raises(InconsistencyError):
                build(basis1, REMOVE, ClassStore(), empty)


class TestSparseIntMat:
    def test_file_round_trip(self, bases_by_rank, store):
        dc, labels = assemble_keyed(bases_by_rank[4][2], CONTRACT, store)
        again = SparseIntMat.from_lines(dc.to_lines())
        assert again.rows == dc.rows and again.cols == dc.cols
        assert sorted(again.entries) == sorted(dc.entries)
        assert again.entries == dc.entries
        # the text form of a key, which basis files hold, parses back to it
        assert len(labels) == dc.rows
        assert tuple(parse_label(label_text(k)) for k in labels) == labels

    def test_arrays_match_a_tuple_reference(self):
        """``to_lines``, ``from_lines`` and ``vstack`` on the array layout
        against the plain sorted-triples form they replace."""

        def reference_lines(rows, cols, triples):
            body = sorted(triples, key=lambda t: (t[1], t[0]))
            return [f"{rows} {cols} {len(body)}"] + [f"{r} {c} {v}" for r, c, v in body]

        rng = random.Random(11)
        for _ in range(40):
            shapes = [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(2)]
            cols = shapes[0][1]
            mats, refs = [], []
            for rows, _ in shapes:
                cells = {
                    (rng.randrange(rows), rng.randrange(cols)): rng.choice((-3, -1, 1, 2, 2**40))
                    for _ in range(rng.randint(0, rows * cols))
                }
                triples = [(r, c, v) for (r, c), v in cells.items()]
                rng.shuffle(triples)
                mat = SparseIntMat(rows, cols, triples)
                assert mat.entries == tuple(sorted(triples)) and mat.nnz == len(triples)
                lines = mat.to_lines()
                assert lines == reference_lines(rows, cols, triples)
                shuffled = lines[:1] + rng.sample(lines[1:], len(lines) - 1)
                again = SparseIntMat.from_lines(shuffled)
                assert (again.rows, again.cols, again.entries) == (rows, cols, mat.entries)
                mats.append(mat)
                refs.append(sorted(triples))
            both = vstack(*mats)
            top_rows = mats[0].rows
            assert (both.rows, both.cols) == (top_rows + mats[1].rows, cols)
            assert both.entries == tuple(refs[0] + [(r + top_rows, c, v) for r, c, v in refs[1]])

    def test_from_lines_rejects_entries_outside_the_shape(self):
        for line in ("-1 0 1", "2 0 1", "0 3 1"):
            with pytest.raises(ValueError):
                SparseIntMat.from_lines(["2 3 1", line])

    def test_from_lines_rejects_a_repeated_cell(self):
        # summed, the two (0, 0) entries would make the rank 1; kept, 2
        with pytest.raises(ValueError):
            SparseIntMat.from_lines(["2 2 3", "0 0 1", "1 1 1", "0 0 -1"])
        with pytest.raises(ValueError):
            SparseIntMat.from_lines(["2 2 2", "1 0 4", "1 0 4"])

    @pytest.mark.parametrize("lines", [
        ["2 2 1", "0 0 99999999999999999999999"],
        ["2 2 1", "0 0 -9223372036854775809"],
        ["2 2 1", "99999999999999999999999 0 1"],
        ["2 99999999999999999999999 1", "0 0 1"],
        ["2 2 99999999999999999999999", "0 0 1"],
    ])
    def test_from_lines_rejects_what_64_bits_cannot_hold(self, lines):
        with pytest.raises(ValueError):
            SparseIntMat.from_lines(lines)

    def test_from_lines_keeps_the_64_bit_extremes(self):
        mat = SparseIntMat.from_lines(
            ["1 2 2", "0 0 9223372036854775807", "0 1 -9223372036854775808"]
        )
        assert mat.entries == ((0, 0, (1 << 63) - 1), (0, 1, -(1 << 63)))

    def test_matmul_matches_dense(self):
        rng = random.Random(3)
        for _ in range(20):
            r, k, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            a_entries = [
                (i, j, rng.randint(-3, 3))
                for i in range(r)
                for j in range(k)
                if rng.random() < 0.5
            ]
            b_entries = [
                (i, j, rng.randint(-3, 3))
                for i in range(k)
                for j in range(c)
                if rng.random() < 0.5
            ]
            a = SparseIntMat(r, k, tuple(e for e in a_entries if e[2]))
            b = SparseIntMat(k, c, tuple(e for e in b_entries if e[2]))
            dense_a = [[0] * k for _ in range(r)]
            for i, j, v in a.entries:
                dense_a[i][j] = v
            dense_b = [[0] * c for _ in range(k)]
            for i, j, v in b.entries:
                dense_b[i][j] = v
            expected = {}
            for i in range(r):
                for j in range(c):
                    s = sum(dense_a[i][t] * dense_b[t][j] for t in range(k))
                    if s:
                        expected[(i, j)] = s
            product = matmul(a, b)
            assert {(i, j): v for i, j, v in product.entries} == expected

    def test_vstack_offsets_bottom_rows(self):
        top = SparseIntMat(2, 3, ((0, 1, 4), (1, 2, -1)))
        bottom = SparseIntMat(1, 3, ((0, 0, 7),))
        both = vstack(top, bottom)
        assert (both.rows, both.cols) == (3, 3)
        assert both.entries == ((0, 1, 4), (1, 2, -1), (2, 0, 7))
        with pytest.raises(ValueError):
            vstack(top, SparseIntMat(1, 2, ()))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(SparseIntMat(2, 2, ()), SparseIntMat(3, 3, ()))


class TestBasisStructure:
    def test_index_and_blocks_consistent(self, bases_by_rank):
        for n in (3, 4):
            for basis in bases_by_rank[n]:
                assert len({el.key for el in basis.elements}) == basis.dim
                covered = sorted(
                    i for cols in basis.blocks.values() for i in cols
                )
                assert covered == list(range(basis.dim))
                for key, cols in basis.blocks.items():
                    for i in cols:
                        el = basis.elements[i]
                        assert block_key_of(el.graph, el.forest) == key

    def test_trivalent_elements_only(self, bases_by_rank):
        for basis in bases_by_rank[4]:
            for el in basis.elements:
                valences = el.graph.canon.valences()
                assert set(valences) == {3}


def _orbit_rep(cls, pos: int) -> int:
    """The smallest position of the orbit of ``pos`` under the class's edge
    automorphisms: the smallest class-first of the orbit of its class-first
    under the lifts."""
    return min(orbit_of((cls.first[pos],), cls.edge_perm_generators))


def _carried_by_vertices(g, h, edge_map) -> bool:
    """Whether ``edge_map``, from the positions of ``g`` onto those of
    ``h``, is a bijection that one vertex bijection carries: every edge's
    endpoints go to its image's endpoints."""
    if g.vertex_count != h.vertex_count or sorted(edge_map) != list(range(h.edge_count)):
        return False
    images = [set(range(h.vertex_count)) for _ in range(g.vertex_count)]
    for (u, v), m in zip(g.edges, edge_map):
        images[u] &= set(h.edges[m])
        images[v] &= set(h.edges[m])
    return any(
        len(set(phi)) == len(phi)
        and all(
            tuple(sorted((phi[u], phi[v]))) == h.edges[m]
            for (u, v), m in zip(g.edges, edge_map)
        )
        for phi in itertools.product(*(sorted(c) for c in images))
    )


class TestContractOne:
    """``contract_one`` builds a target class only for a key it has not
    interned.  At the smallest position of an edge orbit it answers as a
    fresh canonical labeling of the contraction would; every other position
    of the orbit shares that search, so its map is another edge isomorphism
    onto the same target."""

    @staticmethod
    def _check(store, cls, pos, target, pos_map, first, exact=False) -> bool:
        """Checks ``contract_one``'s answer for ``(cls, pos)`` against a
        fresh labeling of the contraction: the same map if ``exact`` or at
        an orbit representative, else an edge isomorphism onto the same
        canonical graph.  Returns whether ``pos`` is a representative."""
        contracted, raw_map = contract_edges_mapped(cls.canon, [pos])
        lab = canonical_labeling(contracted)
        want, edge_map = lab.graph_class(), lab.edge_map(contracted)
        key = want.canonical_key
        first.setdefault(key, want)
        assert target.canonical_key == key == store.contract_key(cls, pos)
        assert target.canon == want.canon
        # the class of the first contraction met with this key, interned
        assert target == first[key] and target is store.get(key)
        assert pos_map[pos] is None
        is_rep = _orbit_rep(cls, pos) == pos
        if exact or is_rep:
            assert pos_map == tuple(None if m is None else edge_map[m] for m in raw_map)
        else:
            moved = [None] * contracted.edge_count
            for j, m in enumerate(raw_map):
                if m is not None:
                    moved[m] = pos_map[j]
            assert _carried_by_vertices(contracted, target.canon, moved)
        return is_rep

    def test_matches_a_fresh_canonical_labeling(self, trivalent_by_rank):
        # exactly at orbit representatives, up to a target automorphism
        # at the other positions
        store = ClassStore()
        first: dict = {}
        reps = []
        for n in (2, 3, 4, 5):
            for cls in trivalent_by_rank[n]:
                for pos in range(cls.canon.edge_count):
                    target, pos_map = store.contract_one(cls, pos)
                    reps.append(self._check(store, cls, pos, target, pos_map, first))
        assert any(reps) and not all(reps)
        assert len(first) > 1

    @pytest.mark.parametrize("key_first", [True, False])
    def test_key_and_map_in_either_order(self, trivalent_by_rank, key_first):
        # a key asked for first memoizes that position's own search, and
        # its map reuses it: the fresh labeling's map at every position
        store = ClassStore()
        first: dict = {}
        for n in (3, 4):
            for cls in trivalent_by_rank[n]:
                for pos in range(cls.canon.edge_count):
                    if key_first:
                        key = store.contract_key(cls, pos)
                    target, pos_map = store.contract_one(cls, pos)
                    if key_first:
                        assert key == target.canonical_key
                    self._check(store, cls, pos, target, pos_map, first, exact=key_first)

    def test_key_builds_no_class(self, trivalent_by_rank, monkeypatch):
        # a key met only by ``contract_key`` gets its class on the first
        # ``get``; an ``intern`` of a pending key supersedes its labeling
        import outhom.multigraph as multigraph

        cls = trivalent_by_rank[3][0]
        by_key = {}
        for pos in range(cls.canon.edge_count):
            target = canonical_labeling(contract_edges(cls.canon, [pos])).graph_class()
            by_key.setdefault(target.canonical_key, target)
        assert len(by_key) > 1
        built = []
        real = multigraph.Labeling.graph_class
        monkeypatch.setattr(
            multigraph.Labeling, "graph_class", lambda lab: built.append(lab) or real(lab)
        )
        store = ClassStore()
        keys = {store.contract_key(cls, pos) for pos in range(cls.canon.edge_count)}
        assert keys == set(by_key) and built == []
        first, second = sorted(keys)[:2]
        target = store.get(first)
        assert target == by_key[first] and target is store.get(first)
        assert store.intern(by_key[second]) is by_key[second]
        assert store.get(second) is by_key[second]
        assert len(built) == 1

    def test_one_edge_forests_need_keys_only(self, trivalent_by_rank, monkeypatch):
        # every p = 1 term contracts to the empty forest: the assembly
        # builds no target class and no position map, and agrees with the
        # reference, which builds both
        import outhom.chain as chain
        import outhom.multigraph as multigraph

        classes, maps = [], []
        real_class = multigraph.Labeling.graph_class
        real_map = multigraph._edge_map_under
        monkeypatch.setattr(
            multigraph.Labeling,
            "graph_class",
            lambda lab: classes.append(lab.key) or real_class(lab),
        )
        for module in (chain, multigraph):
            monkeypatch.setattr(
                module, "_edge_map_under", lambda *a: maps.append(a) or real_map(*a)
            )
        store = ClassStore()
        basis = build_chain_basis(5, 1, trivalent_by_rank[5], store)
        got = assemble(basis, CONTRACT, store)
        assert (classes, maps) == ([], [])
        want = reference_boundary(basis, CONTRACT, ClassStore())[0]
        assert got.rows > 0 and got.entries == want.entries
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert classes and maps


def test_removal_memo_scans_each_mask_once(bases_by_rank, monkeypatch):
    # removal terms repeat masks within a source class; each distinct
    # (source class, mask) is scanned once, and the matrix is unchanged
    basis, lower = bases_by_rank[5][4], bases_by_rank[5][3]
    want = reference_boundary(basis, REMOVE, ClassStore(), lower)[0]
    scans = []
    real = ForestIndex.orbit
    monkeypatch.setattr(
        ForestIndex,
        "orbit",
        lambda fi, mask: scans.append((fi.graph.canonical_key, mask)) or real(fi, mask),
    )
    got = boundary_remove(basis, lower, ClassStore())
    assert scans and len(scans) == len(set(scans))
    assert len(scans) < 4 * basis.dim  # fewer scans than terms
    assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)


def test_target_groups_listed_before_the_rows(bases_by_rank, monkeypatch):
    # at p >= 3 the assembly lists every contraction target's group before
    # its column loop, so no table the store keeps is made among the rows;
    # the matrix is unchanged
    from outhom import chain, forests

    basis = bases_by_rank[5][4]
    want = reference_boundary(basis, CONTRACT, ClassStore())[0]
    in_loop, listed = [], []
    real_list = forests._group_elements
    monkeypatch.setattr(
        forests, "_group_elements", lambda *a: listed.append(bool(in_loop)) or real_list(*a)
    )
    real_add = chain.BoundaryKernel.add_terms
    monkeypatch.setattr(
        chain.BoundaryKernel,
        "add_terms",
        lambda *a: in_loop.append(1) or real_add(*a),
    )
    got = assemble(basis, CONTRACT, ClassStore())
    assert listed and not any(listed)
    assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)


@pytest.mark.parametrize(
    "n, p_range, searches",
    [(5, None, 88), (5, [0, 1], 88), (6, [0, 1, 9], 538), (7, [0, 1], 4324)],
)
def test_one_search_per_edge_orbit(n, p_range, searches, monkeypatch):
    # the canonical searches of a whole profile, enumeration included: from
    # p = 2 on, one contraction search per edge orbit of each class (189 and
    # 984 searches for the first and third profiles when every position
    # was searched); at p <= 1 every contracted position is already its
    # orbit's smallest, so the work is unchanged and no transport is read
    from outhom import multigraph
    from outhom.pipeline import compute_rank_profile

    counts = {"search": 0, "table": 0}
    real_search, real_transport = multigraph._canonical_search, ForestIndex.transport

    def counted(name, real):
        return lambda *args: counts.__setitem__(name, counts[name] + 1) or real(*args)

    monkeypatch.setattr(multigraph, "_canonical_search", counted("search", real_search))
    monkeypatch.setattr(ForestIndex, "transport", counted("table", real_transport))
    compute_rank_profile(n, p_range=p_range)
    assert counts["search"] == searches
    assert (counts["table"] == 0) == (p_range is not None and max(p_range) <= 1)


@pytest.mark.parametrize(
    "n, max_degree, loops",
    [(6, 0, False)] + [(n, 2 * n - 3, loops) for n in (2, 3, 4, 5) for loops in (False, True)],
)
def test_orbit_min_and_transport(n, max_degree, loops):
    # every trivalent class at n <= 6 and every closure class at n <= 5:
    # ``orbit_min`` is each orbit's smallest position, ``transport`` an
    # automorphism reaching it, and the p <= 1 representatives are those of
    # an orbit walk over the lifts and the parallel swaps
    for cls in enumerate_graphs(EnumSpec(n, max_degree, loops)):
        g = cls.canon
        fi = ForestIndex(cls)
        gens = full_edge_generators(cls)
        reps = []
        for pos, (u, v) in enumerate(g.edges):
            assert cls.orbit_min[pos] == _orbit_rep(cls, pos)
            moved = fi.transport(pos)
            assert moved[pos] == cls.orbit_min[pos]
            assert _carried_by_vertices(g, g, moved)
            orbit = orbit_of((pos,), gens)
            if min(orbit) == pos and u != v:
                reps.append(((pos,), len(orbit), False))
        assert fi.orbit_representatives(0) == [((), 1, False)]
        assert fi.orbit_representatives(1) == reps
