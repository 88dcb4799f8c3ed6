from __future__ import annotations

import random

import pytest

from outhom.chain import (
    ClassStore,
    SparseIntMat,
    boundary_contract,
    boundary_remove,
    build_chain_basis,
)
from outhom.cycleio import (
    CycleFormatError,
    CycleVector,
    parse_cycle,
    serialize_cycle,
    verify_cycle,
)
from outhom.exactla import FieldSpec, nullspace_of
from outhom.forests import ForestedGraph
from outhom.pipeline import oracle_graphs
from reference_chain import normalize, perm_parity
from reference_enum import full_edge_generators
from reference_la import mat_vec


class TestParse:
    def test_theta_line(self, theta):
        w = parse_cycle(["1 [0+1 0-1 0-1]"])
        assert (w.n, w.p) == (2, 1)
        ((coeff, fg),) = w.terms
        assert coeff == 1
        assert fg.key == (theta.canonical_key, (0,))

    def test_repeated_tokens_are_parallel_edges(self):
        w = parse_cycle(["2 [0-1 0-1 0+1]"])
        ((_, fg),) = w.terms
        assert fg.graph.canon.edge_count == 3

    def test_token_order_irrelevant(self, bases_by_rank):
        rng = random.Random(2)
        for el in bases_by_rank[3][1].elements:
            (line,) = serialize_cycle(CycleVector(3, 1, ((1, el),)))
            head, body = line.split("[")
            tokens = body.rstrip("]").split()
            rng.shuffle(tokens)
            scrambled = f"{head}[{' '.join(tokens)}]"
            a = parse_cycle([line])
            b = parse_cycle([scrambled])
            assert [(c, fg.key) for c, fg in a.terms] == [
                (c, fg.key) for c, fg in b.terms
            ]

    def test_accumulates_duplicate_terms(self):
        w = parse_cycle(["1 [0+1 0-1 0-1]", "2 [0+1 0-1 0-1]"])
        ((coeff, _),) = w.terms
        assert coeff == 3

    def test_mixed_shapes_rejected(self):
        with pytest.raises(CycleFormatError):
            parse_cycle(["1 [0+1 0-1 0-1]", "1 [0+1 0-1 0-1 1-2 1-2 2-2]"])

    @pytest.mark.parametrize(
        "line",
        [
            "x [0+1]",
            "1 [0*1]",
            "1 [1+0]",  # x > y
            "0 [0+1 0-1 0-1]",  # zero coefficient
            "1 []",
            "1 [0+1 0+1 0-1]",  # forest contains a parallel pair = cycle
        ],
    )
    def test_malformed_rejected(self, line):
        with pytest.raises(CycleFormatError):
            parse_cycle([line])

    @pytest.mark.parametrize(
        "line, why",
        [
            # 2,999 isolated vertices would sit in one refinement cell
            ("1 [0+1 0-1 0-3000]", "vertex label 2 is unused"),
            ("1 [0+1 0-1 0-5]", "vertex label 2 is unused"),
            ("1 [0+1 0-1 0-1 1-2]", "vertex 2 has valence 1, below 3"),
            ("1 [0+1 0-1 1-1]", "vertex 0 has valence 2, below 3"),
        ],
    )
    def test_labels_and_valences_checked_before_any_graph(self, line, why, monkeypatch):
        import outhom.cycleio as cycleio

        def no_graph(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(cycleio, "Multigraph", no_graph)
        with pytest.raises(CycleFormatError, match=f"^line 1: {why}$"):
            parse_cycle([line])

    def test_empty_file_rejected(self):
        with pytest.raises(CycleFormatError):
            parse_cycle([])

    def test_odd_symmetric_term_flagged(self, doubled_4_cycle):
        # the doubled 4-cycle with the two single edges as forest is zero
        line = "1 [0+1 0-1 2+3 2-3 0-2 1-3]"
        with pytest.raises(CycleFormatError, match="odd symmetry"):
            parse_cycle([line])


def _relabeled_line(coeff: int, fg: ForestedGraph, rng: random.Random) -> str:
    """The line of ``coeff`` times ``fg`` after a random vertex relabeling
    and token shuffle.  The forest is oriented lexicographically in the new
    labels, so the coefficient takes the parity of that reordering."""
    canon = fg.graph.canon
    perm = list(range(canon.vertex_count))
    rng.shuffle(perm)
    edges = [tuple(sorted((perm[u], perm[v]))) for u, v in canon.edges]
    coeff *= perm_parity([edges[i] for i in fg.forest])
    tokens = [
        f"{u}{'+' if pos in fg.forest else '-'}{v}" for pos, (u, v) in enumerate(edges)
    ]
    rng.shuffle(tokens)
    return f"{coeff} [{' '.join(tokens)}]"


class TestRelabeledFiles:
    """A file written in other vertex labels, with its forest reoriented and
    the coefficient signed to match, parses to the same vector."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_basis_element(self, n, bases_by_rank, trivalent_by_rank, store):
        rng = random.Random(n)
        keys = {cls.canonical_key for cls in trivalent_by_rank[n]}
        others = [cls for cls in oracle_graphs(n) if cls.canonical_key not in keys]
        checked = 0
        for p, basis in enumerate(bases_by_rank[n]):
            elements = basis.elements + build_chain_basis(n, p, others, store).elements
            for el in elements:
                for _ in range(3):
                    w = parse_cycle([_relabeled_line(3, el, rng)])
                    assert (w.n, w.p) == (n, p)
                    assert [(c, fg.key) for c, fg in w.terms] == [(3, el.key)]
                    checked += 1
        assert checked

    def test_n4_joint_kernel_vectors_stay_cycles(self, bases_by_rank, trivalent_by_rank, store):
        basis = bases_by_rank[4][4]
        dc = boundary_contract(basis, store)
        dr = boundary_remove(basis, bases_by_rank[4][3], store)
        stacked = SparseIntMat(
            dc.rows + dr.rows, basis.dim,
            dc.entries + tuple((r + dc.rows, c, v) for r, c, v in dr.entries),
        )
        joint = nullspace_of(stacked, FieldSpec.rational())
        assert joint.dim == 3
        rng = random.Random(44)
        for col in joint.columns:
            terms = tuple((v, basis.elements[i]) for i, v in sorted(col.items()))
            w = parse_cycle([_relabeled_line(v, el, rng) for v, el in terms], store)
            assert [(c, fg.key) for c, fg in w.terms] == [(c, el.key) for c, el in terms]
            assert verify_cycle(w, trivalent_by_rank[4], store).is_cycle


    def test_one_class_build_per_class(self, bases_by_rank, store, monkeypatch):
        # a line whose class the store holds builds no class: the first
        # n = 4, p = 4 joint kernel vector (the Morita class) written out
        # and read back into a fresh store
        from outhom.multigraph import Labeling

        basis = bases_by_rank[4][4]
        dc = boundary_contract(basis, store)
        dr = boundary_remove(basis, bases_by_rank[4][3], store)
        stacked = SparseIntMat(
            dc.rows + dr.rows, basis.dim,
            dc.entries + tuple((r + dc.rows, c, v) for r, c, v in dr.entries),
        )
        col = nullspace_of(stacked, FieldSpec.rational()).columns[0]
        w = CycleVector(4, 4, tuple((v, basis.elements[i]) for i, v in sorted(col.items())))
        lines = serialize_cycle(w)
        builds = []
        real = Labeling.graph_class
        monkeypatch.setattr(
            Labeling, "graph_class", lambda lab: builds.append(lab.key) or real(lab)
        )
        parsed = parse_cycle(lines, ClassStore())
        assert [(c, fg.key) for c, fg in parsed.terms] == [(c, fg.key) for c, fg in w.terms]
        classes = {fg.graph.canonical_key for _, fg in w.terms}
        assert len(lines) > len(builds) == len(set(builds)) == len(classes) == 4


class TestSerialize:
    def test_round_trip_idempotent_synthetic(self, bases_by_rank):
        rng = random.Random(17)
        for n in (3, 4):
            basis = bases_by_rank[n][2]
            terms = tuple(
                (rng.choice([-3, -1, 1, 2]), el)
                for el in rng.sample(list(basis.elements), min(5, basis.dim))
            )
            w = CycleVector(n, 2, terms)
            lines = serialize_cycle(w)
            w2 = parse_cycle(lines)
            # serialize . parse is the identity on normalized files
            assert sorted(serialize_cycle(w2)) == sorted(lines)
            assert {(c, fg.key) for c, fg in w2.terms} == {
                (c, fg.key) for c, fg in w.terms
            }

    def test_forest_marks_lexicographic(self, bases_by_rank):
        basis = bases_by_rank[3][2]
        w = CycleVector(3, 2, ((1, basis.elements[0]),))
        (line,) = serialize_cycle(w)
        tokens = line.split("[")[1].rstrip("]").split()
        pairs = [(int(t[0]), int(t[2])) for t in tokens]
        assert pairs == sorted(pairs)
        plus_pairs = [(int(t[0]), int(t[2])) for t in tokens if "+" in t]
        assert plus_pairs == sorted(plus_pairs)


class TestBasisMembership:
    """``verify_cycle`` decides basis membership from the class list and
    each term's own orbit record; the terms here are built directly."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_basis_element_is_in_the_basis(
        self, n, bases_by_rank, trivalent_by_rank, store
    ):
        for p, basis in enumerate(bases_by_rank[n]):
            w = CycleVector(n, p, tuple((1, el) for el in basis.elements))
            verdict = verify_cycle(w, trivalent_by_rank[n], store)
            assert verdict.is_in_basis and verdict.missing == ()

    @staticmethod
    def _strays(n: int, p: int, graphs, store: ClassStore) -> dict[str, list]:
        """Forested graphs of rank n and forest size p that are not basis
        elements, by why not."""
        strays: dict[str, list] = {"moved": [], "zero": [], "not trivalent": []}
        for cls in graphs:
            for rep, size, zero in store.forest_index(cls).orbit_representatives(p):
                if zero:
                    strays["zero"].append(ForestedGraph(cls, rep))
                elif size > 1:
                    # another member of the orbit: the image under a
                    # generator of the whole edge group
                    for g in full_edge_generators(cls):
                        moved = tuple(sorted(g[i] for i in rep))
                        if moved != rep:
                            strays["moved"].append(ForestedGraph(cls, moved))
                            break
        keys = {cls.canonical_key for cls in graphs}
        others = [cls for cls in oracle_graphs(n) if cls.canonical_key not in keys]
        strays["not trivalent"] = list(build_chain_basis(n, p, others, store).elements)
        return strays

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_strays_are_missing(self, n, bases_by_rank, trivalent_by_rank, store):
        graphs = trivalent_by_rank[n]
        met: set[str] = set()
        for p, basis in enumerate(bases_by_rank[n]):
            strays = []
            for why, terms in self._strays(n, p, graphs, store).items():
                met |= {why} if terms else set()
                strays += terms
                for fg in terms:
                    verdict = verify_cycle(CycleVector(n, p, ((1, fg),)), graphs, store)
                    assert not verdict.is_in_basis and verdict.missing == (fg.key,), why
            # a forest of the wrong size
            for el in basis.elements:
                verdict = verify_cycle(CycleVector(n, p + 1, ((1, el),)), graphs, store)
                assert verdict.missing == (el.key,)
            # one stray among basis elements: only it is missing
            if strays and basis.dim:
                w = CycleVector(n, p, ((1, basis.elements[0]), (2, strays[0])))
                assert verify_cycle(w, graphs, store).missing == (strays[0].key,)
        # no theta forest is zero by odd symmetry
        assert met == {"moved", "not trivalent"} | ({"zero"} if n >= 3 else set())

    def test_cyclic_forest_is_missing(self, theta, trivalent_by_rank, store):
        cyclic = ForestedGraph(theta, (0, 1))
        verdict = verify_cycle(CycleVector(2, 2, ((1, cyclic),)), trivalent_by_rank[2], store)
        assert not verdict.is_in_basis and verdict.missing == (cyclic.key,)


class TestVerify:
    def test_zero_vector_trivially_verified(self, trivalent_by_rank):
        verdict = verify_cycle(CycleVector(4, 5, ()), trivalent_by_rank[4])
        assert verdict.is_cycle

    def test_theta_term_fails_removal(self, trivalent_by_rank, store):
        w = parse_cycle(["1 [0+1 0-1 0-1]"], store)
        verdict = verify_cycle(w, trivalent_by_rank[2], store)
        assert verdict.is_in_basis
        assert not verdict.dR_zero

    def test_missing_term_reported(self, trivalent_by_rank, store):
        w = parse_cycle(["1 [0+1 0-1 0-1]"], store)
        verdict = verify_cycle(w, trivalent_by_rank[3], store)
        assert not verdict.is_in_basis
        assert verdict.missing

    @pytest.mark.parametrize("p", [4, 5])
    def test_joint_nullspace_vectors_pass_n4(self, p, bases_by_rank, trivalent_by_rank, store):
        # oracle: joint kernel of (dC, dR) over the rationals via exactla
        basis = bases_by_rank[4][p]
        dc = boundary_contract(basis, store)
        dr = boundary_remove(basis, bases_by_rank[4][p - 1], store)
        stacked_entries = tuple(dc.entries) + tuple(
            (r + dc.rows, c, v) for r, c, v in dr.entries
        )
        stacked = SparseIntMat(dc.rows + dr.rows, basis.dim, stacked_entries)
        joint = nullspace_of(stacked, FieldSpec.rational())
        for col in joint.columns:
            w = CycleVector(
                4, p, tuple((v, basis.elements[i]) for i, v in sorted(col.items()))
            )
            verdict = verify_cycle(w, trivalent_by_rank[4], store)
            assert verdict.is_cycle, f"joint kernel vector rejected at p={p}"
        if p == 4:
            assert joint.dim >= 1  # the Morita class lives here

    def test_single_term_non_cycles_rejected_n4(self, bases_by_rank, trivalent_by_rank, store):
        basis = bases_by_rank[4][5]
        dc = boundary_contract(basis, store)
        dr = boundary_remove(basis, bases_by_rank[4][4], store)
        rng = random.Random(4)
        checked = 0
        for i in rng.sample(range(basis.dim), 10):
            vec = {i: 1}
            boundary_hits = mat_vec(dc, vec) or mat_vec(dr, vec)
            if not boundary_hits:
                continue
            w = CycleVector(4, 5, ((1, basis.elements[i]),))
            verdict = verify_cycle(w, trivalent_by_rank[4], store)
            assert not verdict.is_cycle
            checked += 1
        assert checked > 0

    def test_renormalization_invariance(self, bases_by_rank, trivalent_by_rank, store):
        # a term entered with permuted forest ordering and flipped
        # coefficient normalizes to the same vector, hence the same verdict
        basis = bases_by_rank[4][2]
        el = next(e for e in basis.elements if len(e.forest) == 2)
        i, j = el.forest
        fi = store.forest_index(store.intern(el.graph))
        ref = normalize(fi, [j, i])
        assert ref.key == el.key and ref.sign == -1
        normalized_term = (-5 * ref.sign, el)
        assert normalized_term == (5, el)
        w1 = CycleVector(4, 2, ((5, el),))
        w2 = CycleVector(4, 2, (normalized_term,))
        graphs = trivalent_by_rank[4]
        assert verify_cycle(w1, graphs, store) == verify_cycle(w2, graphs, store)
