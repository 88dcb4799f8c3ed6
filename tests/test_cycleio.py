from __future__ import annotations

import random

import pytest

from outhom.chain import SparseIntMat, boundary_contract, boundary_remove
from outhom.cycleio import (
    CycleFormatError,
    CycleVector,
    parse_cycle,
    serialize_cycle,
    verify_cycle,
)
from outhom.exactla import FieldSpec, nullspace_of
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

    def test_empty_file_rejected(self):
        with pytest.raises(CycleFormatError):
            parse_cycle([])

    def test_odd_symmetric_term_flagged(self, doubled_4_cycle):
        # the doubled 4-cycle with the two single edges as forest is zero
        line = "1 [0+1 0-1 2+3 2-3 0-2 1-3]"
        with pytest.raises(CycleFormatError, match="odd symmetry"):
            parse_cycle([line])


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


class TestVerify:
    def test_zero_vector_trivially_verified(self, bases_by_rank):
        verdict = verify_cycle(CycleVector(4, 5, ()), bases_by_rank[4][5])
        assert verdict.is_cycle

    def test_theta_term_fails_removal(self, bases_by_rank, store):
        w = parse_cycle(["1 [0+1 0-1 0-1]"], store)
        verdict = verify_cycle(w, bases_by_rank[2][1], store)
        assert verdict.is_in_basis
        assert not verdict.dR_zero

    def test_missing_term_reported(self, bases_by_rank, store):
        w = parse_cycle(["1 [0+1 0-1 0-1]"], store)
        verdict = verify_cycle(w, bases_by_rank[3][1], store)
        assert not verdict.is_in_basis
        assert verdict.missing

    @pytest.mark.parametrize("p", [4, 5])
    def test_joint_nullspace_vectors_pass_n4(self, p, bases_by_rank, store):
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
            verdict = verify_cycle(w, basis, store)
            assert verdict.is_cycle, f"joint kernel vector rejected at p={p}"
        if p == 4:
            assert joint.dim >= 1  # the Morita class lives here

    def test_single_term_non_cycles_rejected_n4(self, bases_by_rank, store):
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
            verdict = verify_cycle(w, basis, store)
            assert not verdict.is_cycle
            checked += 1
        assert checked > 0

    def test_renormalization_invariance(self, bases_by_rank, store):
        # a term entered with permuted forest ordering and flipped
        # coefficient normalizes to the same vector, hence the same verdict
        basis = bases_by_rank[4][2]
        el = next(e for e in basis.elements if len(e.forest) == 2)
        i, j = el.forest
        fi = store.forest_index(store.intern(el.graph))
        ref = fi.normalize([j, i])
        assert ref.key == el.key and ref.sign == -1
        normalized_term = (-5 * ref.sign, el)
        assert normalized_term == (5, el)
        w1 = CycleVector(4, 2, ((5, el),))
        w2 = CycleVector(4, 2, (normalized_term,))
        assert verify_cycle(w1, basis, store) == verify_cycle(w2, basis, store)
