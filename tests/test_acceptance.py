"""Acceptance gate: one test per criterion, every tolerance exact (zero).

Each test prints a single PASS line on success; failures surface as normal
pytest failures.  Criterion 8 is a stretch target, opt-in via the
OUTHOM_STRETCH environment variable.
"""

from __future__ import annotations

import itertools
import os
import random
import time

import pytest

from outhom.chain import (
    ClassStore,
    SparseIntMat,
    boundary_contract,
    boundary_remove,
    build_chain_basis,
    matmul,
    vstack,
)
from outhom.cycleio import CycleVector, parse_cycle, serialize_cycle, verify_cycle
from outhom.enumerator import EnumSpec, enumerate_graphs
from outhom.exactla import (
    DEFAULT_PRIMES,
    FieldSpec,
    nullspace_of,
    rank_of,
)
from outhom.forests import ForestIndex
from outhom.multigraph import apply_vertex_perm, canonical_form
from outhom.pipeline import compute_rank_profile, oracle_full_complex
from reference_chain import assemble_keyed, basis_from_labels, normalize
from reference_la import mat_vec


CONTRACT = (("contract", 1),)
REMOVE = (("remove", 1),)


def _report(criterion: str, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_full_homology_n2_n3():
    for n, expected, budget in ((2, [1, 0], 10.0), (3, [1, 0, 0, 0], 10.0)):
        t0 = time.monotonic()
        rp = compute_rank_profile(n)
        elapsed = time.monotonic() - t0
        assert rp.dims == expected
        assert elapsed < budget, f"n={n} took {elapsed:.1f}s"
    _report("1", "n=2 dims (1,0) and n=3 dims (1,0,0,0), each under 10 s")


def test_criterion_2_full_homology_n4():
    t0 = time.monotonic()
    rp = compute_rank_profile(4)
    elapsed = time.monotonic() - t0
    assert rp.dims == [1, 0, 0, 0, 1, 0]
    assert elapsed < 300, f"n=4 took {elapsed:.1f}s"
    _report("2", f"n=4 dims (1,0,0,0,1,0) incl. the Morita class, {elapsed:.1f}s")


def test_criterion_3_full_homology_n5():
    t0 = time.monotonic()
    rp = compute_rank_profile(5)
    elapsed = time.monotonic() - t0
    assert rp.dims == [1, 0, 0, 0, 0, 0, 0, 0]
    assert elapsed < 3600, f"n=5 took {elapsed:.1f}s"
    _report("3", f"n=5 dims (1,0,0,0,0,0,0,0), {elapsed:.1f}s")


def test_criterion_4_n7_low_filtration_profile():
    t0 = time.monotonic()
    rp = compute_rank_profile(7, p_range=[0, 1, 2])
    elapsed = time.monotonic() - t0
    assert rp.a[:3] == [365, 3712, 23227]
    assert rp.b[:3] == [365, 1784, 5642]
    assert rp.c[:3] == [0, 364, 1420]
    assert rp.b[0] - rp.c[0] - rp.c[1] == 1  # dim H_0
    assert elapsed < 4 * 3600, f"n=7 took {elapsed:.1f}s"
    _report("4", f"n=7 a/b/c at p<=2 match the published table, {elapsed:.1f}s")


def test_criterion_5_oracle_equivalence():
    for n in (2, 3, 4):
        assert oracle_full_complex(n) == compute_rank_profile(n).dims
    _report("5", "full-complex oracle dims equal pipeline dims for n=2,3,4, exactly")


def test_criterion_6_property_suite(bases_by_rank, store, doubled_4_cycle):
    # boundary squares vanish for n <= 4, every p
    for n in (2, 3, 4):
        for p in range(2, 2 * n - 2):
            basis = bases_by_rank[n][p]
            if basis.dim == 0:
                continue
            dc1, labels = assemble_keyed(basis, CONTRACT, store)
            mid = basis_from_labels(n, p - 1, labels, store)
            assert matmul(boundary_contract(mid, store), dc1).entries == ()
            dr1 = boundary_remove(basis, bases_by_rank[n][p - 1], store)
            dr0 = boundary_remove(
                bases_by_rank[n][p - 1], bases_by_rank[n][p - 2], store
            )
            assert matmul(dr0, dr1).entries == ()

    # the compositions anticommute, which is the relation forcing d^2 = 0
    # for the signed difference of the boundaries
    for n in (2, 3):
        for p in range(2, 2 * n - 2):
            basis = bases_by_rank[n][p]
            if basis.dim == 0:
                continue
            dr = boundary_remove(basis, bases_by_rank[n][p - 1], store)
            dc_low, dc_low_rows = assemble_keyed(bases_by_rank[n][p - 1], CONTRACT, store)
            path_a = matmul(dc_low, dr)
            dc, dc_rows = assemble_keyed(basis, CONTRACT, store)
            mid = basis_from_labels(n, p - 1, dc_rows, store)
            dr_hashed, dr_hashed_rows = assemble_keyed(mid, REMOVE, store)
            path_b = matmul(dr_hashed, dc)
            da = {(dc_low_rows[r], c): v for r, c, v in path_a.entries}
            db = {(dr_hashed_rows[r], c): v for r, c, v in path_b.entries}
            assert da == {k: -v for k, v in db.items()}

    # canonical-form invariance: 1000 random relabelings per graph, n <= 4
    rng = random.Random(1)
    for n in (2, 3, 4):
        for cls in bases_by_rank[n][0].elements:
            graph = cls.graph.canon
            for _ in range(1000):
                perm = list(range(graph.vertex_count))
                rng.shuffle(perm)
                relabeled = canonical_form(apply_vertex_perm(graph, perm))
                assert relabeled.canonical_key == cls.graph.canonical_key

    # sign antisymmetry under forest transpositions (exhaustive at rank 3)
    for cls in enumerate_graphs(EnumSpec(3)):
        fi = ForestIndex(cls)
        for i, j in itertools.combinations(range(cls.canon.edge_count), 2):
            if fi.is_acyclic([i, j]):
                assert normalize(fi, [i, j]).sign == -normalize(fi, [j, i]).sign

    # odd-symmetry zero rule on the doubled-4-cycle witness
    mult = doubled_4_cycle.canon.multiplicity()
    singles = [
        pos for pos, e in enumerate(doubled_4_cycle.canon.edges) if mult[e] == 1
    ]
    assert normalize(ForestIndex(doubled_4_cycle), singles).sign == 0

    # rank agreement between the two default primes, all matrices, n <= 5
    gf1, gf2 = (FieldSpec.prime(p) for p in DEFAULT_PRIMES)
    for n in (2, 3, 4, 5):
        for p in range(2 * n - 2):
            basis = bases_by_rank[n][p]
            if basis.dim == 0:
                continue
            dc = boundary_contract(basis, store)
            assert rank_of(dc, gf1) == rank_of(dc, gf2)
            if p >= 1:
                dr = boundary_remove(basis, bases_by_rank[n][p - 1], store)
                assert rank_of(dr, gf1) == rank_of(dr, gf2)

    _report("6", "boundary identities, canonicalization, signs, prime agreement")


def test_criterion_7_cycle_format(bases_by_rank, trivalent_by_rank, store):
    # synthetic round-trip
    rng = random.Random(7)
    basis4 = bases_by_rank[4][5]
    sample = rng.sample(list(basis4.elements), 8)
    w = CycleVector(4, 5, tuple((rng.choice([-2, 1, 3]), el) for el in sample))
    lines = serialize_cycle(w)
    w2 = parse_cycle(lines, store)
    assert serialize_cycle(w2) == serialize_cycle(w)

    # joint-kernel vectors are accepted (p=5 per the criterion; p=4 makes
    # the accepting direction non-vacuous, the Morita class lives there)
    accepted = {}
    rejected = 0
    dc5 = dr5 = None
    for p in (5, 4):
        basis = bases_by_rank[4][p]
        dc = boundary_contract(basis, store)
        dr = boundary_remove(basis, bases_by_rank[4][p - 1], store)
        if p == 5:
            dc5, dr5 = dc, dr
        stacked = SparseIntMat(
            dc.rows + dr.rows,
            basis.dim,
            tuple(dc.entries) + tuple((r + dc.rows, c, v) for r, c, v in dr.entries),
        )
        joint = nullspace_of(stacked, FieldSpec.rational())
        accepted[p] = joint.dim
        for col in joint.columns:
            vec = CycleVector(
                4, p, tuple((v, basis.elements[i]) for i, v in sorted(col.items()))
            )
            assert verify_cycle(vec, trivalent_by_rank[4], store).is_cycle
    assert accepted[4] >= 1

    # ... and single-term non-cycles are rejected
    for i in rng.sample(range(basis4.dim), 10):
        if not (mat_vec(dc5, {i: 1}) or mat_vec(dr5, {i: 1})):
            continue
        vec = CycleVector(4, 5, ((1, basis4.elements[i]),))
        assert not verify_cycle(vec, trivalent_by_rank[4], store).is_cycle
        rejected += 1
    assert rejected > 0
    _report("7", f"round-trip, joint-kernel dims {accepted} accepted, "
                 f"{rejected} non-cycles rejected")


def test_criterion_8_stretch_n7_top_filtration():
    if not os.environ.get("OUTHOM_STRETCH"):
        print("ACCEPTANCE 8: SKIPPED - stretch target, set OUTHOM_STRETCH=1 to run")
        pytest.skip("stretch criterion is opt-in (OUTHOM_STRETCH=1)")
    threads = min(8, os.cpu_count() or 1)
    rp = compute_rank_profile(
        7,
        p_range=[10, 11],
        threads=threads,
        max_basis=2_500_000,
        max_nnz=int(os.environ.get("OUTHOM_STRETCH_NNZ", 60_000_000)),
    )
    assert rp.a[11] == 376365
    if 11 in rp.holes:
        # the spec'd graceful outcome: caps exceeded, partial profile kept
        print("ACCEPTANCE 8: PASS - declared infeasible cleanly "
              f"(holes at {rp.holes}, a_11 = {rp.a[11]})")
        return
    assert rp.b[11] == 179
    assert rp.c[11] == 178
    assert rp.b[11] - rp.c[11] == 1  # dim H_11
    print("ACCEPTANCE 8: PASS - a_11 = 376365, b_11 = 179, c_11 = 178, dim H_11 = 1")


def test_stretch_n5_oracle_equivalence():
    """The full-complex oracle at n = 5 over Q, 24,561 cells (about 21 s on
    a 2-core x86_64 VM), equals the pipeline's dims."""
    if not os.environ.get("OUTHOM_STRETCH"):
        pytest.skip("stretch target, set OUTHOM_STRETCH=1 to run")
    assert oracle_full_complex(5) == compute_rank_profile(5).dims


def test_stretch_n6_second_morita_class():
    """H_8(Out(F_6); Q) = Q from p = 7, 8, 9 under GF(65521) (22 s on a
    2-core x86_64 VM)."""
    if not os.environ.get("OUTHOM_STRETCH"):
        pytest.skip("stretch target, set OUTHOM_STRETCH=1 to run")
    rp = compute_rank_profile(6, p_range=[7, 8, 9])
    assert rp.holes == []
    assert rp.a[7:] == [44453, 29864, 11035]
    assert rp.b[7:] == [399, 160, 35]
    assert rp.c[8:] == [124, 35]
    assert rp.dims[8] == 1


def test_stretch_n6_full_profile():
    """The whole n = 6 table under GF(65521): H_0 = Q and the Morita class
    H_8(Out(F_6); Q) = Q, every other level zero (about 65 s on a 2-core
    x86_64 VM)."""
    if not os.environ.get("OUTHOM_STRETCH"):
        pytest.skip("stretch target, set OUTHOM_STRETCH=1 to run")
    rp = compute_rank_profile(6, p_range=list(range(10)))
    assert rp.holes == []
    assert rp.a == [66, 437, 1905, 6733, 17883, 33845, 45701, 44453, 29864, 11035]
    assert rp.b == [66, 193, 372, 807, 1389, 1440, 889, 399, 160, 35]
    assert rp.c == [0, 65, 128, 244, 563, 826, 614, 275, 124, 35]
    assert rp.dims == [1, 0, 0, 0, 0, 0, 0, 0, 1, 0]


def test_stretch_n7_h11():
    """H_11(Out(F_7); Q) = Q, the class of the paper: b_11 - c_11 = 179 - 178
    under GF(65521).  The stages are called directly, so the rank of d_C at
    p = 10 is never taken (13 min and 4.4 GB peak RSS under a 6 GB address
    space limit on a 2-core x86_64 VM)."""
    if not os.environ.get("OUTHOM_STRETCH"):
        pytest.skip("stretch target, set OUTHOM_STRETCH=1 to run")
    f = FieldSpec.prime(DEFAULT_PRIMES[0])
    graphs = enumerate_graphs(EnumSpec(7))
    store = ClassStore()
    basis11 = build_chain_basis(7, 11, graphs, store)
    dc = boundary_contract(basis11, store)
    basis10 = build_chain_basis(7, 10, graphs, store)
    dr = boundary_remove(basis11, basis10, store)
    assert (basis10.dim, basis11.dim) == (1224266, 376365)
    del basis10
    stacked = vstack(dc, dr)
    del dr
    rank_dc = rank_of(dc, f)
    del dc
    b11 = basis11.dim - rank_dc
    c11 = rank_of(stacked, f) - rank_dc
    assert (b11, c11) == (179, 178)
    assert b11 - c11 == 1  # dim H_11(Out(F_7); Q)
