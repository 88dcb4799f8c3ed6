from __future__ import annotations

import json

import pytest

from outhom.exactla import DEFAULT_PRIMES, FieldSpec
from outhom.pipeline import (
    CrossPrimeError,
    NegativeDimensionError,
    RankProfile,
    compute_rank_profile,
    cross_prime_profile,
    default_p_range,
    homology_dimensions,
    oracle_euler_characteristic,
    oracle_full_complex,
    oracle_graphs,
)


class TestSmallProfiles:
    def test_n2(self):
        rp = compute_rank_profile(2)
        assert rp.a == [1, 1]
        assert rp.b == [1, 0]
        assert rp.c == [0, 0]
        assert rp.dims == [1, 0]

    def test_n3(self):
        rp = compute_rank_profile(3)
        assert rp.dims == [1, 0, 0, 0]
        assert rp.b[0] == rp.a[0]
        assert rp.c[0] == 0

    def test_rational_field_matches_prime(self):
        rp_q = compute_rank_profile(3, f=FieldSpec.rational())
        rp_p = compute_rank_profile(3)
        assert rp_q.b == rp_p.b and rp_q.c == rp_p.c


class TestOracle:
    def test_dims_n2(self):
        assert oracle_full_complex(2) == [1, 0]

    def test_dims_n3(self):
        assert oracle_full_complex(3) == [1, 0, 0, 0]

    def test_rejects_large_rank(self):
        with pytest.raises(ValueError):
            oracle_full_complex(4)

    @pytest.mark.parametrize("n", [2, 3])
    def test_oracle_equals_pipeline(self, n):
        assert oracle_full_complex(n) == compute_rank_profile(n).dims

    def test_oracle_graphs_are_contraction_closed(self, store):
        keys = {g.canonical_key for g in oracle_graphs(2)}
        for g in oracle_graphs(2):
            cls = store.intern(g)
            for pos, (u, v) in enumerate(cls.canon.edges):
                if u == v:
                    continue
                target, _ = store.contract_one(cls, pos)
                assert target.canonical_key in keys


class TestEulerConsistency:
    @pytest.mark.parametrize("n", [2, 3])
    def test_full_complex_euler_equals_homology_euler(self, n):
        dims = compute_rank_profile(n).dims
        assert oracle_euler_characteristic(n) == sum(
            (-1) ** p * d for p, d in enumerate(dims)
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kernel_alternating_sum_equals_homology(self, n):
        rp = compute_rank_profile(n)
        chi_b = sum((-1) ** p * b for p, b in enumerate(rp.b))
        chi_h = sum((-1) ** p * d for p, d in enumerate(rp.dims))
        assert chi_b == chi_h


class TestDimensionFormula:
    def test_published_n7_rows(self):
        # b and c rows as published for n = 7; the formula must give
        # nontrivial classes exactly at p = 0, 8, 11
        b = [365, 1784, 5642, 14766, 28739, 39033, 38113, 28588, 16741,
             6931, 1682, 179]
        c = [0, 364, 1420, 4222, 10544, 18195, 20838, 17275, 11313,
             5427, 1504, 178]
        rp = RankProfile(
            n=7, field="65521", primes=[65521], p_range=list(range(12)),
            a=[None] * 12, b=list(b), c=list(c), dims=[None] * 12,
            holes=[], timings={}, maxrss_kb=0,
        )
        dims = homology_dimensions(rp)
        assert dims[8] == 16741 - 11313 - 5427 == 1
        assert dims[7] == 28588 - 17275 - 11313 == 0
        assert dims[11] == 179 - 178 - 0 == 1
        assert dims == [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1]

    def test_basis_size_at_p0_equals_class_count(self, trivalent_by_rank, bases_by_rank):
        for n in (2, 3, 4, 5):
            assert bases_by_rank[n][0].dim == len(trivalent_by_rank[n])

    def test_negative_dimension_raises(self):
        rp = RankProfile(
            n=2, field="65521", primes=[65521], p_range=[0, 1],
            a=[1, 1], b=[0, 0], c=[0, 1], dims=[None, None],
            holes=[], timings={}, maxrss_kb=0,
        )
        with pytest.raises(NegativeDimensionError):
            homology_dimensions(rp)

    def test_holes_propagate_as_none(self):
        rp = RankProfile(
            n=3, field="65521", primes=[65521], p_range=[0, 1],
            a=[2, 3, None, None], b=[2, 1, None, None], c=[0, 1, None, None],
            dims=[None] * 4, holes=[2, 3], timings={}, maxrss_kb=0,
        )
        dims = homology_dimensions(rp)
        assert dims[0] == 1
        assert dims[1] is None  # c_2 unknown
        assert dims[2] is None and dims[3] is None


class TestRanges:
    def test_default_ranges(self):
        assert default_p_range(4) == [0, 1, 2, 3, 4, 5]
        assert default_p_range(7) == [0, 1, 2, 10, 11]

    def test_sparse_range_skips_c(self):
        rp = compute_rank_profile(4, p_range=[0, 2])
        assert rp.a[2] is not None and rp.b[2] is not None
        assert rp.c[2] is None  # p=1 basis not built
        assert rp.a[1] is None

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            compute_rank_profile(3, p_range=[9])


class TestCapsAndHoles:
    def test_basis_cap_leaves_hole(self):
        rp = compute_rank_profile(3, max_basis=1)
        assert rp.holes
        assert any(x is None for x in rp.a)

    def test_nnz_cap_leaves_hole_but_keeps_a(self):
        rp = compute_rank_profile(4, max_nnz=3)
        assert rp.holes
        assert all(x is not None for x in rp.a)


class TestCaching:
    def test_report_byte_identical_from_cache(self, tmp_path):
        cache = str(tmp_path)
        rp1 = compute_rank_profile(3, cache_dir=cache)
        text1 = (tmp_path / "report-n3.json").read_text()
        rp2 = compute_rank_profile(3, cache_dir=cache)
        assert rp2.from_cache
        assert rp2.report_text == text1 == rp1.report_text

    def test_artifacts_resume_to_same_ranks(self, tmp_path):
        cache = str(tmp_path)
        rp1 = compute_rank_profile(3, cache_dir=cache)
        (tmp_path / "report-n3.json").unlink()
        rp2 = compute_rank_profile(3, cache_dir=cache)
        assert not rp2.from_cache
        assert (rp1.a, rp1.b, rp1.c, rp1.dims) == (rp2.a, rp2.b, rp2.c, rp2.dims)

    def test_expected_cache_files(self, tmp_path):
        compute_rank_profile(2, cache_dir=str(tmp_path))
        names = {p.name for p in tmp_path.iterdir()}
        assert "graphs-n2-trivalent.txt" in names
        assert "graphs-n2-trivalent.count" in names
        assert "basis-n2-p1.txt" in names
        assert "dc-n2-p1.txt" in names
        assert "dr-n2-p1.txt" in names
        assert "ns-n2-p1-f65521.txt" in names
        assert "report-n2.json" in names

    def test_report_json_fields(self, tmp_path):
        compute_rank_profile(2, cache_dir=str(tmp_path))
        payload = json.loads((tmp_path / "report-n2.json").read_text())
        for key in ("n", "primes", "a", "b", "c", "dims", "timings"):
            assert key in payload

    def test_json_round_trip(self):
        rp = compute_rank_profile(2)
        again = RankProfile.from_json(rp.to_json())
        assert (again.a, again.b, again.c, again.dims) == (rp.a, rp.b, rp.c, rp.dims)


class TestCrossPrime:
    def test_agreement_n3(self):
        rp = cross_prime_profile(3)
        assert rp.primes == list(DEFAULT_PRIMES)
        assert rp.dims == [1, 0, 0, 0]

    def test_threads_do_not_change_results(self):
        rp1 = compute_rank_profile(3, threads=1)
        rp2 = compute_rank_profile(3, threads=2)
        assert (rp1.a, rp1.b, rp1.c, rp1.dims) == (rp2.a, rp2.b, rp2.c, rp2.dims)


class TestNegativeDimensionRetry:
    @staticmethod
    def _patch_rank(monkeypatch, per_prime):
        """Make c_p come out of ``per_prime[p](true rank)`` under GF(p)."""
        import outhom.pipeline as pipeline

        real = pipeline.rank_of

        def rank_of(m, f, max_nnz=None):
            rank = real(m, f, max_nnz)
            hook = per_prime.get(f.p)
            return rank if hook is None else hook(rank)

        monkeypatch.setattr(pipeline, "rank_of", rank_of)

    def test_second_prime_recovers(self, monkeypatch):
        self._patch_rank(monkeypatch, {DEFAULT_PRIMES[0]: lambda r: r + 1})
        rp = compute_rank_profile(3)
        assert rp.field == str(DEFAULT_PRIMES[1])
        assert rp.primes == [DEFAULT_PRIMES[1]]
        assert rp.dims == [1, 0, 0, 0]
        assert rp.c == compute_rank_profile(3, f=FieldSpec.rational()).c

    def test_real_errors_propagate(self, monkeypatch):
        from outhom.chain import InconsistencyError

        def broken(rank):
            raise InconsistencyError("boundary target missing")

        self._patch_rank(
            monkeypatch, {DEFAULT_PRIMES[0]: lambda r: r + 1, DEFAULT_PRIMES[1]: broken}
        )
        with pytest.raises(InconsistencyError):
            compute_rank_profile(3)
