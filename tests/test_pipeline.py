from __future__ import annotations

import ast
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from outhom import artifacts
from outhom.artifacts import ArtifactStore
from outhom.chain import ClassStore, SparseIntMat, boundary_contract, boundary_remove, matmul
from outhom.exactla import DEFAULT_PRIMES, FieldSpec, nullspace_of, rank_of
from outhom.multigraph import Multigraph, apply_vertex_perm
from outhom.pipeline import (
    DEFAULT_MAX_BASIS,
    CrossPrimeError,
    NegativeDimensionError,
    RankProfile,
    compute_rank_profile,
    cross_prime_profile,
    default_p_range,
    homology_dimensions,
    _oracle_bases,
    oracle_full_complex,
    oracle_graphs,
)
from reference_chain import oracle_euler_characteristic


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
        for n in (3, 4, 5):
            rp_q = compute_rank_profile(n, f=FieldSpec.rational())
            rp_p = compute_rank_profile(n)
            assert rp_q.b == rp_p.b and rp_q.c == rp_p.c


class TestTwoFormulas:
    """The pipeline takes c_p = rank [d_C; d_R] - rank d_C; the definition,
    the rank of d_R on a kernel basis of d_C, must give the same number."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize(
        "f",
        [*(FieldSpec.prime(q) for q in DEFAULT_PRIMES), FieldSpec.rational()],
        ids=["gf1", "gf2", "q"],
    )
    def test_c_is_rank_of_removal_on_kernel(self, n, f, bases_by_rank, store):
        rp = compute_rank_profile(n, f=f)
        for p in range(1, 2 * n - 2):
            basis = bases_by_rank[n][p]
            dc = boundary_contract(basis, store)
            dr = boundary_remove(basis, bases_by_rank[n][p - 1], store)
            kernel = nullspace_of(dc, f)
            assert rp.c[p] == rank_of(matmul(dr, kernel.to_mat()), f), p


class TestOracle:
    def test_dims_n2(self):
        assert oracle_full_complex(2) == [1, 0]

    def test_dims_n3(self):
        assert oracle_full_complex(3) == [1, 0, 0, 0]

    def test_dims_n4(self):
        # H_4(Out(F_4); Q) = Q without the trivalent reduction
        assert [b.dim for b in _oracle_bases(4)[0]] == [43, 105, 124, 114, 82, 28]
        assert oracle_full_complex(4) == [1, 0, 0, 0, 1, 0]

    def test_rejects_large_rank(self):
        with pytest.raises(ValueError):
            oracle_full_complex(6)

    @pytest.mark.parametrize("n", [2, 3, 4])
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
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_full_complex_euler_equals_homology_euler(self, n):
        # the cell count alone, no rank: e(Out(F_n)) as Morita, Sakasai and
        # Suzuki tabulate it
        euler = {2: 1, 3: 1, 4: 2, 5: 1}[n]
        dims = compute_rank_profile(n).dims
        assert oracle_euler_characteristic(n) == euler
        assert euler == sum((-1) ** p * d for p, d in enumerate(dims))

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

    @pytest.mark.parametrize("f", [None, FieldSpec.rational()], ids=["65521", "rational"])
    def test_nnz_cap_hole_sets_n4(self, f):
        # the cap bounds the live nnz of the whole matrix before the peel and
        # the fill of the core after it, so each set is the one computed
        # when the elimination ran on the whole matrix
        want = {
            3: [1, 2, 3, 4, 5], 50: [2, 3, 4, 5], 100: [3, 4, 5], 150: [4, 5], 188: [4],
            200: [], 1000: [],
        }
        for cap, holes in want.items():
            assert compute_rank_profile(4, f=f, max_nnz=cap).holes == holes, cap

    def test_hole_lines_name_their_stage(self, capsys, monkeypatch):
        compute_rank_profile(4, max_nnz=3)
        compute_rank_profile(4, max_nnz=188)
        real = artifacts.assemble

        def assemble(b, parts, store, target=None):
            if b.p == 2 and parts == (("remove", 1),):
                raise MemoryError
            return real(b, parts, store, target)

        monkeypatch.setattr(artifacts, "assemble", assemble)
        assert compute_rank_profile(3).holes == [2]
        err = capsys.readouterr().err.splitlines()
        assert err[0] == (
            "n=4 p=1: rank dc: input nnz 12 exceeded cap 3 at dc 8 x 12, nnz 12; "
            "leaving a hole"
        )
        assert err[5:] == [
            "n=4 p=4: rank [dc; dr]: input nnz 191 exceeded cap 188 "
            "at [dc; dr] 83 x 35, nnz 191; leaving a hole",
            "n=3 p=2: dr: out of memory (MemoryError()) at a_2=1, a_1=3; leaving a hole",
        ]

    def test_c_above_a_basis_hole_is_a_hole(self, capsys):
        rp = compute_rank_profile(4, max_basis=30)
        assert rp.holes == [4, 5]
        assert rp.a[5] is not None and rp.c[5] is None and rp.dims[5] is None
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "n=4 p=4: basis: basis cap 30 exceeded at n=4 p=4; leaving a hole",
            "n=4 p=5: dr: c_5 needs the p=4 basis, which is a hole; leaving a hole",
        ]

    def test_input_nnz_over_cap_leaves_hole(self):
        # no elimination at n = 3 grows past its input nnz, so only the
        # check of the input can see this cap
        rp = compute_rank_profile(3, max_nnz=1)
        assert rp.holes
        assert all(x is not None for x in rp.a)


class TestCaching:
    def test_report_byte_identical_from_cache(self, tmp_path):
        cache = str(tmp_path)
        rp1 = compute_rank_profile(3, cache_dir=cache)
        text1 = (tmp_path / "report-n3-65521.json").read_text()
        rp2 = compute_rank_profile(3, cache_dir=cache)
        assert rp2.from_cache
        assert rp2.to_json() == text1 == rp1.to_json()

    def test_report_round_trips_byte_for_byte(self):
        # the report a cached run prints is to_json of the parsed file
        profiles = [
            compute_rank_profile(3),
            compute_rank_profile(4, f=FieldSpec.rational()),
            compute_rank_profile(4, max_basis=5),
            compute_rank_profile(5, p_range=[0, 1, 4]),
            cross_prime_profile(3),
        ]
        assert profiles[2].holes
        for rp in profiles:
            text = rp.to_json()
            again = RankProfile.from_json(text)
            assert again.from_cache and again.to_json() == text

    def test_artifacts_resume_to_same_ranks(self, tmp_path):
        cache = str(tmp_path)
        rp1 = compute_rank_profile(3, cache_dir=cache)
        (tmp_path / "report-n3-65521.json").unlink()
        rp2 = compute_rank_profile(3, cache_dir=cache)
        assert not rp2.from_cache
        assert (rp1.a, rp1.b, rp1.c, rp1.dims) == (rp2.a, rp2.b, rp2.c, rp2.dims)

    def test_expected_cache_files(self, tmp_path):
        # one file per artifact: no row labels beside a matrix, no class
        # count beside a graph list
        compute_rank_profile(2, cache_dir=str(tmp_path))
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "graphs-n2-trivalent.txt",
            "basis-n2-p0.txt",
            "basis-n2-p1.txt",
            "dc-n2-p0.txt",
            "dc-n2-p1.txt",
            "dr-n2-p1.txt",
            "report-n2-65521.json",
        }

    def test_report_json_fields(self, tmp_path):
        compute_rank_profile(2, cache_dir=str(tmp_path))
        payload = json.loads((tmp_path / "report-n2-65521.json").read_text())
        for key in ("n", "primes", "a", "b", "c", "dims", "timings"):
            assert key in payload

    def test_reports_per_field(self, tmp_path):
        cache = str(tmp_path)
        prime = compute_rank_profile(3, cache_dir=cache)
        rational = compute_rank_profile(3, f=FieldSpec.rational(), cache_dir=cache)
        assert (tmp_path / "report-n3-65521.json").exists()
        assert (tmp_path / "report-n3-rational.json").exists()
        for f, first in ((None, prime), (FieldSpec.rational(), rational)):
            again = compute_rank_profile(3, f=f, cache_dir=cache)
            assert again.from_cache and again.to_json() == first.to_json()

    def test_lower_cap_is_not_served_from_cache(self, tmp_path):
        cache = str(tmp_path)
        full = compute_rank_profile(4, cache_dir=cache)
        assert not full.holes and full.max_basis == DEFAULT_MAX_BASIS
        capped = compute_rank_profile(4, cache_dir=cache, max_basis=5)
        fresh = compute_rank_profile(4, max_basis=5)
        assert not capped.from_cache
        assert capped.holes == fresh.holes == [1, 2, 3, 4, 5]

    def test_higher_caps_are_served_from_cache(self, tmp_path):
        cache = str(tmp_path)
        compute_rank_profile(3, cache_dir=cache, max_nnz=1000, max_basis=100)
        again = compute_rank_profile(3, cache_dir=cache, max_nnz=2000, max_basis=100)
        assert again.from_cache and not again.holes

    def test_report_without_caps_is_recomputed(self, tmp_path):
        cache = str(tmp_path)
        compute_rank_profile(3, cache_dir=cache)
        path = tmp_path / "report-n3-65521.json"
        payload = json.loads(path.read_text())
        del payload["max_basis"]
        text = json.dumps(payload)
        with pytest.raises(TypeError):
            RankProfile.from_json(text)
        path.write_text(text)
        again = compute_rank_profile(3, cache_dir=cache)
        assert not again.from_cache and not again.holes
        assert "max_basis" in json.loads(path.read_text())
        # a report of the format that still recorded a class cap
        payload = json.loads(path.read_text())
        payload["max_classes"] = 10_000_000
        text = json.dumps(payload)
        with pytest.raises(TypeError):
            RankProfile.from_json(text)
        path.write_text(text)
        again = compute_rank_profile(3, cache_dir=cache)
        assert not again.from_cache and not again.holes
        assert "max_classes" not in json.loads(path.read_text())

    def test_json_round_trip(self):
        rp = compute_rank_profile(2)
        again = RankProfile.from_json(rp.to_json())
        assert (again.a, again.b, again.c, again.dims) == (rp.a, rp.b, rp.c, rp.dims)


def _artifact_digests(cache: Path) -> dict[str, str]:
    """SHA-256 of every artifact except the report, which holds timings."""
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(cache.iterdir())
        if not f.name.startswith("report-")
    }


@pytest.fixture(scope="module")
def fresh_caches(tmp_path_factory):
    out = {}
    for n in (4, 5):
        cache = tmp_path_factory.mktemp(f"fresh-n{n}")
        compute_rank_profile(n, cache_dir=str(cache))
        out[n] = cache
    return out


class TestArtifactBytes:
    """Artifacts are pinned byte for byte; engine changes must keep pivots,
    orbits, signs and kernels as they are."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_fresh_run_matches_golden_digests(self, fresh_caches, n):
        golden = json.loads(
            (Path(__file__).parent / "data" / "artifact_digests.json").read_text()
        )
        assert _artifact_digests(fresh_caches[n]) == golden[f"n{n}"]

    def test_fresh_n7_low_matches_golden_digests(self, tmp_path):
        # rank 7 has the largest insertion step (7920 edge pairs in 2793
        # orbits) and 365 classes, so it pins the pruned searches at scale
        golden = json.loads(
            (Path(__file__).parent / "data" / "artifact_digests.json").read_text()
        )
        compute_rank_profile(7, p_range=[0, 1], cache_dir=str(tmp_path))
        assert _artifact_digests(tmp_path) == golden["n7-p01"]

    def test_fresh_n6_top_matches_golden_digests(self, tmp_path):
        # the top level of rank 6 is one 11035-column block, so this pins
        # boundary assembly and the orbit kernel at the scale they are tuned for
        golden = json.loads(
            (Path(__file__).parent / "data" / "artifact_digests.json").read_text()
        )
        compute_rank_profile(6, p_range=[0, 1, 9], cache_dir=str(tmp_path))
        assert _artifact_digests(tmp_path) == golden["n6-p019"]

    def test_resumed_run_writes_same_artifacts(self, fresh_caches, tmp_path):
        # the resume reads graphs and bases, and must rebuild the matrices
        cache = tmp_path / "cache"
        shutil.copytree(fresh_caches[5], cache)
        for f in cache.iterdir():
            if f.name.startswith(("dc-", "dr-", "report-")):
                f.unlink()
        compute_rank_profile(5, cache_dir=str(cache))
        assert _artifact_digests(cache) == _artifact_digests(fresh_caches[5])


def _resumable_copy(src: Path, dst: Path) -> Path:
    """A copy of a cache with the reports dropped, so a run resumes from it."""
    shutil.copytree(src, dst)
    for f in dst.glob("report-*"):
        f.unlink()
    return dst


def _relabeled(line: str) -> str:
    """A graph or basis line with its graph under the reversed vertex labeling."""
    graph, sep, forest = line.partition(" | F=")
    g = Multigraph.from_text(graph)
    return apply_vertex_perm(g, list(range(g.vertex_count))[::-1]).to_text() + sep + forest


class TestArtifactStore:
    """Loads are checked before they are served, and resuming costs no more
    canonical searches than there are classes."""

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("graphs-n4-trivalent.txt", "relabel"),
            ("graphs-n4-trivalent.txt", "no graph"),
            ("basis-n4-p2.txt", "relabel"),
            ("basis-n4-p2.txt", "non-ascii"),
            ("basis-n4-p2.txt", "F=40,41"),
            ("basis-n4-p2.txt", "F=2,6,7"),
            ("dc-n4-p3.txt", "truncate"),
            ("dc-n4-p3.txt", "extra row"),
            ("dr-n4-p3.txt", "extra row"),
        ],
        ids=[
            "graphs-n4-trivalent.txt",
            "graphs-n4-trivalent.txt-line-not-a-graph",
            "basis-n4-p2.txt",
            "basis-n4-p2.txt-non-ascii",
            "basis-n4-p2.txt-forest-past-the-edges",
            "basis-n4-p2.txt-forest-of-three",
            "dc-n4-p3.txt",
            "dc-n4-p3.txt-rows-above-nnz",
            "dr-n4-p3.txt-rows-off-basis",
        ],
    )
    def test_stale_file_is_recomputed(self, fresh_caches, tmp_path, name, edit):
        # graph and basis files get one line relabeled, so that it is not
        # canonical, or a line that does not parse, or a non-ASCII byte; the
        # last basis line's forest gets positions past its graph's nine
        # edges, or three positions at p = 2, both still in key order, with
        # the matrices gone so that a served basis would be assembled.  A
        # matrix file loses its last line, or its header gains a row: a dc
        # row count above its nnz, or a dr row count other than a_2, the
        # size of the basis that names its rows; the entries still fit the
        # shape, so only the header check sees the extra row
        cache = _resumable_copy(fresh_caches[4], tmp_path / "cache")
        path = cache / name
        lines = path.read_text().splitlines()
        if edit == "truncate":
            lines.pop()
        elif edit == "extra row":
            rows, cols, nnz = lines[0].split()
            rows = str(int(nnz) + 1 if name.startswith("dc-") else int(rows) + 1)
            lines[0] = f"{rows} {cols} {nnz}"
        elif edit == "no graph":
            lines[0] = "V=2 E=0-1,0-1,0-x"
        elif edit == "non-ascii":
            lines[0] = "\u00e9" + lines[0]
        elif edit.startswith("F="):
            lines[-1] = lines[-1].partition(" | F=")[0] + " | " + edit
            assert artifacts.parse_label(lines[-2]) < artifacts.parse_label(lines[-1])
            # a run cut before its matrices, so the resume assembles on the basis
            for f in cache.glob("d[cr]-*"):
                f.unlink()
        else:
            i = next(i for i, line in enumerate(lines) if _relabeled(line) != line)
            lines[i] = _relabeled(lines[i])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rp = compute_rank_profile(4, cache_dir=str(cache))
        fresh = compute_rank_profile(4)
        assert (rp.a, rp.b, rp.c, rp.dims) == (fresh.a, fresh.b, fresh.c, fresh.dims)
        golden = json.loads(
            (Path(__file__).parent / "data" / "artifact_digests.json").read_text()
        )
        assert _artifact_digests(cache) == golden["n4"]

    @pytest.mark.parametrize("edit", ["swap", "repeat"])
    def test_basis_out_of_key_order_is_recomputed(self, fresh_caches, tmp_path, edit):
        # two canonical lines swapped, or one given twice in place of the
        # next: assembly into a basis walks it in key order
        cache = _resumable_copy(fresh_caches[4], tmp_path / "cache")
        path = cache / "basis-n4-p2.txt"
        lines = path.read_text().splitlines()
        lines[1] = lines[0] if edit == "repeat" else lines[1]
        lines[0], lines[1] = lines[1], lines[0]
        path.write_text("\n".join(lines) + "\n")
        rp = compute_rank_profile(4, cache_dir=str(cache))
        assert rp.dims == [1, 0, 0, 0, 1, 0] and not rp.holes
        golden = json.loads(
            (Path(__file__).parent / "data" / "artifact_digests.json").read_text()
        )
        assert _artifact_digests(cache) == golden["n4"]

    def test_repeated_matrix_entry_is_recomputed(self, fresh_caches, tmp_path):
        # one entry line twice, with the header's count raised to match
        cache = _resumable_copy(fresh_caches[4], tmp_path / "cache")
        path = cache / "dc-n4-p3.txt"
        header, *entries = path.read_text().splitlines()
        rows, cols, nnz = header.split()
        lines = [f"{rows} {cols} {int(nnz) + 1}", *entries, entries[-1]]
        path.write_text("\n".join(lines) + "\n")
        compute_rank_profile(4, cache_dir=str(cache))
        golden = json.loads(
            (Path(__file__).parent / "data" / "artifact_digests.json").read_text()
        )
        assert _artifact_digests(cache) == golden["n4"]

    @pytest.mark.parametrize("field", ["value", "cols"])
    def test_matrix_too_big_to_hold_is_recomputed(self, fresh_caches, tmp_path, capsys, field):
        # an int64 array cannot hold the value, and a counting sort over a
        # declared 10^17 columns cannot be allocated; either way the file is
        # rewritten, with no crash and no hole
        from outhom.cli import main

        cache = _resumable_copy(fresh_caches[4], tmp_path / "cache")
        path = cache / "dc-n4-p3.txt"
        header, first, *rest = path.read_text().splitlines()
        rows, cols, nnz = header.split()
        row, col, value = first.split()
        if field == "value":
            value = "99999999999999999999999"
        else:
            cols = str(10**17)
        lines = [f"{rows} {cols} {nnz}", f"{row} {col} {value}", *rest]
        path.write_text("\n".join(lines) + "\n")
        assert main(["homology", "--n", "4", "--cache-dir", str(cache)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        golden = json.loads(
            (Path(__file__).parent / "data" / "artifact_digests.json").read_text()
        )
        assert _artifact_digests(cache) == golden["n4"]
        assert compute_rank_profile(4, cache_dir=str(cache)).dims == compute_rank_profile(4).dims

    def test_matrix_header_is_checked_before_the_parse(
        self, bases_by_rank, tmp_path, monkeypatch
    ):
        # a header that does not fit the basis, the target or the entry
        # count is stale before any entry is parsed, and the file is
        # rewritten; an unknown kind raises
        basis, lower = bases_by_rank[4][3], bases_by_rank[4][2]
        cache = ArtifactStore(str(tmp_path))
        want = {
            "dc": cache.matrix("dc", basis, ClassStore()),
            "dr": cache.matrix("dr", basis, ClassStore(), lower),
        }
        good = {kind: (tmp_path / f"{kind}-n4-p3.txt").read_bytes() for kind in want}
        parsed = []
        real = SparseIntMat.from_lines
        monkeypatch.setattr(
            SparseIntMat, "from_lines", staticmethod(lambda lines: parsed.append(1) or real(lines))
        )
        for kind, shape in [
            ("dc", lambda r, c, z: (z + 1, c)),
            ("dc", lambda r, c, z: (r, c + 1)),
            ("dr", lambda r, c, z: (r - 1, c)),
            ("dr", lambda r, c, z: (r, c - 1)),
        ]:
            path = tmp_path / f"{kind}-n4-p3.txt"
            header, *entries = good[kind].decode("ascii").splitlines()
            rows, cols, nnz = map(int, header.split())
            rows, cols = shape(rows, cols, nnz)
            path.write_text("\n".join([f"{rows} {cols} {nnz}", *entries]) + "\n")
            got = cache.matrix(kind, basis, ClassStore(), lower if kind == "dr" else None)
            assert parsed == [] and path.read_bytes() == good[kind]
            assert (got.rows, got.cols, got.entries) == (
                want[kind].rows, want[kind].cols, want[kind].entries,
            )
        with pytest.raises(ValueError):
            cache.matrix("dx", basis, ClassStore())

    def test_resume_searches_once_per_class(self, fresh_caches, tmp_path, monkeypatch):
        import outhom.multigraph as multigraph

        cache = _resumable_copy(fresh_caches[5], tmp_path / "cache")
        classes = len((cache / "graphs-n5-trivalent.txt").read_text().splitlines())
        assert classes == 16
        real = multigraph._canonical_search
        calls = []

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(multigraph, "_canonical_search", counting)
        rp = compute_rank_profile(5, cache_dir=str(cache))
        assert not rp.from_cache and not rp.holes
        assert len(calls) <= classes

    def test_resumed_run_keeps_basis_cap(self, fresh_caches, tmp_path):
        cache = _resumable_copy(fresh_caches[4], tmp_path / "cache")
        resumed = compute_rank_profile(4, cache_dir=str(cache), max_basis=5)
        fresh = compute_rank_profile(4, max_basis=5)
        assert resumed.holes == fresh.holes == [1, 2, 3, 4, 5]
        assert resumed.a == fresh.a


def test_pipeline_never_builds_entry_tuples(tmp_path, monkeypatch):
    """Profiles, fresh and resumed from a cache, and the oracle read the
    entry arrays only; ``SparseIntMat.entries`` is for tests."""

    def entries(self):
        raise AssertionError("SparseIntMat.entries read")

    monkeypatch.setattr(SparseIntMat, "entries", property(entries))
    for _ in range(2):
        assert compute_rank_profile(4, cache_dir=str(tmp_path)).dims == [1, 0, 0, 0, 1, 0]
        (tmp_path / "report-n4-65521.json").unlink()
    assert compute_rank_profile(3, f=FieldSpec.rational()).dims == [1, 0, 0, 0]
    assert oracle_full_complex(3) == [1, 0, 0, 0]


def test_cli_imports_no_private_name():
    import outhom.cli

    tree = ast.parse(Path(outhom.cli.__file__).read_text())
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("outhom"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


class TestCrossPrime:
    def test_agreement_n3(self):
        rp = cross_prime_profile(3)
        assert rp.primes == list(DEFAULT_PRIMES)
        assert rp.dims == [1, 0, 0, 0]

    def test_both_primes_keep_their_reports(self, tmp_path):
        rp = cross_prime_profile(3, cache_dir=str(tmp_path))
        names = {f.name for f in tmp_path.glob("report-*")}
        assert names == {f"report-n3-{q}.json" for q in DEFAULT_PRIMES}
        again = cross_prime_profile(3, cache_dir=str(tmp_path))
        assert again.from_cache and again.to_json() == rp.to_json()

    def test_equal_primes_rejected(self):
        # one prime run twice always agrees with itself
        with pytest.raises(ValueError, match="must differ"):
            cross_prime_profile(2, primes=(DEFAULT_PRIMES[0], DEFAULT_PRIMES[0]))

    @pytest.mark.parametrize("primes", [DEFAULT_PRIMES, DEFAULT_PRIMES[::-1]])
    def test_run_that_falls_back_is_rejected(self, monkeypatch, primes):
        # GF(65521) loses a rank and its run comes back over GF(65519); in
        # either order the two runs would be GF(65519) twice
        import outhom.pipeline as pipeline

        real = pipeline.homology_dimensions

        def homology_dimensions(rp):
            if rp.field == "65521":
                raise NegativeDimensionError("lost a rank")
            return real(rp)

        monkeypatch.setattr(pipeline, "homology_dimensions", homology_dimensions)
        with pytest.raises(CrossPrimeError, match=r"^GF\(65521\) lost a rank at n=3"):
            cross_prime_profile(3, primes=primes)

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
