from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import outhom
from outhom.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHomology:
    def test_n2_table(self, capsys):
        code, out, _ = run_cli(capsys, "homology", "--n", "2")
        assert code == 0
        assert "dims: 1,0" in out

    def test_n4_dims_line(self, capsys):
        code, out, _ = run_cli(capsys, "homology", "--n", "4")
        assert code == 0
        assert "dims: 1,0,0,0,1,0" in out

    def test_n3_structured(self, capsys):
        code, out, _ = run_cli(capsys, "homology", "--n", "3", "--format", "structured")
        assert code == 0
        assert '"dims"' in out

    def test_deterministic_stdout(self, capsys):
        _, out1, _ = run_cli(capsys, "homology", "--n", "3")
        _, out2, _ = run_cli(capsys, "homology", "--n", "3")
        assert out1 == out2

    def test_threads_flag_same_output(self, capsys):
        _, out1, _ = run_cli(capsys, "homology", "--n", "3", "--threads", "1")
        _, out2, _ = run_cli(capsys, "homology", "--n", "3", "--threads", "2")
        assert out1 == out2

    def test_structured_byte_identical_with_cache(self, tmp_path, capsys):
        args = ("homology", "--n", "2", "--format", "structured",
                "--cache-dir", str(tmp_path))
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_second_prime_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, "homology", "--n", "2", "--second-prime", "65519"
        )
        assert code == 0 and "dims: 1,0" in out

    def test_second_prime_rejected_with_rational(self, capsys):
        code, out, err = run_cli(
            capsys, "homology", "--n", "2", "--rational", "--second-prime", "65519"
        )
        assert code == 1 and out == ""
        assert "--rational" in err

    @pytest.mark.parametrize("second", ["65519", "65521"])
    def test_second_prime_run_that_falls_back_exits_3(self, capsys, monkeypatch, second):
        # GF(65521) loses a rank, so its run comes back over GF(65519)
        import outhom.pipeline as pipeline

        real = pipeline.homology_dimensions

        def homology_dimensions(rp):
            if rp.field == "65521":
                raise pipeline.NegativeDimensionError("lost a rank")
            return real(rp)

        monkeypatch.setattr(pipeline, "homology_dimensions", homology_dimensions)
        first = "65519" if second == "65521" else "65521"
        code, out, err = run_cli(
            capsys, "homology", "--n", "2", "--prime", first, "--second-prime", second
        )
        assert code == 3 and out == ""
        assert err == "rank failure: GF(65521) lost a rank at n=2; it came back over 65519\n"

    def test_second_prime_equal_to_prime_rejected(self, capsys):
        code, out, err = run_cli(capsys, "homology", "--n", "2", "--second-prime", "65521")
        assert code == 1 and out == ""
        assert "the two primes must differ" in err

    def test_resource_cap_exit_2(self, capsys):
        code, out, _ = run_cli(capsys, "homology", "--n", "3", "--max-basis", "1")
        assert code == 2
        assert "holes" in out

    def test_hole_below_makes_c_a_hole(self, capsys):
        # the cap stops the p = 4 basis; c_5 needs it, so p = 5 is a hole too
        code, out, err = run_cli(
            capsys, "homology", "--n", "4", "--max-basis", "30",
            "--format", "structured",
        )
        assert code == 2
        report = json.loads(out)
        assert report["holes"] == [4, 5]
        assert report["a"][5] == 28 and report["c"][5] is None
        assert "n=4 p=5: dr: c_5 needs the p=4 basis, which is a hole" in err

    def test_rational_size_limit_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "homology", "--n", "4", "--rational", "--max-nnz", "3",
            "--format", "structured",
        )
        assert code == 2
        report = json.loads(out)
        assert report["field"] == "rational" and report["holes"]
        assert "leaving a hole" in err

    def test_p_max(self, capsys):
        code, out, _ = run_cli(capsys, "homology", "--n", "3", "--p-max", "1")
        assert code == 0
        assert "dims: 1,-,-,-" in out


class TestValidation:
    def test_n_too_small(self, capsys):
        code, _, err = run_cli(capsys, "homology", "--n", "1")
        assert code == 1 and "at least 2" in err

    def test_p_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "homology", "--n", "3", "--p", "9")
        assert code == 1

    @pytest.mark.parametrize("p_max", ["-1", "-4"])
    def test_p_max_below_zero_rejected(self, capsys, p_max):
        code, out, err = run_cli(capsys, "homology", "--n", "3", "--p-max", p_max)
        assert code == 1 and out == ""
        assert err == "error: forest sizes must lie in [0, 3]\n"

    def test_p_and_pmax_conflict(self, capsys):
        code, _, _ = run_cli(capsys, "homology", "--n", "3", "--p", "1", "--p-max", "2")
        assert code == 1

    def test_composite_prime_rejected(self, capsys):
        code, _, err = run_cli(capsys, "homology", "--n", "2", "--prime", "65520")
        assert code == 1

    @pytest.mark.parametrize("command", ["graphs", "basis", "homology"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, capsys, command, threads):
        code, out, err = run_cli(capsys, command, "--n", "3", "--threads", threads)
        assert code == 1 and out == ""
        assert "error: --threads must be at least 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("basis", "--n", "3", "--p", "1", "--max-basis"),
            ("matrices", "--n", "3", "--max-basis"),
            ("homology", "--n", "3", "--max-basis"),
            ("homology", "--n", "3", "--max-nnz"),
            ("check", "--n", "3", "--max-basis"),
            ("check", "--n", "3", "--max-nnz"),
        ],
    )
    def test_negative_cap_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "-1")
        assert (code, out, err) == (1, "", f"error: {argv[-1]} must be at least 0\n")

    @pytest.mark.parametrize(
        "argv, below",
        [(("homology", "--n", "2"), ""), (("graphs", "--n", "3"), "x")],
    )
    def test_unusable_cache_dir_is_an_error(self, tmp_path, capsys, argv, below):
        # a regular file where the cache directory, or one of its parents, should be
        cache = tmp_path / "file"
        cache.write_text("")
        code, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache / below))
        assert code == 1 and out == ""
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["homology", "--bogus"]) == 1


# The flags each subcommand reads, positionals by name.
SUBCOMMAND_FLAGS = {
    "graphs": {"--n", "--threads", "--cache-dir", "--count-only", "--max-degree",
               "--allow-loops"},
    "basis": {"--n", "--p", "--threads", "--cache-dir", "--count-only", "--max-basis"},
    "matrices": {"--n", "--p", "--threads", "--cache-dir", "--max-basis"},
    "homology": {"--n", "--p", "--p-max", "--prime", "--second-prime", "--rational",
                 "--threads", "--cache-dir", "--format", "--max-nnz", "--max-basis"},
    "oracle": {"--n"},
    "check": {"--n", "--prime", "--rational", "--cache-dir", "--max-nnz", "--max-basis"},
    "verify-cycle": {"file", "--n", "--p", "--threads", "--cache-dir"},
}


class TestFlagSets:
    def test_each_subcommand_has_exactly_its_flags(self):
        subs = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        got = {
            name: {
                a.option_strings[0] if a.option_strings else a.dest
                for a in sp._actions
                if a.dest != "help"
            }
            for name, sp in subs.choices.items()
        }
        assert got == SUBCOMMAND_FLAGS
        assert sum(map(len, got.values())) == 40

    @pytest.mark.parametrize("argv, unread", [
        (("basis", "--n", "4", "--p-max", "2", "--count-only"), "--p-max 2"),
        (("matrices", "--n", "3", "--p-max", "1"), "--p-max 1"),
        (("graphs", "--n", "3", "--p", "1"), "--p 1"),
        (("graphs", "--n", "3", "--trivalent"), "--trivalent"),
        (("homology", "--n", "2", "--count-only"), "--count-only"),
        (("oracle", "--n", "2", "--prime", "65519"), "--prime 65519"),
        (("check", "--n", "2", "--second-prime", "65519"), "--second-prime 65519"),
        (("check", "--n", "2", "--p", "1"), "--p 1"),
        (("check", "--n", "2", "--threads", "2"), "--threads 2"),
        (("verify-cycle", "w", "--n", "2", "--p", "1", "--max-basis", "9"), "--max-basis 9"),
    ])
    def test_flag_not_read_is_rejected(self, capsys, argv, unread):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"usage: outhom {argv[0]} [-h] ")
        assert f"outhom {argv[0]}: error: unrecognized arguments: {unread}\n" in err


def test_readme_command_lines_parse():
    """Every ``outhom ...`` line of README's Command line block parses."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    argvs = [shlex.split(line)[1:] for line in lines if line.startswith("outhom ")]
    assert len(argvs) >= 8
    parser = build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: outhom {' '.join(argv)}")


class TestGraphsBasisMatrices:
    def test_graphs_count_only(self, capsys):
        code, out, _ = run_cli(capsys, "graphs", "--n", "3", "--count-only")
        assert code == 0 and out.strip() == "2"

    def test_graphs_listing(self, capsys):
        code, out, _ = run_cli(capsys, "graphs", "--n", "2")
        assert code == 0 and out.strip() == "V=2 E=0-1,0-1,0-1"

    def test_basis_count(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--n", "3", "--p", "1", "--count-only")
        assert code == 0 and out.strip() == "3"

    def test_basis_listing(self, capsys, bases_by_rank):
        # one label per element, in basis order, each parsing back to its key
        from outhom.artifacts import parse_label

        code, out, err = run_cli(capsys, "basis", "--n", "3", "--p", "1")
        assert code == 0 and err == ""
        keys = [el.key for el in bases_by_rank[3][1].elements]
        assert [parse_label(line) for line in out.splitlines()] == keys
        assert len(keys) == 3

    def test_matrices_shapes(self, capsys):
        code, out, _ = run_cli(capsys, "matrices", "--n", "3", "--p", "1")
        assert code == 0
        assert "contraction boundary" in out and "removal boundary" in out


class TestOracleAndCheck:
    def test_oracle_n2(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "2")
        assert code == 0 and out.strip() == "dims: 1,0"

    def test_oracle_rejects_n6(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--n", "6")
        assert code == 1 and out == ""
        assert err == "error: the full-complex oracle takes ranks 2 to 5\n"

    def test_check_rejects_n6(self, capsys):
        # the oracle's own limit, before any pipeline work
        code, out, err = run_cli(capsys, "check", "--n", "6")
        assert code == 1 and out == ""
        assert err == "error: the full-complex oracle takes ranks 2 to 5\n"

    def test_check_n2(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n", "2")
        assert code == 0 and "match" in out

    def test_check_n4(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n", "4")
        assert code == 0
        assert out.splitlines() == [
            "oracle dims:   1,0,0,0,1,0", "pipeline dims: 1,0,0,0,1,0", "match",
        ]


class TestVerifyCycle:
    def test_theta_file(self, tmp_path, capsys):
        path = tmp_path / "w"
        path.write_text("1 [0+1 0-1 0-1]\n")
        code, out, _ = run_cli(
            capsys, "verify-cycle", str(path), "--n", "2", "--p", "1"
        )
        assert code == 0
        assert "is_in_basis: True" in out
        assert "dR_zero: False" in out
        assert "cycle: no" in out

    def test_shape_mismatch(self, tmp_path, capsys):
        path = tmp_path / "w"
        path.write_text("1 [0+1 0-1 0-1]\n")
        code, _, err = run_cli(capsys, "verify-cycle", str(path), "--n", "3", "--p", "1")
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify-cycle", "/no/such/file", "--n", "2", "--p", "1")
        assert code == 1

    def test_builds_no_basis(self, tmp_path, capsys, monkeypatch, bases_by_rank, store):
        """The lines of a non-cycle, a term outside the basis and an n = 4,
        p = 4 cycle, with every way to build a basis made to raise."""
        import outhom.artifacts
        import outhom.chain
        from outhom.chain import SparseIntMat, boundary_contract, boundary_remove
        from outhom.cycleio import CycleVector, serialize_cycle
        from outhom.exactla import FieldSpec, nullspace_of

        basis = bases_by_rank[4][4]
        dc = boundary_contract(basis, store)
        dr = boundary_remove(basis, bases_by_rank[4][3], store)
        stacked = SparseIntMat(
            dc.rows + dr.rows, basis.dim,
            dc.entries + tuple((r + dc.rows, c, v) for r, c, v in dr.entries),
        )
        col = nullspace_of(stacked, FieldSpec.rational()).columns[0]
        morita = CycleVector(4, 4, tuple((v, basis.elements[i]) for i, v in sorted(col.items())))

        def no_basis(*args, **kwargs):
            raise AssertionError("verify-cycle built a basis")

        monkeypatch.setattr(outhom.chain, "build_chain_basis", no_basis)
        monkeypatch.setattr(outhom.artifacts, "build_chain_basis", no_basis)
        monkeypatch.setattr(outhom.artifacts.ArtifactStore, "basis", no_basis)
        cases = [
            ("1 [0+1 0-1 0-1]\n", "2", "1", ["1", "True", "False", "False", "no"], ""),
            ("1 [0+1 0-1 0-1 0-0]\n", "3", "1", ["1", "False", "False", "False", "no"],
             "missing: (b'V=2 E=0-1,0-1,0-1,1-1', (0,))\n"),
            ("\n".join(serialize_cycle(morita)) + "\n", "4", "4",
             [str(len(morita.terms)), "True", "True", "True", "yes"], ""),
        ]
        path = tmp_path / "w"
        for text, n, p, values, missing in cases:
            path.write_text(text)
            code, out, err = run_cli(capsys, "verify-cycle", str(path), "--n", n, "--p", p)
            fields = ("terms", "is_in_basis", "dC_zero", "dR_zero", "cycle")
            assert code == 0 and err == missing
            assert out.splitlines() == [f"{k}: {v}" for k, v in zip(fields, values)]

    def test_needs_p(self, tmp_path, capsys):
        path = tmp_path / "w"
        path.write_text("1 [0+1 0-1 0-1]\n")
        code, _, err = run_cli(capsys, "verify-cycle", str(path), "--n", "2")
        assert code == 1


class TestCacheEnv:
    def test_env_var_cache_dir(self, tmp_path, capsys, monkeypatch):
        from outhom.pipeline import CACHE_ENV_VAR

        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        code, _, _ = run_cli(capsys, "homology", "--n", "2")
        assert code == 0
        assert (tmp_path / "report-n2-65521.json").exists()


class TestRunContract:
    def test_structured_output_parses_despite_holes(self, capsys):
        code, out, err = run_cli(
            capsys, "homology", "--n", "4", "--max-nnz", "3", "--format", "structured"
        )
        assert code == 2
        report = json.loads(out)
        assert report["holes"] == [1, 2, 3, 4, 5]
        assert all(f"n=4 p={p}:" in err for p in report["holes"])
        assert "leaving a hole" in err

    def test_memory_error_is_a_hole(self, capsys, monkeypatch):
        import outhom.artifacts as artifacts

        real = artifacts.assemble

        def assemble(b, parts, store, target=None):
            # d_C at p = 2 is the first assembly on that basis
            if b.p == 2:
                raise MemoryError
            return real(b, parts, store, target)

        monkeypatch.setattr(artifacts, "assemble", assemble)
        code, out, err = run_cli(capsys, "homology", "--n", "3", "--format", "structured")
        assert code == 2
        assert json.loads(out)["holes"] == [2]
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0] == "n=3 p=2: dc: out of memory (MemoryError()) at a_2=1; leaving a hole"
        assert "Traceback" not in err

    def test_negative_dimension_after_every_retry_exits_3(self, capsys, monkeypatch):
        # every rank of a nonempty matrix one too high, under each field the
        # retry policy tries: b_1 = a_1 - 2 at n = 2
        import outhom.pipeline as pipeline

        real = pipeline.rank_of
        monkeypatch.setattr(
            pipeline, "rank_of", lambda m, f, *cap: real(m, f, *cap) + (m.rows > 0)
        )
        code, out, err = run_cli(capsys, "homology", "--n", "2")
        assert code == 3 and out == ""
        assert err == "rank failure: negative dimensions persisted for n=2 after prime retry\n"

    def test_rank_disagreement_between_primes_exits_3(self, capsys, monkeypatch):
        # GF(65519) loses the rank of d_C at p = 1, the one 1 x 1 matrix at
        # n = 2; no dimension goes negative, so no retry hides it
        import outhom.pipeline as pipeline

        real = pipeline.rank_of

        def rank_of(m, f, *cap):
            return real(m, f, *cap) - (f.p == 65519 and m.rows == 1)

        monkeypatch.setattr(pipeline, "rank_of", rank_of)
        code, out, err = run_cli(capsys, "homology", "--n", "2", "--second-prime", "65519")
        assert code == 3 and out == ""
        assert err == (
            "rank failure: rank disagreement between GF(65521) and GF(65519) at n=2: "
            "b [1, 0] vs [1, 1]; c [0, 0] vs [0, 1]\n"
        )

    def test_check_mismatch_exits_3(self, capsys, monkeypatch):
        import outhom.cli as cli

        monkeypatch.setattr(cli, "oracle_full_complex", lambda n: [1, 1])
        code, out, err = run_cli(capsys, "check", "--n", "2")
        assert code == 3 and err == "MISMATCH\n"
        assert out.splitlines() == ["oracle dims:   1,1", "pipeline dims: 1,0"]

    def test_cached_classes_over_the_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        # the class cap applies to a cached graph file before it is parsed
        import outhom.artifacts as artifacts

        cache = ("--cache-dir", str(tmp_path))
        assert run_cli(capsys, "graphs", "--n", "4", "--count-only", *cache)[:2] == (0, "5\n")
        monkeypatch.setattr(artifacts, "MAX_CLASSES", 4)
        code, out, err = run_cli(capsys, "homology", "--n", "4", *cache)
        assert code == 2 and out == ""
        assert err == "resource cap: class cap 4 exceeded\n"

    def test_holed_report_is_recomputed_not_served(self, tmp_path, capsys):
        capped = ("homology", "--n", "4", "--max-nnz", "3", "--cache-dir", str(tmp_path))
        code, out, _ = run_cli(capsys, *capped)
        assert code == 2 and "holes" in out
        code, out, _ = run_cli(capsys, *capped[:3], *capped[5:])
        assert code == 0
        assert "holes" not in out
        assert "dims: 1,0,0,0,1,0" in out

    def test_lower_cap_exits_2_with_or_without_cache(self, tmp_path, capsys):
        cache = ("--cache-dir", str(tmp_path))
        capped = ("homology", "--n", "4", "--max-basis", "5")
        assert run_cli(capsys, *capped)[0] == 2
        assert run_cli(capsys, "homology", "--n", "4", *cache)[0] == 0
        code, out, _ = run_cli(capsys, *capped, *cache)
        assert code == 2
        assert "holes (resource caps): 1,2,3,4,5" in out


def test_cli_import_leaves_numpy_out():
    src = str(Path(outhom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, outhom.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
