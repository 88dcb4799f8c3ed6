from __future__ import annotations

import json

import pytest

from outhom.cli import main


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

    def test_resource_cap_exit_2(self, capsys):
        code, out, _ = run_cli(capsys, "homology", "--n", "3", "--max-basis", "1")
        assert code == 2
        assert "holes" in out

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

    def test_p_and_pmax_conflict(self, capsys):
        code, _, _ = run_cli(capsys, "homology", "--n", "3", "--p", "1", "--p-max", "2")
        assert code == 1

    def test_composite_prime_rejected(self, capsys):
        code, _, err = run_cli(capsys, "homology", "--n", "2", "--prime", "65520")
        assert code == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["homology", "--bogus"]) == 1


class TestGraphsBasisMatrices:
    def test_graphs_count_only(self, capsys):
        code, out, _ = run_cli(capsys, "graphs", "--n", "3", "--trivalent", "--count-only")
        assert code == 0 and out.strip() == "2"

    def test_graphs_listing(self, capsys):
        code, out, _ = run_cli(capsys, "graphs", "--n", "2")
        assert code == 0 and out.strip() == "V=2 E=0-1,0-1,0-1"

    def test_basis_count(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--n", "3", "--p", "1", "--count-only")
        assert code == 0 and out.strip() == "3"

    def test_matrices_shapes(self, capsys):
        code, out, _ = run_cli(capsys, "matrices", "--n", "3", "--p", "1")
        assert code == 0
        assert "contraction boundary" in out and "removal boundary" in out


class TestOracleAndCheck:
    def test_oracle_n2(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "2")
        assert code == 0 and out.strip() == "dims: 1,0"

    def test_oracle_rejects_n4(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--n", "4")
        assert code == 1

    def test_check_n2(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n", "2")
        assert code == 0 and "match" in out


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
        assert (tmp_path / "report-n2.json").exists()


class TestRunContract:
    def test_structured_output_parses_despite_holes(self, capsys):
        code, out, err = run_cli(
            capsys, "homology", "--n", "4", "--max-nnz", "3", "--format", "structured"
        )
        assert code == 2
        report = json.loads(out)
        assert report["holes"] == [4, 5]
        assert "n=4 p=4:" in err and "n=4 p=5:" in err and "leaving a hole" in err

    def test_holed_report_is_recomputed_not_served(self, tmp_path, capsys):
        capped = ("homology", "--n", "4", "--max-nnz", "3", "--cache-dir", str(tmp_path))
        code, out, _ = run_cli(capsys, *capped)
        assert code == 2 and "holes" in out
        code, out, _ = run_cli(capsys, *capped[:3], *capped[5:])
        assert code == 0
        assert "holes" not in out
        assert "dims: 1,0,0,0,1,0" in out
