import json
import subprocess
import sys

import pytest

from bellclone import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCloneCommand:
    def test_two_state_run_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "clone", "--set", "two", "--pair", "B1,B3", "--input", "B3",
            "--n", "2", "--engine", "both",
        )
        assert code == 0
        assert "1 10 10" in out
        assert "ebits_consumed=1" in out
        assert "result: pass" in out

    def test_four_state_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "clone", "--set", "four", "--input", "B2", "--n", "3")
        assert code == 0
        assert "1 01 01 01" in out
        assert "ebits_consumed=2" in out

    def test_input_outside_pair_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "clone", "--set", "two", "--pair", "B1,B3", "--input", "B2", "--n", "2"
        )
        assert code == 2
        assert "outside the declared pair" in err

    def test_bad_label_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "clone", "--set", "two", "--pair", "B1,B9", "--input", "B1", "--n", "2"
        )
        assert code == 2
        assert "Bell label" in err

    def test_zero_copies_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "clone", "--set", "four", "--input", "B1", "--n", "0")
        assert code == 2

    def test_pair_flag_only_for_two(self, capsys):
        code, _, err = run_cli(
            capsys, "clone", "--set", "four", "--pair", "B1,B2", "--input", "B1", "--n", "2"
        )
        assert code == 2
        assert "--set two" in err

    def test_failed_verification_exits_one(self, capsys, monkeypatch):
        from bellclone.calculus import BellEnsemble
        from bellclone.labels import B2
        from bellclone.protocols import ResourceLedger

        def broken(input_state, pair, n):
            return BellEnsemble.point((B2,) * n), ResourceLedger(ebits_consumed=float(n - 1))

        monkeypatch.setattr(cli.protocols, "clone_pair_1_to_n", broken)
        code, out, _ = run_cli(
            capsys,
            "clone", "--set", "two", "--pair", "B1,B3", "--input", "B1",
            "--n", "2", "--engine", "symbolic",
        )
        assert code == 1
        assert "FAIL" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "clone", "--set", "two", "--pair", "B1,B2", "--input", "B2",
            "--n", "3", "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["passed"] is True
        assert record["ledger"]["ebits_consumed"] == 2.0
        assert record["ensemble"] == "1 01 01 01\n"


class TestPrepareCommand:
    def test_m4(self, capsys):
        code, out, _ = run_cli(capsys, "prepare", "--m", "4")
        assert code == 0
        for line in ("0.25 00 00 00 00", "0.25 11 11 11 11", "ebits_consumed=2"):
            assert line in out

    def test_m1_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "prepare", "--m", "1")
        assert code == 2


class TestTeleportCommand:
    @pytest.mark.parametrize("channel", ["smolin", "ideal"])
    def test_bell_state_teleports(self, capsys, channel):
        code, out, _ = run_cli(capsys, "teleport", "--channel", channel, "--input", "B1")
        assert code == 0
        assert "fidelity: 1" in out
        assert "output: B1" in out


class TestDistillCommand:
    def test_branch_table(self, capsys):
        code, out, _ = run_cli(capsys, "distill", "--p", "0.4,0.1,0.3,0.2", "--n", "3")
        assert code == 0
        assert "a=0 probability=0.5 -> 1 00 00" in out
        assert "a=1 probability=0.5 -> 1 10 10" in out
        assert "ebits_distilled=2" in out

    def test_even_n_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "distill", "--p", "0.25,0.25,0.25,0.25", "--n", "4")
        assert code == 2
        assert "odd" in err

    def test_bad_vector_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "distill", "--p", "0.5,0.5", "--n", "3")
        assert code == 2


class TestMeasuresCommand:
    def test_sigma_curve_csv(self, capsys):
        code, out, _ = run_cli(capsys, "measures", "--curve", "sigma", "--n", "3", "--grid", "99")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "p,ec_sigma1,ed_sigma1,ec_sigmaN,ed_sigmaN,gap"
        assert len(lines) == 100
        ps = [float(row.split(",")[0]) for row in lines[1:]]
        assert ps == sorted(ps)
        gaps = {row.split(",")[0]: float(row.split(",")[5]) for row in lines[1:]}
        assert abs(gaps["0.5"]) <= 1e-12
        assert all(g > 0 for p, g in gaps.items() if p != "0.5")

    def test_rho_m_table(self, capsys):
        code, out, _ = run_cli(capsys, "measures", "--state", "rhoM", "--m", "2..8")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "m,ed_rhoM"
        assert [row.split(",")[1] for row in lines[1:]] == ["0", "2", "2", "4", "4", "6", "6"]

    def test_requires_exactly_one_mode(self, capsys):
        assert run_cli(capsys, "measures")[0] == 2
        assert run_cli(
            capsys, "measures", "--curve", "sigma", "--state", "rhoM", "--m", "3"
        )[0] == 2

    def test_bad_grid(self, capsys):
        assert run_cli(capsys, "measures", "--curve", "sigma", "--grid", "0")[0] == 2


class TestVerifyAll:
    def test_exit_zero_and_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify-all")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        ids = [c["id"] for c in report["claims"]]
        assert ids == sorted(ids)
        assert len(ids) == 10
        for claim in report["claims"]:
            assert set(claim) == {
                "id", "criterion", "description", "passed", "measured", "tolerance",
            }
            assert claim["passed"] is True

    def test_output_file_and_summary(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify-all", "--output", str(path))
        assert code == 0
        assert "smolin-ppt: pass" in out
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["passed"] is True

    def test_byte_identical_reports(self, capsys):
        _, first, _ = run_cli(capsys, "verify-all")
        _, second, _ = run_cli(capsys, "verify-all")
        assert first == second


class TestDeterminism:
    def test_clone_reports_are_byte_identical(self, capsys):
        args = ("clone", "--set", "four", "--input", "0.4,0.1,0.3,0.2", "--n", "2",
                "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_measures_csv_byte_identical(self, capsys):
        args = ("measures", "--curve", "sigma", "--n", "2", "--grid", "19")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bellclone.cli", "teleport", "--input", "B3"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "output: B3" in proc.stdout


class TestDistillBranchMatching:
    def test_dropped_dense_branch_fails(self, capsys, monkeypatch):
        real = cli.protocols.distill_quasi_pure_dense
        monkeypatch.setattr(cli.protocols, "distill_quasi_pure_dense", lambda e: real(e)[:1])
        code, out, _ = run_cli(
            capsys, "distill", "--p", "0.4,0.1,0.3,0.2", "--n", "3", "--engine", "both", "--format", "json"
        )
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["dense-branch-probabilities"]["passed"] is False
        assert checks["dense-branch-probabilities"]["measured"] == 0.5
        assert checks["symbolic-dense-agreement"]["passed"] is False

    def test_branches_matched_by_outcome_not_position(self, capsys, monkeypatch):
        real = cli.protocols.distill_quasi_pure_dense
        monkeypatch.setattr(cli.protocols, "distill_quasi_pure_dense", lambda e: real(e)[::-1])
        code, out, _ = run_cli(capsys, "distill", "--p", "0.4,0.1,0.3,0.2", "--n", "3", "--engine", "both")
        assert code == 0
        assert "result: pass" in out
