import json
import subprocess
import sys

import pytest

from bellclone import calculus, cli, verify


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


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [("prepare", "--m", "3"), ("verify-all",)])
    def test_usage_error_without_traceback(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "report"
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {path}: No such file or directory\n"
        assert not path.exists()

    def test_checked_before_the_claim_suite_runs(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "run_all", lambda: calls.append(1) or [])
        path = tmp_path / "missing" / "report"
        code, out, err = run_cli(capsys, "verify-all", "--output", str(path))
        assert (code, out, calls) == (2, "", [])
        assert err == f"error: cannot write {path}: No such file or directory\n"

    def test_checked_before_a_protocol_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.protocols, "prepare_rho_m", lambda m: pytest.fail("protocol ran"))
        code, _, err = run_cli(capsys, "prepare", "--m", "3", "--output", str(tmp_path))
        assert code == 2
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("clone", "--set", "two", "--pair", "B1,B3", "--input", "B2", "--n", "2"),  # rejected by the protocol
            ("distill", "--p", "0.7,0.1,0.1,0.1", "--n", "3"),
            ("prepare", "--m", "1"),  # rejected by the command
        ],
    )
    def test_usage_error_leaves_the_output_as_it_was(self, capsys, tmp_path, argv):
        existing, new = tmp_path / "existing", tmp_path / "new"
        existing.write_bytes(b"earlier report\n")
        for path in (existing, new):
            code, out, _ = run_cli(capsys, *argv, "--output", str(path))
            assert (code, out) == (2, "")
        assert existing.read_bytes() == b"earlier report\n"
        assert not new.exists()

    def test_existing_file_is_overwritten_by_a_run(self, capsys, tmp_path):
        path = tmp_path / "report"
        path.write_text("a longer earlier report than the new one\n" * 50)
        assert run_cli(capsys, "measures", "--state", "rhoM", "--m", "2", "--output", str(path))[0] == 0
        assert path.read_text() == "m,ed_rhoM\n2,0\n"


class TestParserReuse:
    ARGVS = (
        ("prepare",),  # argparse usage error: --m is required
        ("prepare", "--m", "3"),
        ("clone", "--set", "two", "--pair", "B1,B3", "--input", "B2", "--n", "2"),  # usage error
        ("teleport", "--channel", "ideal", "--input", "B2", "--format", "json"),
        ("measures", "--state", "rhoM", "--m", "2..4"),
    )

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_reused_parser_matches_fresh_ones(self, capsys):
        fresh = []
        for argv in self.ARGVS:
            cli._parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        cli._parser.cache_clear()
        reused = [self.outcome(capsys, argv) for argv in self.ARGVS * 2]
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 2 * len(self.ARGVS) - 1)
        assert reused == fresh * 2
        assert [code for code, _, _ in fresh] == [2, 0, 2, 0, 0]

    def test_parser_is_not_built_at_import(self, child_env):
        code = "import bellclone.cli as c; print(c._parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True, timeout=120)
        assert proc.stdout == "0\n"


class TestConsoleEntryPoint:
    def test_module_invocation(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "bellclone.cli", "teleport", "--input", "B3"],
            env=child_env,
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


class TestDenseRouteLimits:
    """Runs whose dense route does not fit the oracle's registers skip the
    dense checks instead of crashing, report the symbolic engine that ran
    and say so in one stderr line."""

    def test_four_state_six_copies_skips_dense(self, capsys):
        # The teleportation register holds 2n + 4 = 16 qubits.
        code, out, err = run_cli(
            capsys, "clone", "--set", "four", "--input", "B2", "--n", "6", "--engine", "both", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["passed"] is True
        assert record["engine"] == "symbolic"
        assert err == "note: dense checks skipped: a 7-pair program exceeds the dense register limits\n"
        assert record["ensemble"] == "1 01 01 01 01 01 01\n"
        assert [c["name"] for c in record["checks"]] == ["symbolic-structure", "ledger-ebits", "locc-audit"]

    def test_four_state_five_copies_keeps_dense(self, capsys):
        code, out, err = run_cli(capsys, "clone", "--set", "four", "--input", "B3", "--n", "5", "--format", "json")
        assert code == 0 and err == ""
        record = json.loads(out)
        assert record["engine"] == "both"
        assert [c["name"] for c in record["checks"]][-2:] == ["symbolic-dense-agreement", "dense-fidelity"]

    def test_distill_seven_pairs_skips_dense(self, capsys):
        # The six surviving pairs exceed the 10-qubit remainder cap.
        code, out, err = run_cli(
            capsys, "distill", "--p", "0.4,0.1,0.3,0.2", "--n", "7", "--engine", "dense", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["passed"] is True
        assert record["engine"] == "symbolic"
        assert err.count("\n") == 1 and "dense checks skipped" in err and "7-pair" in err
        assert [b["probability"] for b in record["branches"]] == [0.5, 0.5]
        assert "symbolic-dense-agreement" not in [c["name"] for c in record["checks"]]


class TestNonFiniteProbabilities:
    @pytest.mark.parametrize("vector", ["nan,0.5,0.25,0.25", "0.5,nan,0.25,0.25", "inf,0,0,0"])
    def test_four_state_input_rejected(self, capsys, vector):
        code, out, err = run_cli(capsys, "clone", "--set", "four", "--input", vector, "--n", "2")
        assert code == 2
        assert out == ""
        assert "distribution" in err

    def test_distill_vector_rejected(self, capsys):
        code, out, err = run_cli(capsys, "distill", "--p", "nan,0.5,0.25,0.25", "--n", "3")
        assert code == 2
        assert out == ""
        assert "distribution" in err


class TestSharedChecks:
    """The CLI and the verify claims run one check table, and the LOCC
    audit reads which party holds each register qubit."""

    def test_misplaced_bob_qubit_fails_locc_audit(self, capsys, monkeypatch):
        # Bob's qubit of every pair lands on Alice's: the ledger lines that
        # name it now act on the other party's register qubit.
        monkeypatch.setattr(calculus, "party_qubit", lambda pair, party: 2 * pair)
        code, out, _ = run_cli(
            capsys, "clone", "--set", "two", "--pair", "B1,B3", "--input", "B1", "--n", "2", "--engine", "symbolic"
        )
        assert code == 1
        assert "locc-audit: FAIL" in out

    def test_wrong_dense_clone_fails_cli_and_claim(self, capsys, monkeypatch):
        from bellclone.calculus import BellEnsemble, to_dense
        from bellclone.labels import B2

        monkeypatch.setattr(
            cli.protocols, "clone_pair_dense", lambda inp, pair, n: to_dense(BellEnsemble.point((B2,) * n))
        )
        code, out, _ = run_cli(
            capsys, "clone", "--set", "two", "--pair", "B1,B3", "--input", "B1", "--n", "2", "--engine", "both"
        )
        assert code == 1
        assert "dense-fidelity: FAIL" in out
        assert verify.claim_two_state_cloning().passed is False

    def test_missing_parity_branch_fails_quasi_pure_claim(self, capsys, monkeypatch, tmp_path):
        real = cli.protocols.distill_quasi_pure

        def one_branch(e):
            branches, ledger = real(e)
            return branches[:1], ledger

        monkeypatch.setattr(cli.protocols, "distill_quasi_pure", one_branch)
        record = verify.claim_quasi_pure_reversibility()
        assert record.passed is False
        assert record.measured["branch_probabilities"] == [0.5, 0.0]
        code, out, _ = run_cli(capsys, "verify-all", "--output", str(tmp_path / "report.json"))
        assert code == 1
        assert "quasi-pure-reversibility: FAIL" in out


class TestNoRegisterExpansion:
    """No program path reads a state's (k, 2**n) ``amplitudes`` view, at any
    size: every dense family at its largest certified size, and every claim
    of ``verify-all`` (Choi matrices and log-negativity included), works on
    the support and its values alone."""

    #: Each family's run at its largest certified size, and the largest register it builds.
    FAMILIES = [
        (("clone", "--set", "four", "--input", "B3", "--n", "5", "--engine", "both"), 14),
        (("clone", "--set", "two", "--pair", "B1,B2", "--input", "B1", "--n", "7", "--engine", "both"), 14),
        (("prepare", "--m", "7", "--engine", "both"), 14),
        (("distill", "--p", "0.4,0.1,0.3,0.2", "--n", "5", "--engine", "both"), 10),
        (("teleport", "--channel", "smolin", "--input", "B1"), 8),
        (("teleport", "--channel", "ideal", "--input", "B4"), 8),
        (("verify-all",), 10),
    ]

    @pytest.mark.parametrize("argv, largest", FAMILIES, ids=lambda v: " ".join(v[:3]) if isinstance(v, tuple) else str(v))
    def test_largest_certified_run_reads_no_expanded_register(self, argv, largest, capsys, monkeypatch):
        from bellclone import dense

        reads, registers = [], []
        view, build = dense.DenseState.amplitudes, dense.DenseState._from_kernel.__func__
        monkeypatch.setattr(dense.DenseState, "amplitudes", property(lambda s: reads.append(s.n_qubits) or view.fget(s)))

        def counted(cls, support, values, weights, labels, **kw):
            registers.append(len(labels))
            return build(cls, support, values, weights, labels, **kw)

        monkeypatch.setattr(dense.DenseState, "_from_kernel", classmethod(counted))
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0 and max(registers) == largest
        assert reads == []
