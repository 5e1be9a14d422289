"""How ``tools/compare_outputs.py`` reports an output that moved."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


def test_json_leaves_are_listed_old_to_new():
    old = '{"fidelity": 1.0, "checks": [{"passed": true, "measured": 2}], "gone": "x"}'
    new = '{"fidelity": 0.9999999999999998, "checks": [{"passed": true, "measured": 2.0}], "added": 1}'
    assert tool.describe(old, new) == [
        "added: (absent) -> 1",
        "checks[0].measured: 2 -> 2.0",
        "fidelity: 1.0 -> 0.9999999999999998",
        "gone: 'x' -> (absent)",
    ]


def test_text_and_layout_changes_fall_back_to_a_line_diff():
    assert tool.describe("claim a: ok\nclaim b: ok\n", "claim a: ok\nclaim b: FAIL\n") == [
        "@@ -2 +2 @@",
        "-claim b: ok",
        "+claim b: FAIL",
    ]
    # Equal JSON values in another layout: no leaf moved, so the lines are shown.
    assert tool.describe('{"a": 1}', '{"a":  1}') == ["@@ -1 +1 @@", '-{"a": 1}', '+{"a":  1}']
    assert tool.describe(None, "{}\n") == ["@@ -0,0 +1 @@", "+{}"]



def _run(measured: float, ensemble: str = "1 00 00\n", exit_code: int = 0) -> dict:
    """One CLI run's outputs, as ``run_cli`` returns them."""
    record = {
        "checks": [{"measured": measured, "name": "symbolic-dense-agreement", "passed": True, "tolerance": "trace distance < 1e-10"}],
        "ensemble": ensemble,
    }
    return {"exit": exit_code, "stdout": json.dumps(record), "stderr": ""}


def test_gate_accepts_dense_leaves_within_their_tolerance():
    assert tool.beyond_gate(_run(3.3e-16), _run(2.2e-16)) == []
    assert tool.beyond_gate(_run(0.0), _run(0.0)) == []


def test_gate_lists_every_part_it_rejects():
    assert tool.beyond_gate(_run(0.0), _run(2e-10)) == ["stdout $.checks[0].measured: 2e-10 not within 1e-10 of 0.0"]
    assert tool.beyond_gate(_run(0.0), _run(0.0, "1 01 01\n")) == ["stdout $.ensemble: '1 01 01\\n' != '1 00 00\\n'"]
    assert tool.beyond_gate(_run(0.0), _run(0.0, exit_code=1)) == ["exit: 0 -> 1"]
    # Text and a missing report pass only when identical.
    old = {"stdout": "claim a: ok\n", "report": "{}"}
    assert tool.beyond_gate(old, {"stdout": "claim a: FAIL\n", "report": None}) == [
        "stdout: 'claim a: ok\\n' -> 'claim a: FAIL\\n'",
        "report: '{}' -> None",
    ]


def test_main_ends_with_the_gate_verdict(tmp_path, monkeypatch, capsys):
    (tmp_path / "src" / "bellclone").mkdir(parents=True)
    (tmp_path / "src" / "bellclone" / "__init__.py").touch()
    runs = {"identical": (_run(1e-16), _run(1e-16)), "moved": (_run(3e-16), _run(1e-16)), "broken": (_run(0.0), _run(1e-9))}
    monkeypatch.setattr(tool.jobs, "dense_argv_space", lambda: [["moved"]])
    monkeypatch.setattr(tool, "run_cli", lambda tree, argv, workdir: runs[argv[0] if argv[0] in runs else "identical"][tree == tool.ROOT])
    assert tool.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == ["15 of 16 outputs identical", "moved leaves within the gate's tolerances"]

    monkeypatch.setattr(tool.jobs, "dense_argv_space", lambda: [["moved"], ["broken"]])
    assert tool.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "15 of 17 outputs identical",
        "leaves beyond the gate's tolerances:",
        "  broken: stdout $.checks[0].measured: 1e-09 not within 1e-10 of 0.0",
    ]

    monkeypatch.setattr(tool.jobs, "dense_argv_space", lambda: [])
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["15 of 15 outputs identical"]


def test_stderr_is_shown_but_not_judged():
    old, new = _run(0.0), dict(_run(0.0), stderr="note: dense checks skipped: too large")
    assert tool.beyond_gate(old, new) == []


RECORDED = ["clone", "--set", "four", "--input", "B1", "--n", "6", "--engine", "both", "--format", "json"]
RECORDED_ERROR = "ValueError: register of 16 qubits exceeds the 14-qubit limit"


def _defect_run(engine: str, ensemble: str, stderr: str = "") -> dict:
    """A run of ``RECORDED`` that exits 0 with its own checks passed."""
    return {"exit": 0, "stdout": json.dumps({"engine": engine, "ensemble": ensemble, "passed": True}), "stderr": stderr}


def test_recorded_defects_are_judged_by_their_closed_form():
    closed_form = tool.jobs.constant_strings_text({"B1": 1.0}, 6)
    old = _defect_run("both", closed_form)
    moved = _defect_run("symbolic", closed_form, "note: dense checks skipped")
    assert tool.beyond_gate(old, moved, RECORDED, RECORDED_ERROR) == []
    raised = {"exit": 1, "stdout": "", "stderr": RECORDED_ERROR}
    assert tool.beyond_gate(old, raised, RECORDED, RECORDED_ERROR) == []
    assert tool.beyond_gate(old, _defect_run("both", "1 00\n"), RECORDED, RECORDED_ERROR) == [
        "recorded defect: ensemble differs from the closed form"
    ]
    assert tool.beyond_gate(old, {"exit": 1, "stdout": "", "stderr": "ValueError: other"}, RECORDED, RECORDED_ERROR) == [
        "recorded defect: recorded defect now ends with 1"
    ]


def test_main_reads_the_recorded_error_from_the_reference(tmp_path, monkeypatch, capsys):
    (tmp_path / "src" / "bellclone").mkdir(parents=True)
    (tmp_path / "src" / "bellclone" / "__init__.py").touch()
    assert "error" in json.loads((tool.ROOT / "bench" / "reference.json").read_text())[" ".join(RECORDED)]
    closed_form = tool.jobs.constant_strings_text({"B1": 1.0}, 6)
    runs = {True: _defect_run("symbolic", closed_form, "note: dense checks skipped"), False: _defect_run("both", closed_form)}
    monkeypatch.setattr(tool.jobs, "dense_argv_space", lambda: [RECORDED])
    monkeypatch.setattr(tool, "run_cli", lambda tree, argv, workdir: runs[tree == tool.ROOT] if argv == RECORDED else _run(0.0))
    assert tool.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "  stderr:" in out
    assert out[-2:] == ["15 of 16 outputs identical", "moved leaves within the gate's tolerances"]


def test_api_job_prints_the_repr_of_its_value(tmp_path):
    """The benchmark's API job runs in a fresh interpreter; rho_5 across Alice:Bob reads exactly 4.0."""
    assert tool.API_JOB == ["log_negativity", "rho_5", "alice:bob"]
    assert tool.run_cli(tool.ROOT, tool.API_JOB, tmp_path) == {"exit": 0, "stdout": "4.0\n", "stderr": ""}


def test_api_job_is_compared_and_judged_exactly(tmp_path, monkeypatch, capsys):
    (tmp_path / "src" / "bellclone").mkdir(parents=True)
    (tmp_path / "src" / "bellclone" / "__init__.py").touch()
    old, new = ({"exit": 0, "stdout": value, "stderr": ""} for value in ("4.0\n", "3.9999999999999996\n"))
    assert tool.beyond_gate(old, new) == ["stdout $: 3.9999999999999996 != 4.0"]
    monkeypatch.setattr(tool.jobs, "dense_argv_space", lambda: [])
    monkeypatch.setattr(tool, "run_cli", lambda tree, argv, workdir: (new if tree == tool.ROOT else old) if argv == tool.API_JOB else _run(0.0))
    assert tool.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "log_negativity rho_5 alice:bob",
        "  stdout:",
        "    $: 4.0 -> 3.9999999999999996",
        "14 of 15 outputs identical",
        "leaves beyond the gate's tolerances:",
        "  log_negativity rho_5 alice:bob: stdout $: 3.9999999999999996 != 4.0",
    ]


def test_measures_runs_cover_the_curves_and_the_table():
    sigma = {(run[4], run[6], run[8]) for run in tool.MEASURES_RUNS[:-1]}
    assert sigma == {(n, grid, fmt) for n in ("1", "9") for grid in ("19", "999") for fmt in ("csv", "text", "json")}
    assert len(tool.MEASURES_RUNS) == 13
    assert tool.MEASURES_RUNS[-1] == ["measures", "--state", "rhoM", "--m", "2..64"]


def test_measures_runs_are_judged_exactly(tmp_path, monkeypatch, capsys):
    """A measures run passes only when identical: a last-bit move of a value or a new stderr line is beyond the gate."""
    (tmp_path / "src" / "bellclone").mkdir(parents=True)
    (tmp_path / "src" / "bellclone" / "__init__.py").touch()
    json_run, csv_run = tool.MEASURES_RUNS[2], tool.MEASURES_RUNS[-1]
    moved = {
        " ".join(json_run): ({"exit": 0, "stdout": '[{"gap": 0.5}]\n', "stderr": ""}, {"exit": 0, "stdout": '[{"gap": 0.5000000000000001}]\n', "stderr": ""}),
        " ".join(csv_run): ({"exit": 0, "stdout": "m,ed_rhoM\n2,0\n", "stderr": ""}, {"exit": 0, "stdout": "m,ed_rhoM\n2,0\n", "stderr": "note"}),
    }
    monkeypatch.setattr(tool.jobs, "dense_argv_space", lambda: [])
    monkeypatch.setattr(tool, "run_cli", lambda tree, argv, workdir: moved[" ".join(argv)][tree == tool.ROOT] if " ".join(argv) in moved else _run(0.0))
    assert tool.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-4:] == [
        "13 of 15 outputs identical",
        "leaves beyond the gate's tolerances:",
        f"  {' '.join(json_run)}: stdout differs",
        f"  {' '.join(csv_run)}: stderr differs",
    ]
    assert "    [0].gap: 0.5 -> 0.5000000000000001" in out


def test_a_measures_run_reads_the_table(tmp_path):
    """The rho_m table runs in a fresh interpreter like every other run."""
    result = tool.run_cli(tool.ROOT, tool.MEASURES_RUNS[-1], tmp_path)
    assert result["exit"] == 0 and result["stderr"] == ""
    lines = result["stdout"].splitlines()
    assert lines[:3] == ["m,ed_rhoM", "2,0", "3,2"] and lines[-1] == "64,62" and len(lines) == 64
