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
    assert capsys.readouterr().out.splitlines()[-2:] == ["1 of 2 outputs identical", "moved leaves within the gate's tolerances"]

    monkeypatch.setattr(tool.jobs, "dense_argv_space", lambda: [["moved"], ["broken"]])
    assert tool.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "1 of 3 outputs identical",
        "leaves beyond the gate's tolerances:",
        "  broken: stdout $.checks[0].measured: 1e-09 not within 1e-10 of 0.0",
    ]

    monkeypatch.setattr(tool.jobs, "dense_argv_space", lambda: [])
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["1 of 1 outputs identical"]
