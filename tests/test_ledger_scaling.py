"""``tools/ledger_scaling.py`` at small pair counts."""

import importlib.util
from pathlib import Path

import pytest

from bellclone import calculus

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ledger_scaling.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("ledger_scaling", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


def test_sizes_double_from_512_up_to_the_largest():
    assert tool.sizes(65536) == [512, 1024, 2048, 4096, 8192, 16384, 32768, 65536]
    assert tool.sizes(3000) == [512, 1024, 2048]


def test_table_has_one_row_per_m_with_the_step_count():
    lines = tool.report([2, 3, 64])
    assert tool.HEADER[2:7] == ["_rho_m_program", "apply_steps", "derive_ledger", "locc_violations", "prepare_rho_m"]
    assert lines[0] == "| " + " | ".join(tool.HEADER) + " |"
    rows = [line.strip("| ").split(" | ") for line in lines[2:]]
    # rho_m runs m steps for odd m and 2m - 3 for even m.
    assert [row[:2] for row in rows] == [["2", "1"], ["3", "3"], ["64", "125"]]
    assert all(len(row) == len(tool.HEADER) and all(cell.endswith(")") for cell in row[2:7]) for row in rows)


def test_a_ledger_failing_the_audit_stops_the_run(monkeypatch):
    monkeypatch.setattr(calculus, "party_qubit", lambda pair, party: 2 * pair + (party == "alice"))
    with pytest.raises(SystemExit, match="fails the LOCC audit"):
        tool.measure(4)


def test_max_m_below_the_smallest_size_is_rejected(capsys):
    with pytest.raises(SystemExit):
        tool.main(["--max-m", "64"])
    assert "--max-m must be at least 512" in capsys.readouterr().err
