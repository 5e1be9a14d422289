"""How ``tools/compare_outputs.py`` reports an output that moved."""

import importlib.util
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

