"""``tools/src_lines.py`` on tiny source trees."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


def _tree(root: Path, modules: dict[str, str]) -> Path:
    package = root / "src" / "bellclone"
    package.mkdir(parents=True)
    for name, text in modules.items():
        (package / name).write_text(text)
    return root


def test_counts_code_and_docstrings_but_not_blanks_or_comments(tmp_path):
    text = '"""Doc.\n\nMore doc.\n"""\n\n# a comment\nx = 1  # trailing\n    # indented comment\ndef f():\n    return "#"\n'
    assert tool.count_lines(text) == 6
    tree = _tree(tmp_path / "new", {"a.py": text, "b.py": "y = 2\n"})
    assert tool.report(tree) == ["a.py   6", "b.py   1", "total  7"]


def test_delta_per_module_against_another_tree(tmp_path):
    new = _tree(tmp_path / "new", {"a.py": "x = 1\ny = 2\n", "c.py": "z = 3\n"})
    old = _tree(tmp_path / "old", {"a.py": "x = 1\n", "b.py": "w = 0\nv = 1\n"})
    assert tool.report(new, old) == [
        "a.py   1 -> 2 (+1)",
        "b.py   2 -> 0 (-2)",
        "c.py   0 -> 1 (+1)",
        "total  3 -> 3 (+0)",
    ]
