"""Golden files: CLI output and protocol ledgers, byte for byte.

The fixtures in ``tests/golden/`` were written by an earlier version of
the program; these tests fail when a change alters a single byte of a
symbolic CLI report or a single line of a resource ledger.  The
determinism tests in ``test_cli.py`` compare two runs of one version;
these compare against a stored one.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from bellclone import cli, protocols
from bellclone.calculus import BellEnsemble, mix
from bellclone.labels import B1, B2, B3, B4

GOLDEN = Path(__file__).parent / "golden"

_SYM = ("--engine", "symbolic")

#: Fixture name -> CLI arguments.  Every run exits 0.
CLI_CASES = {
    "clone-two-b3-n2": ("clone", "--set", "two", "--pair", "B1,B3", "--input", "B3", "--n", "2") + _SYM,
    "clone-two-b4-n5-json": ("clone", "--set", "two", "--pair", "B2,B4", "--input", "B4", "--n", "5", "--format", "json") + _SYM,
    "clone-two-b2-n40": ("clone", "--set", "two", "--pair", "B1,B2", "--input", "B2", "--n", "40") + _SYM,
    "clone-four-b2-n3": ("clone", "--set", "four", "--input", "B2", "--n", "3") + _SYM,
    "clone-four-b4-n1": ("clone", "--set", "four", "--input", "B4", "--n", "1") + _SYM,
    "clone-four-b1-n6": ("clone", "--set", "four", "--input", "B1", "--n", "6") + _SYM,
    "clone-four-mixed-n2-json": ("clone", "--set", "four", "--input", "0.4,0.1,0.3,0.2", "--n", "2", "--format", "json") + _SYM,
    "clone-four-mixed-n7": ("clone", "--set", "four", "--input", "0.1,0.2,0.3,0.4", "--n", "7") + _SYM,
    "prepare-m2": ("prepare", "--m", "2") + _SYM,
    "prepare-m9": ("prepare", "--m", "9") + _SYM,
    "prepare-m10-json": ("prepare", "--m", "10", "--format", "json") + _SYM,
    "prepare-m64": ("prepare", "--m", "64") + _SYM,
    "distill-n3": ("distill", "--p", "0.4,0.1,0.3,0.2", "--n", "3") + _SYM,
    "distill-n7-json": ("distill", "--p", "0.25,0.25,0.25,0.25", "--n", "7", "--format", "json") + _SYM,
    "distill-n9": ("distill", "--p", "0.5,0.125,0.25,0.125", "--n", "9") + _SYM,
    "measures-sigma-csv": ("measures", "--curve", "sigma", "--n", "3", "--grid", "9"),
    "measures-sigma-json": ("measures", "--curve", "sigma", "--n", "2", "--grid", "19", "--format", "json"),
    "measures-rhom-text": ("measures", "--state", "rhoM", "--m", "2..8", "--format", "text"),
    "measures-rhom-csv": ("measures", "--state", "rhoM", "--m", "5"),
}


def _ledger_cases():
    """Ledger name -> ResourceLedger of one protocol run."""
    p = (0.4, 0.1, 0.3, 0.2)
    uniform = (0.25, 0.25, 0.25, 0.25)
    separable = mix([BellEnsemble.point((B1,)), BellEnsemble.point((B2,))], [0.5, 0.5])
    cases = {
        "clone_pair B3 B1,B3 n=2": protocols.clone_pair_1_to_n(B3, (B1, B3), 2),
        "clone_pair B2 B2,B4 n=3": protocols.clone_pair_1_to_n(B2, (B2, B4), 3),
        "clone_pair B4 B2,B4 n=1": protocols.clone_pair_1_to_n(B4, (B2, B4), 1),
        "clone_pair separable B1,B2 n=2": protocols.clone_pair_1_to_n(separable, (B1, B2), 2),
        "clone_four B3 n=2": protocols.clone_four_1_to_n(B3, 2),
        "clone_four B1 n=1": protocols.clone_four_1_to_n(B1, 1),
        "clone_four p n=3": protocols.clone_four_1_to_n(p, 3),
        "clone_four B4 n=4": protocols.clone_four_1_to_n(B4, 4),
        "prepare_quasi_pure p n=3": protocols.prepare_quasi_pure(p, 3),
        "prepare_quasi_pure uniform n=5": protocols.prepare_quasi_pure(uniform, 5),
        "distill p n=3": protocols.distill_quasi_pure(protocols.prepare_quasi_pure(p, 3)[0]),
        "distill uniform n=5": protocols.distill_quasi_pure(protocols.prepare_quasi_pure(uniform, 5)[0]),
        "distill point n=3": protocols.distill_quasi_pure(BellEnsemble.point((B1, B1, B1))),
        "distill mixed n=2": protocols.distill_quasi_pure(BellEnsemble({(B1, B1): 0.5, (B4, B4): 0.5})),
    }
    for m in (2, 3, 4, 5, 6):
        cases[f"prepare_rho_m m={m}"] = protocols.prepare_rho_m(m)
    return {name: ledger for name, (_, ledger) in cases.items()}


def _ledger_record(ledger) -> dict:
    return {
        "steps": [[s.party, s.operation, *s.operands] for s in ledger.steps],
        **ledger.to_dict(),
    }


def _run(argv) -> tuple[int, str]:
    from contextlib import redirect_stdout
    from io import StringIO

    out = StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden(name):
    code, out = _run(CLI_CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def test_ledgers_match_golden():
    want = json.loads((GOLDEN / "ledgers.json").read_text(encoding="utf-8"))
    got = {name: _ledger_record(ledger) for name, ledger in _ledger_cases().items()}
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def _regenerate():
    for name, argv in CLI_CASES.items():
        code, out = _run(argv)
        assert code == 0, name
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8", newline="\n")
    blocks = []
    for name, ledger in sorted(_ledger_cases().items()):
        record = _ledger_record(ledger)
        steps = ",\n".join(f"   {json.dumps(step)}" for step in record.pop("steps"))
        totals = "".join(f"  {json.dumps(k)}: {json.dumps(v)},\n" for k, v in record.items())
        blocks.append(f" {json.dumps(name)}: {{\n{totals}  \"steps\": [\n{steps}\n  ]\n }}")
    text = "{\n" + ",\n".join(blocks) + "\n}\n"
    (GOLDEN / "ledgers.json").write_text(text, encoding="utf-8", newline="\n")


if __name__ == "__main__":
    sys.exit(_regenerate())
