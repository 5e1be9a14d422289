#!/usr/bin/env python3
"""Compare the observable outputs of this checkout with another one.

    python3 tools/compare_outputs.py OTHER_TREE

``OTHER_TREE`` is the root of another bellclone checkout, the baseline
(for example a ``git archive`` of the parent commit unpacked into a
directory).  Both trees run ``verify-all`` (stdout, JSON report, exit
code), every CLI run of ``bench/jobs.py::dense_argv_space()``, the
benchmark's one API job, ``log_negativity rho_5 alice:bob``
(``bench/jobs.py::log_negativity_rho5``, whose stdout is the ``repr`` of
its value), and ``MEASURES_RUNS``, the closed-form ``measures`` runs
that the benchmark never makes, each in a fresh interpreter with its own
``src/`` first on the path and the benchmark's BLAS thread count.  For
every output that differs, the job and the part that differs are
printed; for JSON outputs, each leaf that moved is printed as
``path: old -> new`` (old is ``OTHER_TREE``; the path of a bare value is
``$``), and for text the differing lines.  Last, every moved output is
judged.  A ``measures`` run passes only if every part of it, stderr
included, is identical.  Every other run is checked by the benchmark's
correctness gate, as ``bench/jobs.py`` judges it: stderr is printed but
not judged, since the benchmark never reads it; a run whose
``bench/reference.json`` entry records an error passes if it raises that
error or ends with the closed-form output
(``jobs._fixed_defect_problems``); any other run is compared with the
baseline's by ``jobs.mismatches``, dense-derived values within their
pinned tolerances and everything else exactly.  The tool prints either
that the moved leaves lie within the gate's tolerances or each leaf
that does not.  The exit status is 0 when every output is identical and
1 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import jobs  # noqa: E402
import run  # noqa: E402  (for BLAS_THREADS, the benchmark's BLAS thread count)


#: The benchmark's API job, by its reference key, and the code that prints its value's repr.
API_JOB = jobs.LOG_NEGATIVITY_KEY.split()
API_CODE = "import sys, bellclone; sys.path.insert(0, sys.argv[1]); import jobs; print(repr(jobs.log_negativity_rho5(bellclone)))"

#: The ``measures`` runs: the sigma_n curves at n = 1 and 9 on grids of 19
#: and 999 points in every format, and the rho_m table for m = 2..64.
MEASURES_RUNS = [
    ["measures", "--curve", "sigma", "--n", n, "--grid", grid, "--format", fmt]
    for n in ("1", "9")
    for grid in ("19", "999")
    for fmt in ("csv", "text", "json")
] + [["measures", "--state", "rhoM", "--m", "2..64"]]


def run_cli(tree: Path, argv: list[str], workdir: Path) -> dict:
    """One CLI run (or, for ``API_JOB``, the API job) of ``tree`` in a fresh
    interpreter: its exit code, stdout, the last stderr line and, for
    ``verify-all``, the report."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(run.BLAS_THREADS)
    report = workdir / "report.json"
    report.unlink(missing_ok=True)
    extra = ["--output", str(report)] if argv == ["verify-all"] else []
    command = ["-c", API_CODE, str(ROOT / "bench")] if argv == API_JOB else ["-m", "bellclone.cli", *argv, *extra]
    proc = subprocess.run(
        [sys.executable, *command], cwd=workdir, env=env, capture_output=True, text=True, check=False,
    )
    lines = proc.stderr.strip().splitlines()
    out = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": lines[-1] if lines else ""}
    if extra:
        out["report"] = report.read_text() if report.exists() else None
    return out


def json_leaves(value, path: str = "") -> dict[str, object]:
    """Every leaf of a parsed JSON value, by its path (``a.b[2].c``)."""
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else str(key), v) for key, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return {path: value}
    return {p: leaf for key, v in items for p, leaf in json_leaves(v, key).items()}


def describe(old: str | None, new: str | None) -> list[str]:
    """Lines that say how one output moved: the JSON leaves that moved,
    old -> new, or else a line diff."""
    try:
        old_leaves, new_leaves = (json_leaves(json.loads(text)) for text in (old, new))
    except (TypeError, ValueError):  # not JSON, or no output
        old_leaves = new_leaves = {}

    def show(leaves: dict, path: str) -> str:
        return repr(leaves[path]) if path in leaves else "(absent)"

    moved = [
        f"{path or '$'}: {show(old_leaves, path)} -> {show(new_leaves, path)}"
        for path in sorted(old_leaves.keys() | new_leaves.keys())
        if show(old_leaves, path) != show(new_leaves, path)
    ]
    diff = difflib.unified_diff((old or "").splitlines(), (new or "").splitlines(), "old", "new", lineterm="", n=0)
    return moved or list(diff)[2:]


def beyond_gate(old: dict, new: dict, argv: list[str] = (), recorded_error: str | None = None) -> list[str]:
    """The parts of one run's outputs (as :func:`run_cli` returns them)
    that the benchmark's gate rejects.  With a ``recorded_error`` (the
    reference entry of a recorded defect), ``new`` passes if it raised that
    error, the last stderr line of an exit 1, or else passes the closed-form
    check of ``argv``.  Otherwise ``old`` is the reference: JSON leaves
    outside their tolerance, and any other part that differs, stderr aside."""
    if recorded_error is not None:
        if new["exit"] == 1 and new["stderr"] == recorded_error:
            return []
        outcome = jobs.Outcome(exit=new["exit"], stdout=new["stdout"])
        return [f"recorded defect: {line}" for line in jobs._fixed_defect_problems(argv, outcome)]
    out = []
    for part in new:
        if part == "stderr" or old[part] == new[part]:
            continue
        try:
            ref, actual = json.loads(old[part]), json.loads(new[part])
        except (TypeError, ValueError):  # not JSON (text, an exit code, no report): only identical passes
            out.append(f"{part}: {old[part]!r} -> {new[part]!r}")
            continue
        out += [f"{part} {line}" for line in jobs.mismatches(actual, ref)]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_tree", type=Path, help="root of the baseline checkout")
    args = parser.parse_args(argv)
    other = args.other_tree.resolve()
    if not (other / "src" / "bellclone" / "__init__.py").is_file():
        parser.error(f"no bellclone package under {other / 'src'}")
    runs = [["verify-all"]] + jobs.dense_argv_space() + [API_JOB] + MEASURES_RUNS
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    differing, beyond = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for argv in runs:
            old, new = run_cli(other, argv, workdir), run_cli(ROOT, argv, workdir)
            parts = [part for part in new if old[part] != new[part]]
            if not parts:
                continue
            differing += 1
            print(" ".join(argv))
            for part in parts:
                print(f"  {part}:")
                lines = describe(old[part], new[part]) if isinstance(new[part], str) else [f"{old[part]} -> {new[part]}"]
                print("\n".join(f"    {line}" for line in lines))
            if argv in MEASURES_RUNS:
                beyond += [f"{' '.join(argv)}: {part} differs" for part in parts]
                continue
            recorded = reference.get(" ".join(argv), {}).get("error")
            beyond += [f"{' '.join(argv)}: {line}" for line in beyond_gate(old, new, argv, recorded)]
    print(f"{len(runs) - differing} of {len(runs)} outputs identical")
    if beyond:
        print("leaves beyond the gate's tolerances:")
        print("\n".join(f"  {line}" for line in beyond))
    elif differing:
        print("moved leaves within the gate's tolerances")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
