#!/usr/bin/env python3
"""Write ``bench/reference.json``: the outputs the correctness gate
compares against, for every verify-suite and dense-oracle job any seed
can draw.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are the reference; later commits
are checked against the file it wrote.  A job that raises is recorded
with its exception, as a defect that every later commit either repeats
exactly or fixes (see ``jobs.check_against``).
"""

import json
import sys

import run  # fixes the BLAS thread count before numpy loads
import jobs


def entry(outcome: jobs.Outcome, parse_json: bool) -> dict:
    if outcome.error is not None:
        return {"error": outcome.error}
    if parse_json:
        return {"exit": outcome.exit, "record": json.loads(outcome.stdout)}
    return {"exit": outcome.exit, "value": outcome.value}


def main() -> int:
    bc = run.load_program()
    run.OUT.mkdir(exist_ok=True)
    reference = {}
    report = run.OUT / "verify-report-reference.json"
    outcome = jobs.run_cli(bc, ["verify-all", "--output", str(report)], report)
    reference["verify-all"] = {
        "exit": outcome.exit,
        "stdout": outcome.stdout,
        "record": json.loads(report.read_text()),
    }
    for argv in jobs.dense_argv_space():
        reference[" ".join(argv)] = entry(jobs.run_cli(bc, argv), parse_json=True)
    reference[jobs.LOG_NEGATIVITY_KEY] = entry(jobs.run_api(lambda: jobs.log_negativity_rho5(bc)), parse_json=False)
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    errors = sorted(k for k, v in reference.items() if "error" in v)
    print(f"wrote {len(reference)} entries to {path}; {len(errors)} record a defect")
    return 0


if __name__ == "__main__":
    sys.exit(main())
