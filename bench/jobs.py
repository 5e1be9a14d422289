"""Job lists of the three workloads and the correctness gate.

A job is one closed-loop request: the benchmark issues it, waits for it
to finish, and only then issues the next.  Job parameters come from a
``random.Random(seed)``; the program only ever sees the generated
arguments.  Parameters that change the amount of work (pair counts,
register sizes) are fixed per workload, so that every seed costs the
same and the seed spread measures the machine, not the draw.

Correctness: ``verify-suite`` and ``dense-oracle`` jobs are compared
with ``reference.json`` (written by ``make_reference.py`` at the commit
that introduced the benchmark).  Symbolic content is compared exactly;
values derived from dense linear algebra only within the tolerance the
program pins for them, because they move at the 1e-16 level with the
BLAS thread count.  ``symbolic-long`` jobs are compared exactly with
their closed forms.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

LABEL_NAMES = ("B1", "B2", "B3", "B4")
LABEL_BITS = {"B1": "00", "B2": "01", "B3": "10", "B4": "11"}
PAIRS = tuple(itertools.combinations(LABEL_NAMES, 2))
#: Quasi-pure mixtures for the ``distill`` jobs (every component <= 1/2).
DISTILL_P = (
    "0.4,0.1,0.3,0.2",
    "0.1,0.4,0.2,0.3",
    "0.25,0.25,0.25,0.25",
    "0.5,0.125,0.25,0.125",
    "0.375,0.125,0.375,0.125",
    "0.3,0.2,0.1,0.4",
)

#: Checks of a CLI record whose ``measured`` value comes from dense
#: numerics; their tolerance is read from the record's own
#: ``tolerance`` string.
DENSE_CHECKS = frozenset(
    {
        "symbolic-dense-agreement",
        "dense-fidelity",
        "dense-branch-probabilities",
        "output-fidelity",
        "choi-residual",
    }
)
#: Dense-derived fields of CLI records and verify-all claims, with the
#: tolerance pinned for them in ``bellclone.cli`` and ``bellclone.verify``.
DENSE_FIELDS = {
    "fidelity": 1e-12,
    "choi_residual": 1e-9,
    "worst_fidelity_deviation": 1e-12,
    "worst_trace_distance": 1e-10,
    "alice_bob_log_negativity": 1e-9,
    "one_vs_rest_log_negativity": 1e-9,
    "choi_max_residual": 1e-9,
    "worst_bell_fidelity_deviation": 1e-12,
    "worst_dense_trace_distance": 1e-12,
}
#: ``bellclone.dense.ATOL_EIG``, the tolerance of eigenvalue-derived values.
ATOL_EIG = 1e-9


@dataclass
class Outcome:
    """What one job produced.  ``error`` is ``"Type: message"`` when the
    job raised instead of returning."""

    exit: int | None = None
    stdout: str = ""
    value: Any = None
    error: str | None = None
    report_bytes: int = 0


@dataclass
class Job:
    """One request.  ``key`` names it in ``reference.json``; ``run``
    performs it and ``check`` returns the list of ways its outcome is
    wrong (empty when correct)."""

    key: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], list[str]]
    expected_error: str | None = None


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def run_cli(bc, argv: list[str], report_path: Path | None = None) -> Outcome:
    """``bellclone.cli.main(argv)`` in-process, with stdout captured.

    ``main`` is looked up on the module at call time, so a traced run
    sees its wrapper.  Any exception is caught here: the job failed,
    and the closed loop goes on with the next one.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bc.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - a crashing job is a measured outcome
        return Outcome(stdout=out.getvalue(), error=f"{type(exc).__name__}: {exc}")
    text = out.getvalue()
    size = len(text.encode())
    if report_path is not None and report_path.exists():
        size += report_path.stat().st_size
    return Outcome(exit=code, stdout=text, report_bytes=size)


def api_check(problems: Callable[[Any], list[str]]) -> Callable[[Outcome], list[str]]:
    """Check of an API job: it must return, and ``problems(value)`` be empty."""
    return lambda o: [f"raised {o.error}"] if o.error is not None else problems(o.value)


def run_api(fn: Callable[[], Any]) -> Outcome:
    try:
        return Outcome(exit=0, value=fn())
    except Exception as exc:  # noqa: BLE001 - a crashing job is a measured outcome
        return Outcome(error=f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# Comparison against the stored reference
# ---------------------------------------------------------------------------


def _tolerance(key: str, parent: dict) -> float | None:
    if key in DENSE_FIELDS:
        return DENSE_FIELDS[key]
    if key == "measured" and parent.get("name") in DENSE_CHECKS:
        found = re.search(r"1e-\d+", parent.get("tolerance", ""))
        return float(found.group()) if found else 0.0
    if key == "value" and parent.get("provenance") == "dense-witness":
        return ATOL_EIG
    return None


def _within(actual, ref, tol: float) -> bool:
    if isinstance(ref, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(ref)
            and all(_within(a, r, tol) for a, r in zip(actual, ref))
        )
    return isinstance(actual, (int, float)) and abs(actual - ref) <= tol


def mismatches(actual, ref, path: str = "$") -> list[str]:
    """Paths where ``actual`` differs from ``ref``: exact equality except
    for dense-derived values, which must lie within their tolerance."""
    if isinstance(ref, dict):
        if not isinstance(actual, dict) or set(actual) != set(ref):
            return [f"{path}: keys differ"]
        out = []
        for key, value in ref.items():
            tol = _tolerance(key, ref)
            if tol is not None:
                if not _within(actual[key], value, tol):
                    out.append(f"{path}.{key}: {actual[key]!r} not within {tol} of {value!r}")
            else:
                out.extend(mismatches(actual[key], value, f"{path}.{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(actual, list) or len(actual) != len(ref):
            return [f"{path}: length differs"]
        out = []
        for i, (a, r) in enumerate(zip(actual, ref)):
            out.extend(mismatches(a, r, f"{path}[{i}]"))
        return out
    if actual != ref or type(actual) is bool and type(ref) is not bool:
        return [f"{path}: {actual!r} != {ref!r}"]
    return []


def check_against(ref: dict | None, outcome: Outcome, parse_json: bool) -> list[str]:
    """Compare an outcome with its reference entry (see make_reference)."""
    if ref is None:
        return ["no reference entry for this job"]
    if "error" in ref:
        if outcome.error == ref["error"]:
            return []
        return [f"expected the recorded failure {ref['error']!r}, got {outcome.error or outcome.exit!r}"]
    if outcome.error is not None:
        return [f"raised {outcome.error}"]
    if outcome.exit != ref["exit"]:
        return [f"exit code {outcome.exit} != {ref['exit']}"]
    if parse_json:
        try:
            record = json.loads(outcome.stdout)
        except ValueError:
            return ["stdout is not JSON"]
        return mismatches(record, ref["record"])
    return mismatches(outcome.value, ref["value"])


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def constant_strings_text(weights: dict[str, float], n: int) -> str:
    """``BellEnsemble.to_text`` of sum_k w_k P[B_k^(x)n] (labels by name)."""
    return "".join(
        f"{w:.17g} {' '.join([LABEL_BITS[name]] * n)}\n"
        for name, w in sorted(weights.items(), key=lambda kv: LABEL_BITS[kv[0]])
        if w > 0
    )


def _ledger_problems(ledger, consumed, distilled, classical, steps) -> list[str]:
    got = (ledger.ebits_consumed, ledger.ebits_distilled, ledger.classical_bits, len(ledger.steps))
    want = (float(consumed), float(distilled), classical, steps)
    out = [] if got == want else [f"ledger (consumed, distilled, cbits, steps) {got} != {want}"]
    if ledger.locc_violations():
        out.append(f"{len(ledger.locc_violations())} LOCC violations")
    return out


def rho_m_problems(result, m: int) -> list[str]:
    """prepare_rho_m(m): the four constant strings at exactly 1/4, m-1
    ebits for odd m and m-2 for even m, and a local ledger."""
    ensemble, ledger = result
    out = []
    if ensemble.to_text() != constant_strings_text(dict.fromkeys(LABEL_NAMES, 0.25), m):
        out.append("rho_m ensemble is not the uniform four-branch state")
    steps = 2 * m - 1 if m % 2 else 2 * (2 * m - 3)
    return out + _ledger_problems(ledger, m - 1 if m % 2 else m - 2, 0, 0, steps)


def clone_pair_problems(result, label: str, n: int) -> list[str]:
    """clone_pair_1_to_n: a point mass on label^(x)n at n-1 ebits."""
    ensemble, ledger = result
    out = []
    if ensemble.to_text() != constant_strings_text({label: 1.0}, n):
        out.append("clone output is not the point mass on the input label")
    return out + _ledger_problems(ledger, n - 1, 0, 0, 4 * n)


def sigma_problems(result, p: float, n: int) -> list[str]:
    """build_sigma_n then apply_steps(inverse_steps): sigma_n exactly,
    and the start state back exactly."""
    build, back = result
    out = []
    if build.ensemble.to_text() != constant_strings_text({"B1": p, "B2": 1.0 - p}, n):
        out.append("sigma_n is not p P[B1^n] + (1-p) P[B2^n]")
    if len(build.steps) != 2 * n:
        out.append(f"{len(build.steps)} sigma steps, expected {2 * n}")
    start = f"{p:.17g} {' '.join(['00'] * n)}\n{1.0 - p:.17g} {' '.join(['01'] + ['00'] * (n - 1))}\n"
    if back.to_text() != start:
        out.append("inverse steps do not restore the start state")
    return out


def quasi_pure_problems(result, p: tuple[float, ...], n: int) -> list[str]:
    """prepare_quasi_pure then distill_quasi_pure at odd n: the prepared
    mixture exactly, pure B1^(n-1) / B3^(n-1) branches with
    probabilities p1+p2 and p3+p4, n-1 ebits each way."""
    (ensemble, prep), (branches, dist) = result
    out = []
    if ensemble.to_text() != constant_strings_text(dict(zip(LABEL_NAMES, p)), n):
        out.append("prepared mixture differs from sum_k p_k P[B_k^n]")
    out += _ledger_problems(prep, n - 1, 0, 4, 2 * (2 * (n + 1) - 3) + 3 + 2 * n)
    got = [(bit, prob, cond.to_text()) for bit, prob, cond in branches]
    want = [
        (0, p[0] + p[1], constant_strings_text({"B1": 1.0}, n - 1)),
        (1, p[2] + p[3], constant_strings_text({"B3": 1.0}, n - 1)),
    ]
    if got != want:
        out.append("distilled branches are not the pure closed-form branches")
    return out + _ledger_problems(dist, 0, n - 1, 2, 2 * (n - 1) + 3)


def _fixed_defect_problems(argv: list[str], outcome: Outcome) -> list[str]:
    """Closed form for a recorded defect that a later commit fixes: the
    run must pass its own checks and produce the exact symbolic output."""
    if outcome.error is not None or outcome.exit != 0:
        return [f"recorded defect now ends with {outcome.error or outcome.exit!r}"]
    try:
        record = json.loads(outcome.stdout)
    except ValueError:
        return ["stdout is not JSON"]
    args = dict(zip(argv[1::2], argv[2::2]))
    n = int(args["--n"])
    if argv[0] == "clone":
        expected = {"ensemble": constant_strings_text({args["--input"]: 1.0}, n)}
    else:
        p = [float(x) for x in args["--p"].split(",")]
        expected = {
            "branches": [
                {"outcome": 0, "probability": p[0] + p[1], "ensemble": constant_strings_text({"B1": 1.0}, n - 1)},
                {"outcome": 1, "probability": p[2] + p[3], "ensemble": constant_strings_text({"B3": 1.0}, n - 1)},
            ]
        }
    out = [] if record.get("passed") is True else ["run reports a failed check"]
    return out + [f"{k} differs from the closed form" for k, v in expected.items() if record.get(k) != v]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def verify_suite(bc, rng, out_dir: Path, reference: dict) -> list[Job]:
    """One ``verify-all --output <file>`` per pass.  verify-all takes no
    parameters, so the seed only names the report file."""
    report = out_dir / f"verify-report-{rng.randrange(10**6):06d}.json"
    ref = reference.get("verify-all")

    def run() -> Outcome:
        report.unlink(missing_ok=True)
        return run_cli(bc, ["verify-all", "--output", str(report)], report)

    def check(outcome: Outcome) -> list[str]:
        if ref is None:
            return ["no reference entry for verify-all"]
        if outcome.error is not None:
            return [f"raised {outcome.error}"]
        problems = []
        if outcome.exit != ref["exit"]:
            problems.append(f"exit code {outcome.exit} != {ref['exit']}")
        if outcome.stdout != ref["stdout"]:
            problems.append("claim status lines differ")
        if not report.is_file():
            return problems + ["no report file written"]
        payload = json.loads(report.read_text())
        if payload.get("passed") is not True or not all(c["passed"] for c in payload["claims"]):
            problems.append("a claim failed")
        return problems + mismatches(payload, ref["record"])

    return [Job("verify-all", run, check)]


#: Pair counts of the symbolic-long jobs; fixed so every seed costs the same.
SYMBOLIC_SIZES = {
    "rho_odd": 129,
    "rho_even": 128,
    "clone_short": 128,
    "clone_long": 512,
    "sigma": 128,
    "quasi_pure": 129,
}


def symbolic_long(bc, rng) -> list[Job]:
    """Symbolic protocol runs at 128-512 pairs; no dense calls.  The seed
    draws labels, declared pairs, inputs and mixing probabilities."""
    P = bc.protocols
    labels = dict(zip(LABEL_NAMES, bc.LABELS))
    jobs = []
    for key in ("rho_odd", "rho_even"):
        m = SYMBOLIC_SIZES[key]
        jobs.append(
            Job(
                f"prepare_rho_m {m}",
                lambda m=m: run_api(lambda: P.prepare_rho_m(m)),
                api_check(lambda v, m=m: rho_m_problems(v, m)),
            )
        )
    for key in ("clone_short", "clone_long"):
        n = SYMBOLIC_SIZES[key]
        pair = rng.choice(PAIRS)
        label = rng.choice(pair)
        jobs.append(
            Job(
                f"clone_pair_1_to_n {label} {'/'.join(pair)} {n}",
                lambda n=n, pair=pair, label=label: run_api(
                    lambda: P.clone_pair_1_to_n(labels[label], tuple(labels[x] for x in pair), n)
                ),
                api_check(lambda v, n=n, label=label: clone_pair_problems(v, label, n)),
            )
        )
    n = SYMBOLIC_SIZES["sigma"]
    p = rng.randrange(1, 32) / 32

    def sigma_round_trip(p=p, n=n):
        build = P.build_sigma_n(p, n)
        return build, P.apply_steps(build.ensemble, build.inverse_steps)

    jobs.append(
        Job(
            f"build_sigma_n {p} {n}",
            lambda: run_api(sigma_round_trip),
            api_check(lambda v, p=p, n=n: sigma_problems(v, p, n)),
        )
    )
    n = SYMBOLIC_SIZES["quasi_pure"]
    q = _composition(rng)

    def quasi_pure(q=q, n=n):
        prepared = P.prepare_quasi_pure(q, n)
        return prepared, P.distill_quasi_pure(prepared[0])

    jobs.append(
        Job(
            f"quasi_pure {q} {n}",
            lambda: run_api(quasi_pure),
            api_check(lambda v, q=q, n=n: quasi_pure_problems(v, q, n)),
        )
    )
    return jobs


def _composition(rng) -> tuple[float, ...]:
    """Four positive sixteenths summing to 1, none above 1/2 (exact floats)."""
    while True:
        cuts = sorted(rng.sample(range(1, 16), 3))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [16])]
        if max(parts) <= 8:
            return tuple(k / 16 for k in parts)


_BOTH = ["--engine", "both", "--format", "json"]


def _clone_two(n: int):
    def family(choose):
        pair = choose(PAIRS)
        return ["clone", "--set", "two", "--pair", ",".join(pair), "--input", choose(pair), "--n", str(n)] + _BOTH

    return family


#: The dense-oracle CLI runs, one per pass each; ``choose(options)`` picks
#: every seeded parameter.  The last two are recorded defects: they pass
#: the CLI's 14-qubit guard and then raise ValueError.
DENSE_FAMILIES = (
    lambda choose: ["clone", "--set", "four", "--input", choose(LABEL_NAMES), "--n", "4"] + _BOTH,
    # The 1024 x 1024 eigh inside partial_trace takes about 1.7 times as long
    # for B1/B2 inputs as for B3/B4; drawing from one class keeps the pass
    # time independent of the seed.
    lambda choose: ["clone", "--set", "four", "--input", choose(("B3", "B4")), "--n", "5"] + _BOTH,
    _clone_two(6),
    _clone_two(7),
    lambda choose: ["prepare", "--m", "6"] + _BOTH,
    lambda choose: ["prepare", "--m", "7"] + _BOTH,
    lambda choose: ["distill", "--p", choose(DISTILL_P), "--n", "5"] + _BOTH,
    lambda choose: ["teleport", "--channel", "smolin", "--input", choose(LABEL_NAMES), "--format", "json"],
    lambda choose: ["teleport", "--channel", "ideal", "--input", choose(LABEL_NAMES), "--format", "json"],
    lambda choose: ["clone", "--set", "four", "--input", choose(LABEL_NAMES), "--n", "6"] + _BOTH,
    lambda choose: ["distill", "--p", choose(DISTILL_P), "--n", "7"] + _BOTH,
)
RECORDED_DEFECTS = 2


def dense_argv_space() -> list[list[str]]:
    """Every CLI run a dense-oracle seed can draw (for make_reference)."""
    space = []
    for family in DENSE_FAMILIES:
        prefixes = [[]]
        while prefixes:
            prefix = prefixes.pop()
            picks, widths = iter(prefix), []

            def choose(options):
                pick = next(picks, None)
                if pick is None:
                    widths.append(len(options))
                    pick = 0
                return options[pick]

            argv = family(choose)
            if widths:
                prefixes.extend(prefix + [i] for i in range(widths[0]))
            else:
                space.append(argv)
    return space


LOG_NEGATIVITY_KEY = "log_negativity rho_5 alice:bob"


def log_negativity_rho5(bc):
    state = bc.to_dense(bc.protocols.prepare_rho_m(5)[0])
    return bc.dense.log_negativity(state, bc.dense.Cut.alice_bob(state))


def dense_oracle(bc, rng, reference: dict) -> list[Job]:
    """``--engine both`` CLI runs at the largest registers the CLI admits,
    plus the log-negativity of rho_5 across Alice:Bob."""

    def cli_job(argv):
        key = " ".join(argv)
        ref = reference.get(key)

        def check(o):
            problems = check_against(ref, o, parse_json=True)
            if problems and ref is not None and "error" in ref and o.error is None:
                return _fixed_defect_problems(argv, o)
            return problems

        return Job(key, lambda: run_cli(bc, argv), check, ref.get("error") if ref else None)

    argvs = [family(rng.choice) for family in DENSE_FAMILIES]
    ref = reference.get(LOG_NEGATIVITY_KEY)
    log_neg = Job(
        LOG_NEGATIVITY_KEY,
        lambda: run_api(lambda: log_negativity_rho5(bc)),
        lambda o: check_against(ref, o, parse_json=False),
    )
    jobs = [cli_job(a) for a in argvs[:-RECORDED_DEFECTS]] + [log_neg]
    return jobs + [cli_job(a) for a in argvs[-RECORDED_DEFECTS:]]


def make_workload(name: str, bc, seed: int, out_dir: Path, reference: dict) -> list[Job]:
    """The job list of one pass of workload ``name``, drawn from ``seed``."""
    rng = random.Random(seed)
    if name == "verify-suite":
        return verify_suite(bc, rng, out_dir, reference)
    if name == "symbolic-long":
        return symbolic_long(bc, rng)
    if name == "dense-oracle":
        return dense_oracle(bc, rng, reference)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-suite", "symbolic-long", "dense-oracle")
