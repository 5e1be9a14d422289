"""Command-line front end: protocol runs, formula curves, claim suite.

A protocol subcommand renders the checks of its one run, picked from the
check table the ``verify-all`` claims share (:mod:`bellclone.verify`).
Exit codes: 0 all checks pass, 1 verification failure, 2 usage error.
Output is deterministic; identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import dense, measures, protocols, verify
from .calculus import BellEnsemble, to_dense
from .labels import label_from_name

_EXIT_OK = 0
_EXIT_VERIFY = 1
_EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _parse_label(text: str):
    try:
        return label_from_name(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_distribution(text: str) -> tuple[float, float, float, float]:
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"not a probability vector: {text!r}") from exc
    if len(parts) != 4:
        raise UsageError("probability vector needs exactly 4 components")
    return parts


def _parse_m_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            lo, hi = int(lo), int(hi)
        except ValueError as exc:
            raise UsageError(f"bad range {text!r}") from exc
        if lo > hi:
            raise UsageError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError as exc:
        raise UsageError(f"bad pair count {text!r}") from exc


def _emit(text: str, path: str | None, mode: str = "w"):
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            fh = open(path, mode, encoding="utf-8", newline="\n")
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}") from exc
        with fh:
            fh.write(text)


def _check_output(path: str) -> None:
    """Raise :func:`_emit`'s usage error for ``path`` before any run, and
    change nothing: append nothing, and remove a file the check created."""
    existed = os.path.exists(path)
    _emit("", path, "a")
    if not existed:
        os.remove(os.path.realpath(path))  # the file itself, also behind a dangling link


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _render_run(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, indent=2, sort_keys=True) + "\n"
    lines = [f"protocol: {record['protocol']}"]
    params = " ".join(f"{k}={v}" for k, v in record["parameters"].items())
    lines.append(f"parameters: {params}")
    if "engine" in record:
        lines.append(f"engine: {record['engine']}")
    if "ensemble" in record:
        lines.append("ensemble:")
        lines.append(record["ensemble"].rstrip("\n"))
    if "branches" in record:
        lines.append("branches:")
        for br in record["branches"]:
            lines.append(
                f"  a={br['outcome']} probability={_fmt(br['probability'])} -> "
                + br["ensemble"].rstrip("\n").replace("\n", " | ")
            )
    for key in ("fidelity", "choi_residual", "output"):
        if key in record:
            lines.append(f"{key}: {_fmt(record[key])}")
    if "ledger" in record:
        led = record["ledger"]
        lines.append(
            "ledger: "
            + " ".join(f"{k}={_fmt(v)}" for k, v in led.items())
        )
    lines.append("checks:")
    for c in record["checks"]:
        status = "pass" if c["passed"] else "FAIL"
        lines.append(
            f"  {c['name']}: {status} (measured {_fmt(c['measured'])}, requires {c['tolerance']})"
        )
    lines.append(f"result: {'pass' if record['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _protocol_record(protocol: str, args, params: dict, ledger, checks: list[verify.Check], **output) -> dict:
    """A protocol run's report; ``output`` is its ensemble or branch table."""
    return {
        "protocol": protocol,
        "engine": args.engine,
        "parameters": params,
        **output,
        "ledger": ledger.to_dict(),
        "checks": checks,
    }


def _run_protocol(fn, *args):
    """Run a protocol; the ValueError it raises for bad parameters is a usage error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _dense_route(args, run):
    """The dense route's result; None for the symbolic engine, or past the oracle's
    limits, where the reported ``args.engine`` becomes "symbolic" and stderr says why."""
    if args.engine == "symbolic":
        return None
    try:
        return run()
    except protocols.DenseLimitError as exc:
        print(f"note: dense checks skipped: {exc}", file=sys.stderr)
        args.engine = "symbolic"
        return None


def _finish_run(record: dict, args) -> int:
    record["checks"] = [c._asdict() for c in record["checks"]]
    record["passed"] = all(c["passed"] for c in record["checks"])
    _emit(_render_run(record, args.format), args.output)
    return _EXIT_OK if record["passed"] else _EXIT_VERIFY


def cmd_clone(args) -> int:
    n = args.n
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    if args.set == "two":
        if not args.pair:
            raise UsageError("--set two requires --pair, e.g. --pair B1,B3")
        pair = tuple(_parse_label(x) for x in args.pair.split(","))
        if len(pair) != 2 or pair[0] == pair[1]:
            raise UsageError("--pair needs two distinct labels")
        input_label = _parse_label(args.input)
        ensemble, ledger = _run_protocol(protocols.clone_pair_1_to_n, input_label, pair, n)
        expected_ebits = n - 1
        params = {"set": "two", "pair": ",".join(l.name for l in pair), "input": input_label.name, "n": n}
        dense_run = lambda: protocols.clone_pair_dense(input_label, pair, n)  # noqa: E731
        checks = [verify.symbolic_target(ensemble, (input_label,) * n)]
    else:
        if args.pair:
            raise UsageError("--pair applies only to --set two")
        if "," in args.input:
            input_state = _parse_distribution(args.input)
            input_name = args.input
        else:
            input_state = _parse_label(args.input)
            input_name = input_state.name
        ensemble, ledger = _run_protocol(protocols.clone_four_1_to_n, input_state, n)
        expected_ebits = measures.ed_rho_m(n + 1)
        params = {"set": "four", "input": input_name, "n": n}
        dense_run = lambda: protocols.clone_four_dense(input_state, n)  # noqa: E731
        checks = [verify.correlated_clones(ensemble)]

    checks += [verify.ledger_ebits(ledger, expected_ebits), verify.locc_audit(ledger)]
    dn = _dense_route(args, dense_run)
    if dn is not None:
        checks.append(verify.dense_agreement(ensemble, dn))
        if len(ensemble.entries) == 1:
            checks.append(verify.dense_fidelity(dn, ensemble))
    return _finish_run(_protocol_record("clone", args, params, ledger, checks, ensemble=ensemble.to_text()), args)


def cmd_prepare(args) -> int:
    m = args.m
    if m < 2:
        raise UsageError(f"--m must be >= 2, got {m}")
    ensemble, ledger = protocols.prepare_rho_m(m)
    checks = [
        verify.uniform_structure(ensemble),
        verify.ledger_ebits(ledger, measures.ed_rho_m(m)),
        verify.locc_audit(ledger),
    ]
    dn = _dense_route(args, lambda: protocols.prepare_rho_m_dense(m))
    if dn is not None:
        checks.append(verify.preparation_agreement(ensemble, dn))
    return _finish_run(_protocol_record("prepare", args, {"m": m}, ledger, checks, ensemble=ensemble.to_text()), args)


def cmd_teleport(args) -> int:
    input_label = _parse_label(args.input)
    if args.channel == "smolin":
        channel = to_dense(protocols.smolin_ensemble())
        analytic = protocols.eq_filter_choi()
    else:
        channel = protocols.ideal_channel()
        omega = np.zeros(16, dtype=complex)
        omega[[0, 5, 10, 15]] = 0.5
        analytic = np.outer(omega, omega.conj())
    inp = to_dense(BellEnsemble.point((input_label,)), role="input")
    fidelity = verify.output_fidelity(protocols.teleport_two_qubit(channel, inp), input_label)
    choi = dense.choi_matrix(lambda s: protocols.teleport_two_qubit(channel, s))
    residual = verify.choi_residual(choi, analytic)
    record = {
        "protocol": "teleport",
        "parameters": {"channel": args.channel, "input": input_label.name},
        "output": input_label.name if fidelity.passed else "mixed",
        "fidelity": fidelity.measured,
        "choi_residual": residual.measured,
        "checks": [fidelity, residual],
    }
    return _finish_run(record, args)


def cmd_distill(args) -> int:
    p = _parse_distribution(args.p)
    n = args.n
    ensemble, prep_ledger = _run_protocol(protocols.prepare_quasi_pure, p, n)
    branches, ledger = _run_protocol(protocols.distill_quasi_pure, ensemble)
    checks = [
        verify.preparation_ebits(prep_ledger, n - 1),
        verify.distilled_ebits(ledger, n - 1),
        verify.pure_branches(branches),
        verify.locc_audit(ledger),
    ]
    dense_branches = _dense_route(args, lambda: protocols.distill_quasi_pure_dense(ensemble))
    if dense_branches is not None:
        checks.append(verify.dense_branch_probabilities(branches, dense_branches))
        checks.append(verify.branch_agreement(branches, dense_branches))
    table = [{"outcome": bit, "probability": prob, "ensemble": cond.to_text()} for bit, prob, cond in branches]
    return _finish_run(_protocol_record("distill", args, {"p": args.p, "n": n}, ledger, checks, branches=table), args)


def _sigma_curve_rows(n: int, grid: int) -> list[dict]:
    p = np.arange(1, grid + 1) / (grid + 1)  # entry k-1 is k / (grid + 1)
    ecn, edn = measures.ec_sigma_n(p, n), measures.ed_sigma_n(p, n)
    columns = {
        "p": p,
        "ec_sigma1": measures.ec_sigma1(p),
        "ed_sigma1": measures.ed_sigma1(p),
        "ec_sigmaN": ecn,
        "ed_sigmaN": edn,
        "gap": ecn - edn,
    }
    return [dict(zip(columns, row)) for row in zip(*(column.tolist() for column in columns.values()))]


def cmd_measures(args) -> int:
    if (args.curve is None) == (args.state is None):
        raise UsageError("choose exactly one of --curve sigma or --state rhoM")
    if args.curve is not None:
        if args.curve != "sigma":
            raise UsageError(f"unknown curve {args.curve!r}")
        if args.grid < 1:
            raise UsageError("--grid must be >= 1")
        if args.n < 1:
            raise UsageError("--n must be >= 1")
        rows = _sigma_curve_rows(args.n, args.grid)
        columns = ["p", "ec_sigma1", "ed_sigma1", "ec_sigmaN", "ed_sigmaN", "gap"]
    else:
        if args.state != "rhoM":
            raise UsageError(f"unknown state family {args.state!r}")
        if args.m is None:
            raise UsageError("--state rhoM requires --m, e.g. --m 2..8")
        ms = _parse_m_range(args.m)
        if min(ms) < 2:
            raise UsageError("rhoM needs m >= 2")
        rows = [{"m": m, "ed_rhoM": measures.ed_rho_m(m)} for m in ms]
        columns = ["m", "ed_rhoM"]

    if args.format == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    elif args.format == "text":
        text = "".join(
            "  ".join(f"{col}={_fmt(row[col])}" for col in columns) + "\n" for row in rows
        )
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row[col]) for col in columns))
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return _EXIT_OK


def cmd_verify_all(args) -> int:
    records = verify.run_all()
    _emit(verify.report_json(records), args.output)
    if args.output is not None:
        for r in records:
            sys.stdout.write(f"{r.id}: {'pass' if r.passed else 'FAIL'}\n")
    return _EXIT_OK if all(r.passed for r in records) else _EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellclone",
        description="Exact LOCC cloning, teleportation and distillation of Bell states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, engine=True, formats=("text", "json")):
        p.add_argument("--output", default=None, help="write the report to a file instead of stdout")
        p.add_argument("--format", choices=formats, default=formats[0])
        if engine:
            p.add_argument("--engine", choices=("symbolic", "dense", "both"), default="both")

    p_clone = sub.add_parser("clone", help="run 1->n cloning of a Bell state")
    p_clone.add_argument("--set", choices=("two", "four"), required=True)
    p_clone.add_argument("--pair", default=None, help="the two declared labels, e.g. B1,B3")
    p_clone.add_argument("--input", required=True, help="Bell label (or 4 probabilities for --set four)")
    p_clone.add_argument("--n", type=int, required=True)
    common(p_clone)
    p_clone.set_defaults(func=cmd_clone)

    p_prep = sub.add_parser("prepare", help="prepare the uniform four-branch ancilla rho_m")
    p_prep.add_argument("--m", type=int, required=True)
    common(p_prep)
    p_prep.set_defaults(func=cmd_prepare)

    p_tel = sub.add_parser("teleport", help="teleport a Bell state through a two-pair channel")
    p_tel.add_argument("--channel", choices=("smolin", "ideal"), default="smolin")
    p_tel.add_argument("--input", required=True)
    common(p_tel, engine=False)
    p_tel.set_defaults(func=cmd_teleport)

    p_dist = sub.add_parser("distill", help="prepare and distill a quasi-pure mixture")
    p_dist.add_argument("--p", required=True, help="four component probabilities, e.g. 0.4,0.1,0.3,0.2")
    p_dist.add_argument("--n", type=int, required=True)
    common(p_dist)
    p_dist.set_defaults(func=cmd_distill)

    p_meas = sub.add_parser("measures", help="evaluate cost/distillation formulas")
    p_meas.add_argument("--curve", choices=("sigma",), default=None)
    p_meas.add_argument("--state", choices=("rhoM",), default=None)
    p_meas.add_argument("--n", type=int, default=1)
    p_meas.add_argument("--grid", type=int, default=99)
    p_meas.add_argument("--m", default=None, help="pair count or range, e.g. 2..8")
    common(p_meas, engine=False, formats=("csv", "text", "json"))
    p_meas.set_defaults(func=cmd_measures)

    p_ver = sub.add_parser("verify-all", help="run the full claim suite")
    p_ver.add_argument("--output", default=None, help="write the JSON report to a file")
    p_ver.set_defaults(func=cmd_verify_all)

    return parser


#: The parser of :func:`main`, built on its first call (not at import) and
#: reused: parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.output is not None:
            _check_output(args.output)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
