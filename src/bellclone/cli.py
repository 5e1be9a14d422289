"""Command-line front end: protocol runs, formula curves, claim suite.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error.
Output is deterministic; identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
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


def _check(name: str, passed: bool, measured, tolerance: str) -> dict:
    return {"name": name, "passed": bool(passed), "measured": measured, "tolerance": tolerance}


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


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


def _finish_run(record: dict, args) -> int:
    record["passed"] = all(c["passed"] for c in record["checks"])
    _emit(_render_run(record, args.format), args.output)
    return _EXIT_OK if record["passed"] else _EXIT_VERIFY


def cmd_clone(args) -> int:
    n = args.n
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    engine = args.engine
    checks = []
    if args.set == "two":
        if not args.pair:
            raise UsageError("--set two requires --pair, e.g. --pair B1,B3")
        pair = tuple(_parse_label(x) for x in args.pair.split(","))
        if len(pair) != 2 or pair[0] == pair[1]:
            raise UsageError("--pair needs two distinct labels")
        input_label = _parse_label(args.input)
        try:
            ensemble, ledger = protocols.clone_pair_1_to_n(input_label, pair, n)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        expected_ebits = n - 1
        params = {"set": "two", "pair": ",".join(l.name for l in pair), "input": input_label.name, "n": n}
        dense_run = lambda: protocols.clone_pair_dense(input_label, pair, n)  # noqa: E731
        target = (input_label,) * n
        checks.append(_check("symbolic-target", ensemble.entries == {target: 1.0}, "exact point mass", "exact"))
    else:
        if args.pair:
            raise UsageError("--pair applies only to --set two")
        if "," in args.input:
            input_state = _parse_distribution(args.input)
            input_name = args.input
        else:
            input_state = _parse_label(args.input)
            input_name = input_state.name
        try:
            ensemble, ledger = protocols.clone_four_1_to_n(input_state, n)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        expected_ebits = n if n % 2 == 0 else n - 1
        params = {"set": "four", "input": input_name, "n": n}
        dense_run = lambda: protocols.clone_four_dense(input_state, n)  # noqa: E731
        checks.append(
            _check(
                "symbolic-structure",
                all(len(set(s)) == 1 for s in ensemble.entries),
                "perfectly correlated clones",
                "exact",
            )
        )

    checks.append(
        _check("ledger-ebits", ledger.ebits_consumed == expected_ebits, ledger.ebits_consumed, f"= {expected_ebits}")
    )
    checks.append(_check("locc-audit", not ledger.locc_violations(), len(ledger.locc_violations()), "no cross-cut steps"))
    if engine in ("dense", "both") and 2 * ensemble.n_pairs <= dense.MAX_REGISTER_QUBITS:
        dn = dense_run()
        td = dense.trace_distance(to_dense(ensemble), dn)
        checks.append(_check("symbolic-dense-agreement", td < 1e-10, td, "trace distance < 1e-10"))
        if len(ensemble.entries) == 1:
            fid = dense.fidelity(dn, to_dense(ensemble).branches[0].amplitudes)
            checks.append(_check("dense-fidelity", abs(1.0 - fid) <= 1e-12, fid, "within 1e-12 of 1"))

    record = {
        "protocol": "clone",
        "engine": engine,
        "parameters": params,
        "ensemble": ensemble.to_text(),
        "ledger": ledger.to_dict(),
        "checks": checks,
    }
    return _finish_run(record, args)


def cmd_prepare(args) -> int:
    m = args.m
    if m < 2:
        raise UsageError(f"--m must be >= 2, got {m}")
    ensemble, ledger = protocols.prepare_rho_m(m)
    expected_ebits = m - 1 if m % 2 else m - 2
    checks = [
        _check(
            "uniform-structure",
            ensemble.allclose(BellEnsemble.uniform_strings(m), tol=0.0),
            f"{len(ensemble.entries)} strings",
            "four constant strings at 1/4",
        ),
        _check("ledger-ebits", ledger.ebits_consumed == expected_ebits, ledger.ebits_consumed, f"= {expected_ebits}"),
        _check("locc-audit", not ledger.locc_violations(), len(ledger.locc_violations()), "no cross-cut steps"),
    ]
    if args.engine in ("dense", "both") and 2 * m <= dense.MAX_REGISTER_QUBITS:
        td = dense.trace_distance(to_dense(ensemble), protocols.prepare_rho_m_dense(m))
        checks.append(_check("symbolic-dense-agreement", td < 1e-12, td, "trace distance < 1e-12"))
    record = {
        "protocol": "prepare",
        "engine": args.engine,
        "parameters": {"m": m},
        "ensemble": ensemble.to_text(),
        "ledger": ledger.to_dict(),
        "checks": checks,
    }
    return _finish_run(record, args)


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
    out = protocols.teleport_two_qubit(channel, inp)
    fid = dense.fidelity(out, dense.bell_vector(input_label))
    choi = dense.choi_matrix(lambda s: protocols.teleport_two_qubit(channel, s))
    residual = float(np.max(np.abs(choi - analytic)))
    checks = [
        _check("output-fidelity", abs(1.0 - fid) <= 1e-12, fid, "within 1e-12 of 1"),
        _check("choi-residual", residual < 1e-9, residual, "< 1e-9"),
    ]
    record = {
        "protocol": "teleport",
        "parameters": {"channel": args.channel, "input": input_label.name},
        "output": input_label.name if abs(1.0 - fid) <= 1e-12 else "mixed",
        "fidelity": fid,
        "choi_residual": residual,
        "checks": checks,
    }
    return _finish_run(record, args)


def cmd_distill(args) -> int:
    p = _parse_distribution(args.p)
    n = args.n
    try:
        ensemble, prep_ledger = protocols.prepare_quasi_pure(p, n)
        branches, ledger = protocols.distill_quasi_pure(ensemble)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    checks = [
        _check("preparation-ebits", prep_ledger.ebits_consumed == n - 1, prep_ledger.ebits_consumed, f"= {n - 1}"),
        _check("distilled-ebits", ledger.ebits_distilled == n - 1, ledger.ebits_distilled, f"= {n - 1}"),
        _check(
            "pure-branches",
            all(len(cond.entries) == 1 for _, _, cond in branches),
            [len(cond.entries) for _, _, cond in branches],
            "single string per branch",
        ),
        _check("locc-audit", not ledger.locc_violations(), len(ledger.locc_violations()), "no cross-cut steps"),
    ]
    if args.engine in ("dense", "both") and 2 * n <= dense.MAX_REGISTER_QUBITS:
        # Branches are matched by outcome bit; an outcome on one side only
        # counts as probability 0 on the other and fails both checks.
        sym = {bit: (prob, cond) for bit, prob, cond in branches}
        dn = {bit: (prob, state) for bit, prob, state in protocols.distill_quasi_pure_dense(ensemble)}
        same_outcomes = sym.keys() == dn.keys()
        worst_p = max(abs(sym.get(bit, (0.0,))[0] - dn.get(bit, (0.0,))[0]) for bit in sym.keys() | dn.keys())
        worst_td = max(
            (dense.trace_distance(to_dense(sym[bit][1]), dn[bit][1]) for bit in sym.keys() & dn.keys()),
            default=1.0,
        )
        checks.append(
            _check("dense-branch-probabilities", same_outcomes and worst_p <= 1e-12, worst_p, "within 1e-12")
        )
        checks.append(
            _check("symbolic-dense-agreement", same_outcomes and worst_td < 1e-10, worst_td, "trace distance < 1e-10")
        )
    record = {
        "protocol": "distill",
        "engine": args.engine,
        "parameters": {"p": args.p, "n": n},
        "branches": [
            {"outcome": bit, "probability": prob, "ensemble": cond.to_text()}
            for bit, prob, cond in branches
        ],
        "ledger": ledger.to_dict(),
        "checks": checks,
    }
    return _finish_run(record, args)


def _sigma_curve_rows(n: int, grid: int) -> list[dict]:
    rows = []
    for k in range(1, grid + 1):
        p = k / (grid + 1)
        ec1, ed1 = measures.ec_sigma1(p), measures.ed_sigma1(p)
        ecn, edn = measures.ec_sigma_n(p, n), measures.ed_sigma_n(p, n)
        rows.append(
            {
                "p": p,
                "ec_sigma1": ec1,
                "ed_sigma1": ed1,
                "ec_sigmaN": ecn,
                "ed_sigmaN": edn,
                "gap": ecn - edn,
            }
        )
    return rows


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
    report = verify.report_json(records)
    if args.output is None:
        sys.stdout.write(report)
    else:
        _emit(report, args.output)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
