"""Traced runs: spans around the calls into each bellclone layer.

Nothing here changes bellclone's source.  ``Tracer.install`` replaces
each listed public function by a timing wrapper in every ``bellclone``
module namespace that binds it (``protocols`` imports ``bxor`` by name,
so wrapping ``calculus.bxor`` alone would miss its calls), in the claim
tuple ``verify.CLAIMS``, and on two classes (``BellEnsemble.__init__``,
``PureBranch.__post_init__``).  ``uninstall`` restores every original.
An untraced run never imports this module.

Each span records name, start, end, parent span and job id.  Spans stay
in memory until their pass ends; then they are folded into per-pass
totals, and those of the first passes are kept and written as JSONL
once the run ends.  Self time is a span's duration minus the durations
of its direct children.
``labels`` gets no spans: it runs millions of times per pass from
inside ``calculus``, where wrapping would cost more than the work.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

CALCULUS_REWRITES = ("bxor", "bilateral_hadamard", "one_sided_pauli")
DENSE_FNS = (
    "apply_unitary",
    "bell_measurement",
    "partial_trace",
    "from_density_matrix",
    "partial_transpose",
    "log_negativity",
    "trace_distance",
    "choi_matrix",
    "tensor",
)
PROTOCOL_FNS = (
    "prepare_rho_m",
    "clone_pair_1_to_n",
    "clone_four_1_to_n",
    "distill_quasi_pure",
    "build_sigma_n",
    "apply_steps",
    "teleport_two_qubit",
    "pair_reduction_table",
    "clone_pair_dense",
    "prepare_rho_m_dense",
    "clone_four_dense",
    "distill_quasi_pure_dense",
)
MEASURE_FNS = (
    "binary_entropy",
    "ec_sigma1",
    "ed_sigma1",
    "ec_sigma_n",
    "ed_sigma_n",
    "irreversibility_gap",
    "ed_rho2n",
    "ed_rho_m",
    "log_negativity_report",
)
#: Traced passes whose raw spans are written out (a verify-suite pass
#: makes about 37 000 spans).
KEEP_SPAN_PASSES = 2
CLAIM_IDS = (
    "bxor-gate-certificate",
    "formula-suite",
    "four-state-cloning",
    "linearity-witnesses",
    "preparation-circuits",
    "quasi-pure-reversibility",
    "sigma-round-trip",
    "smolin-ppt",
    "teleport-choi",
    "two-state-cloning",
)


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self, bc):
        self.bc = bc
        # One row per span: [name, start_ns, end_ns, parent index or -1, job].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1
        self.job_pass: list[int] = []
        # Per-pass totals, keyed by traced pass index.
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.calls: dict[int, Counter] = defaultdict(Counter)
        self.self_ns: dict[int, Counter] = defaultdict(Counter)
        self.inclusive_ns: dict[int, Counter] = defaultdict(Counter)
        self.kept: list[list[list]] = []
        self.max_register_qubits = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def start_job(self, pass_index: int) -> None:
        self.job = len(self.job_pass)
        self.job_pass.append(pass_index)

    def _count(self, key: str, amount=1) -> None:
        self.counts[self.job_pass[self.job]][key] += amount

    def _wrap(self, fn, name: str, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name, 0, 0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if after is not None:
                after(row, args, result)
            return result

        return wrapper

    def job_span(self, name: str, fn):
        return self._wrap(fn, name)()

    # -- installation ----------------------------------------------------------

    def _modules(self):
        return [m for n, m in sys.modules.items() if n == "bellclone" or n.startswith("bellclone.")]

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        bc = self.bc
        calc, dense, prot, meas, verify, cli = (
            bc.calculus, bc.dense, bc.protocols, bc.measures, bc.verify, bc.cli,
        )
        for fn in CALCULUS_REWRITES:
            self._replace_everywhere(getattr(calc, fn), self._wrap(getattr(calc, fn), "calculus.rewrite", self._rewrite))
        self._replace_everywhere(calc.discriminate_sets, self._wrap(calc.discriminate_sets, "calculus.discriminate"))
        self._replace_everywhere(calc.to_dense, self._wrap(calc.to_dense, "calculus.to_dense", self._to_dense))
        self._patch_method(
            calc.BellEnsemble, "__init__", self._wrap(calc.BellEnsemble.__init__, "calculus.canonicalize")
        )
        for fn in DENSE_FNS:
            self._replace_everywhere(getattr(dense, fn), self._wrap(getattr(dense, fn), f"dense.{fn}", self._dense(fn)))
        original_post_init = dense.PureBranch.__post_init__

        def post_init(branch):
            self._count("dense.branches.constructed")
            original_post_init(branch)

        self._patch_method(dense.PureBranch, "__post_init__", post_init)
        for fn in PROTOCOL_FNS:
            self._replace_everywhere(getattr(prot, fn), self._wrap(getattr(prot, fn), f"protocols.{fn}", self._ledger))
        for fn in MEASURE_FNS:
            self._replace_everywhere(getattr(meas, fn), self._wrap(getattr(meas, fn), "measures"))
        claims = tuple(self._wrap(fn, "verify.claim", self._claim) for fn in verify.CLAIMS)
        self._restore.append((verify, "CLAIMS", verify.CLAIMS))
        verify.CLAIMS = claims
        self._replace_everywhere(cli.main, self._wrap(cli.main, "cli.main"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- counters measured at the wrapped boundaries -----------------------------

    def _rewrite(self, row, args, result) -> None:
        ensemble = args[0]
        support = len(ensemble.entries)
        self._count("calculus.rewrite.string_steps", support)
        self._count("calculus.rewrite.pair_string_steps", support * ensemble.n_pairs)

    def _see_register(self, state) -> None:
        if isinstance(state, self.bc.dense.DenseState):
            self.max_register_qubits = max(self.max_register_qubits, state.n_qubits)

    def _to_dense(self, row, args, state) -> None:
        self._see_register(state)
        self._count("calculus.to_dense.amplitudes", len(state.branches) * 2**state.n_qubits)

    def _dense(self, fn: str):
        limit = self.bc.dense.MAX_DENSE_QUBITS

        def eig(dim: int) -> None:
            self._count("dense.eigh.calls")
            self._count("dense.eigh.dim3_sum", dim**3)

        def after(row, args, result) -> None:
            self._see_register(args[0])
            self._see_register(result)
            if fn in ("apply_unitary", "bell_measurement"):
                # Computed: every complex128 amplitude of every branch read and written once.
                state = args[0]
                self._count(f"dense.{fn}.bytes", 2 * 16 * len(state.branches) * 2**state.n_qubits)
            elif fn == "from_density_matrix":
                eig(args[0].shape[0])
            elif fn == "log_negativity":
                eig(2 ** args[0].n_qubits)
            elif fn == "trace_distance":
                a, b = args[0], args[1]
                # Past the materialization limit the eigenproblem lives in the
                # joint branch span, whose rank is at most the branch count.
                n = a.n_qubits
                eig(2**n if n <= limit else len(a.branches) + len(b.branches))

        return after

    def _ledger(self, row, args, result) -> None:
        if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], self.bc.protocols.ResourceLedger):
            self._count("protocols.ledger_steps", len(result[1].steps))

    def _claim(self, row, args, record) -> None:
        row[0] = f"verify.claim.{record.id}"

    # -- results ---------------------------------------------------------------

    def end_pass(self, pass_index: int) -> None:
        """Fold the pass's spans into per-pass totals; keep the raw spans of
        the first KEEP_SPAN_PASSES passes for the JSONL file."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        for (name, start, end, _, _), ns in zip(self.spans, own):
            self.calls[pass_index][name] += 1
            self.self_ns[pass_index][name] += ns
            self.inclusive_ns[pass_index][name] += end - start
        if pass_index < KEEP_SPAN_PASSES:
            self.kept.append([row + [ns] for row, ns in zip(self.spans, own)])
        self.spans.clear()

    def per_pass(self, passes: list[int]) -> dict[str, float]:
        """Per-layer metrics of the traced passes: counts per pass (they
        repeat exactly, pass after pass) and median self seconds."""

        def med(table, names) -> float:
            return statistics.median(sum(table[p][n] for n in names) for p in passes)

        def count(names) -> int | float:
            return _exact(sum(self.calls[p][n] for p in passes for n in names), len(passes))

        def counter(key) -> int | float:
            return _exact(sum(self.counts[p][key] for p in passes), len(passes))

        m: dict[str, float] = {}
        for group in ("calculus.rewrite", "calculus.canonicalize", "calculus.discriminate", "calculus.to_dense"):
            m[f"{group}.calls"] = count([group])
            m[f"{group}.self_s"] = med(self.self_ns, [group]) / 1e9
        for key in ("string_steps", "pair_string_steps"):
            m[f"calculus.rewrite.{key}"] = counter(f"calculus.rewrite.{key}")
        steps = m["calculus.rewrite.string_steps"]
        m["calculus.rewrite.ns_per_string_step"] = m["calculus.rewrite.self_s"] * 1e9 / steps if steps else 0.0
        m["calculus.to_dense.amplitudes"] = counter("calculus.to_dense.amplitudes")
        for fn in DENSE_FNS:
            m[f"dense.{fn}.calls"] = count([f"dense.{fn}"])
            m[f"dense.{fn}.self_s"] = med(self.self_ns, [f"dense.{fn}"]) / 1e9
        for key in ("apply_unitary.bytes", "bell_measurement.bytes", "eigh.calls", "eigh.dim3_sum", "branches.constructed"):
            m[f"dense.{key}"] = counter(f"dense.{key}")
        m["dense.max_register_qubits"] = self.max_register_qubits
        for fn in PROTOCOL_FNS:
            m[f"protocols.{fn}.calls"] = count([f"protocols.{fn}"])
            m[f"protocols.{fn}.self_s"] = med(self.self_ns, [f"protocols.{fn}"]) / 1e9
        m["protocols.ledger_steps"] = counter("protocols.ledger_steps")
        m["measures.calls"] = count(["measures"])
        m["measures.self_s"] = med(self.self_ns, ["measures"]) / 1e9
        for claim in CLAIM_IDS:
            m[f"verify.claim.{claim}.s"] = med(self.inclusive_ns, [f"verify.claim.{claim}"]) / 1e9
        m["cli.main.calls"] = count(["cli.main"])
        m["cli.self_s"] = med(self.self_ns, ["cli.main"]) / 1e9
        return m

    def write_jsonl(self, path) -> int:
        """Write the kept spans, one JSON object per line; returns the count."""
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            for spans in self.kept:
                for i, (name, start, end, parent, job, ns) in enumerate(spans):
                    record = {
                        "id": written + i,
                        "name": name,
                        "start_ns": start,
                        "end_ns": end,
                        "parent": written + parent if parent >= 0 else None,
                        "job": job,
                        "self_ns": ns,
                    }
                    fh.write(json.dumps(record, separators=(",", ":")) + "\n")
                written += len(spans)
        return written


def _exact(total: int, passes: int) -> int | float:
    """Per-pass value of a count summed over ``passes`` identical passes."""
    return total // passes if total % passes == 0 else total / passes
