"""Smoke test of the benchmark's tracer against the current dense layer.

``bench/tracing.py`` wraps dense kernels by name and patches
``PureBranch.__post_init__``; a renamed kernel or a missing attribute
would only surface in a ``--trace 1`` benchmark run.  This runs the
tracer around two CLI commands that teleport through the dense oracle
(Bell measurements that drop the measured pair, with no partial trace)
and one dense distillation, whose span ``protocols.distill_quasi_pure_dense``
the tracer must record; its parity measurement drops the measured pair too.
"""

import importlib.util
import sys
from pathlib import Path

import bellclone
import bellclone.cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched_attributes():
    """Every attribute the tracer may replace, by owner and name."""
    owners = [m for n, m in sys.modules.items() if n == "bellclone" or n.startswith("bellclone.")]
    values = {(id(m), attr): value for m in owners for attr, value in vars(m).items()}
    for cls, attr in ((bellclone.calculus.BellEnsemble, "__init__"), (bellclone.dense.PureBranch, "__post_init__")):
        values[(id(cls), attr)] = cls.__dict__[attr]
    return values


def test_tracer_spans_dense_teleportation_and_uninstalls(capsys):
    tracer = _load_tracing().Tracer(bellclone)
    before = _patched_attributes()
    tracer.install()
    try:
        assert _patched_attributes() != before
        tracer.start_job(0)
        assert bellclone.cli.main(["teleport", "--channel", "smolin", "--input", "B2"]) == 0
        assert bellclone.cli.main(["clone", "--set", "four", "--input", "B3", "--n", "2", "--engine", "both"]) == 0
        assert bellclone.cli.main(["distill", "--p", "0.4,0.1,0.3,0.2", "--n", "3", "--engine", "both"]) == 0
        tracer.end_pass(0)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = tracer.calls[0]
    assert calls["dense.bell_measurement"] > 0
    assert calls["protocols.distill_quasi_pure_dense"] > 0
    assert tracer.counts[0]["calculus.to_dense.amplitudes"] > 0
    after = _patched_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
