"""Exact simulation and verification of LOCC Bell-state cloning,
teleportation and distillation protocols.

Two interlocking engines: :mod:`bellclone.calculus` rewrites Bell-label
ensembles symbolically (exact at any number of pairs), while
:mod:`bellclone.dense` executes the same circuits on explicit state
vectors and evaluates entanglement witnesses, certifying every symbolic
rule.  :mod:`bellclone.protocols` builds the LOCC protocols on top,
:mod:`bellclone.measures` evaluates the closed-form entanglement
quantities, and :mod:`bellclone.cli` exposes everything as a command
line tool.
"""

from .labels import B1, B2, B3, B4, LABELS, BellLabel, BellString, label_from_name
from .dense import (
    Cut,
    DenseState,
    PureBranch,
    QubitLabel,
    apply_unitary,
    bell_measurement,
    bell_vector,
    choi_matrix,
    fidelity,
    log_negativity,
    pair_register,
    partial_trace,
    partial_transpose,
    pauli,
    tensor,
    trace_distance,
)
from .calculus import (
    BellEnsemble,
    bilateral_hadamard,
    bxor,
    discriminate_sets,
    mix,
    one_sided_pauli,
    to_dense,
)
from .protocols import (
    PairReduction,
    ResourceLedger,
    SigmaBuild,
    build_sigma_n,
    clone_four_1_to_n,
    clone_pair_1_to_n,
    distill_quasi_pure,
    ideal_channel,
    necessity_witness_four,
    necessity_witness_two,
    pair_reduction_table,
    prepare_quasi_pure,
    prepare_rho_m,
    smolin_ensemble,
    teleport_two_qubit,
)
from .measures import (
    MeasureReport,
    binary_entropy,
    ec_sigma1,
    ec_sigma_n,
    ed_rho2n,
    ed_rho_m,
    ed_sigma1,
    ed_sigma_n,
    irreversibility_gap,
)
