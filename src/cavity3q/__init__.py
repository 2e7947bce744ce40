"""Three-qubit entanglement from two-mode squeezed light shared by two cavities.

Two atoms in one cavity and a single atom in a remote cavity couple
resonantly to injected squeezed light; tracing out the fields leaves a mixed
three-qubit state whose entanglement structure (free, bound and pairwise)
this package computes analytically and validates against brute-force
Hilbert-space evolution.
"""

from .entanglement import (
    NEGATIVE_EIGENVALUE_CUTOFF,
    SELECTIVE_SPECS,
    W1_STATE,
    NegativityBatch,
    NegativityReport,
    PureStateDecomposition,
    QubitLabel,
    analytic_negativity_b,
    bell_projection_probability,
    decompose,
    global_negativity,
    linear_entropy,
    negative_eigenpairs,
    negative_eigensum,
    negativity_batch,
    negativity_report,
    partial_kway_negativity,
    partial_trace,
    partial_transpose_global,
    partial_transpose_kway,
    psd_partial_negativity,
    psdg_negativity,
    selective_partial_transpose,
    w1_fidelity,
)
from .fock_field import (
    FieldConfig,
    binomial_amplitude_row,
    binomial_amplitude_table,
    truncation_deficit,
    truncation_deficits,
)
from .oracle import (
    ComparisonReport,
    compare_states,
    full_evolution,
    full_evolution_grid,
)
from .tavis_cummings import (
    PATTERN_MASK,
    ThreeQubitDensityMatrix,
    closed_form_grid,
    closed_form_rho,
    diagonal_probabilities,
    pattern_violations,
    rho_from_elements,
    states_from_elements,
)

__version__ = "0.1.0"

__all__ = [
    "FieldConfig",
    "binomial_amplitude_row",
    "binomial_amplitude_table",
    "truncation_deficit",
    "truncation_deficits",
    "ThreeQubitDensityMatrix",
    "PATTERN_MASK",
    "pattern_violations",
    "closed_form_grid",
    "states_from_elements",
    "rho_from_elements",
    "closed_form_rho",
    "diagonal_probabilities",
    "QubitLabel",
    "SELECTIVE_SPECS",
    "NEGATIVE_EIGENVALUE_CUTOFF",
    "W1_STATE",
    "PureStateDecomposition",
    "NegativityReport",
    "NegativityBatch",
    "partial_transpose_global",
    "partial_transpose_kway",
    "selective_partial_transpose",
    "negative_eigenpairs",
    "negative_eigensum",
    "global_negativity",
    "analytic_negativity_b",
    "partial_kway_negativity",
    "decompose",
    "psdg_negativity",
    "psd_partial_negativity",
    "partial_trace",
    "linear_entropy",
    "w1_fidelity",
    "bell_projection_probability",
    "negativity_batch",
    "negativity_report",
    "full_evolution_grid",
    "full_evolution",
    "ComparisonReport",
    "compare_states",
    "__version__",
]
