"""Quantum-walk search on the weighted simplex of complete graphs.

Construction of the graph family, its 7-dimensional invariant-subspace
reduction, exact Schrodinger evolution of the two-stage search schedule, and
closed-form predictions for the critical jumping rates, energy gaps, and
runtimes.
"""

from .dynamics import (
    Stage,
    TimeSeries,
    evolve,
    optimal_stage1_duration,
    peak_success,
    run_schedule,
    stage_half_width,
    two_stage_schedule,
    width_scan,
)
from .graph import (
    CENSUS_KEYS,
    CLASS_TAGS,
    GraphSpec,
    build_adjacency,
    class_sizes,
    classify_vertices,
    edge_census,
)
from .spectral import (
    NoCrossingError,
    Spectrum,
    SweepResult,
    eigh,
    find_crossing,
    gamma_sweep,
    overlaps,
    probe_state,
)
from .subspace import (
    ReducedBasis,
    class_basis,
    connectivity_and_norm,
    full_hamiltonian,
    full_initial_state,
    reduced_adjacency,
    reduced_hamiltonian,
    reduced_initial_state,
)
from .theory import (
    Prediction,
    algebraic_connectivity_formula,
    census_formulas,
    gamma_c1_exact,
    predict,
    unperturbed_pair,
    validity_margin,
)

__version__ = "0.1.0"

__all__ = [
    "CENSUS_KEYS",
    "CLASS_TAGS",
    "GraphSpec",
    "NoCrossingError",
    "Prediction",
    "ReducedBasis",
    "Spectrum",
    "Stage",
    "SweepResult",
    "TimeSeries",
    "algebraic_connectivity_formula",
    "build_adjacency",
    "census_formulas",
    "class_basis",
    "class_sizes",
    "classify_vertices",
    "connectivity_and_norm",
    "edge_census",
    "eigh",
    "evolve",
    "find_crossing",
    "full_hamiltonian",
    "full_initial_state",
    "gamma_c1_exact",
    "gamma_sweep",
    "optimal_stage1_duration",
    "overlaps",
    "peak_success",
    "predict",
    "probe_state",
    "reduced_adjacency",
    "reduced_hamiltonian",
    "reduced_initial_state",
    "run_schedule",
    "stage_half_width",
    "two_stage_schedule",
    "unperturbed_pair",
    "validity_margin",
    "width_scan",
]
