"""Adaptive generalized multiscale FEM with goal-oriented basis enrichment."""

from .adapt import MarkingConfig, STRATEGIES, adapt_loop, build_problem, mark
from .cli import ExperimentConfig, generate_field, read_field, run_experiment, write_field
from .coarse_solve import assemble_coarse, solve_dual, solve_primal
from .fine_fem import (
    CoefficientField,
    assemble_load,
    assemble_stiffness,
    assemble_weighted_mass,
    energy_norm,
    solve_dirichlet,
)
from .indicators import eta_dwr, eta_goal_h1, eta_standard
from .mesh import GridHierarchy
from .ms_space import (
    build_basis,
    compute_partition_of_unity,
    compute_snapshots,
    compute_spectral_weight,
    enrich,
    local_spectral_decomposition,
)

__version__ = "0.1.0"
