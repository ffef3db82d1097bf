"""Adaptive generalized multiscale FEM with goal-oriented basis enrichment."""

import importlib

from .adapt import MarkingConfig, STRATEGIES, adapt_loop, build_problem, mark
from .coarse_solve import assemble_coarse, solve_dual, solve_primal
from .fine_fem import (
    CoefficientField,
    assemble_load,
    assemble_stiffness,
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

# The cli names load on first access (PEP 562): importing ``.cli`` here would
# put ``gmsfem.cli`` in sys.modules before ``python -m gmsfem.cli`` runs it,
# which runpy warns about.
_CLI_EXPORTS = ("ExperimentConfig", "generate_field", "read_field", "run_experiment", "write_field")


def __getattr__(name):
    if name == "cli" or name in _CLI_EXPORTS:
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
