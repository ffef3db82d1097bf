"""Adaptive generalized multiscale FEM with goal-oriented basis enrichment."""

import importlib

from . import adapt, coarse_solve, fine_fem, indicators, mesh, ms_space, workers

__version__ = "0.1.0"


# cli loads on first access (PEP 562): importing ``.cli`` here would put
# ``gmsfem.cli`` in sys.modules before ``python -m gmsfem.cli`` runs it, which
# runpy warns about.
def __getattr__(name):
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
