"""The benchmark's workloads.

Standard library only, so that ``run.py`` can read it before it pins the
BLAS threads and imports numpy.
"""

import dataclasses
import random

CRITERION8_FIELD_SEED = 7
R = 10  # fine cells per coarse cell side, as in criterion 8


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nc: int
    cells: tuple  # (field kind, contrast) pairs
    strategies: tuple
    max_iterations: int
    dof_cap: int
    goal_stop: bool  # stop each run at the criterion-8 threshold
    pass_s: float  # one pass on the reference machine (2-vCPU Xeon VM, 1 BLAS thread)


ALL_STRATEGIES = ("standard", "goal_h1", "goal_dwr")
CRITERION8_CELLS = (("channel", 1e4), ("channel", 1e6), ("inclusions", 1e4), ("inclusions", 1e6))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_nc10",
            "criterion-8 sweep to its 1e-2 goal threshold at 1 thread; the online loop and coarse assembly dominate",
            nc=10,
            cells=CRITERION8_CELLS,
            strategies=ALL_STRATEGIES,
            max_iterations=60,
            dof_cap=2000,
            goal_stop=True,
            pass_s=18.0,
        ),
        Workload(
            "cutoff_nc20",
            "nc=20 offline stage, then standard and goal_h1 capped just past the dense-solver cutoff, so Jacobi-CG solves dominate",
            nc=20,
            cells=(("channel", 1e4),),
            strategies=("standard", "goal_h1"),
            max_iterations=200,
            dof_cap=2005,
            goal_stop=False,
            pass_s=26.0,
        ),
    )
}

# Not a benchmark workload: the self-test's tiny grid.
TINY = Workload(
    "tiny",
    "self-test grid",
    nc=3,
    cells=(("channel", 1e4),),
    strategies=ALL_STRATEGIES,
    max_iterations=3,
    dof_cap=2000,
    goal_stop=True,
    pass_s=1.0,
)


def run_order(workload, seed):
    """The (cell, strategies) order of a run; the seed only permutes the cells.

    Within a cell the strategies keep the workload's order, criterion 8's
    (standard, goal_h1, goal_dwr). Peak RSS depends on that order through the
    allocator's history: on an nc=20 workload every order that ran goal_dwr
    first on a freshly built problem peaked at 527-548 MB, every other order
    at 456-471 MB.
    """
    cells = list(workload.cells)
    random.Random(seed).shuffle(cells)
    return [(cell, workload.strategies) for cell in cells]
