"""The library API that the benchmark in ``perfbench/`` calls and traces.

``python3 -m pytest perfbench`` is outside this suite's test paths, so a
pruned name the benchmark relies on would otherwise only fail there.
"""

import sys
from pathlib import Path

import numpy as np

import gmsfem
from gmsfem import adapt, cli, coarse_solve, mesh

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402


def test_benchmark_api_exists():
    # installing the tracer looks up every name in tracing.WRAPPED
    with tracing.Tracer().installed(gmsfem):
        pass
    assert callable(coarse_solve.assemble_coarse)
    assert callable(coarse_solve.solve_primal)
    assert callable(mesh.GridHierarchy)
    assert callable(cli.box_fraction)
    assert len(cli.K1_BOX) == 4 and len(cli.K2_BOX) == 4
    # read by the tracer's coarse-system counters
    assert isinstance(coarse_solve.CoarseSystem.dense, property)


def test_benchmark_output_checks_pass_on_a_tiny_run():
    # what measure.py and checks.py read of a problem and a trace: the
    # spectra, the partition of unity, the loads and the trace columns
    grid = mesh.GridHierarchy(3, 10)
    field = cli.generate_field("channel", 1e4, grid.nf, 7)
    problem = adapt.build_problem(grid, field, *measure._densities(gmsfem, grid))
    cfg = adapt.MarkingConfig(max_iterations=2)
    trace = adapt.adapt_loop(problem, "standard", cfg)
    assert checks.check_problem(problem) == []
    assert checks.check_trace(trace, cfg) == []
    assert trace.rows[0].goal_error == measure._initial_goal_error(gmsfem, problem)
    walls = trace.column("wall_time")
    assert len(walls) == len(trace.rows) and np.all(np.diff(walls) >= 0)
