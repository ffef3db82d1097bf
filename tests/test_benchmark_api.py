"""The library API that the benchmark in ``perfbench/`` calls and traces.

``python3 -m pytest perfbench`` is outside this suite's test paths, so a
pruned name the benchmark relies on would otherwise only fail there.
"""

import sys
from pathlib import Path

import numpy as np

import gmsfem
from conftest import cpu_affinity
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
    # check_problem reads the spectra, which the space builds from its arrays
    space = problem.space
    assert len(space.spectra) == space.n_neighborhoods
    for i, spectrum in enumerate(space.spectra):
        assert spectrum.vertex_id == i
        assert spectrum.eigenvalues.tobytes() == space.eigenvalues[i].tobytes()
        assert spectrum.jitter == space.jitter[i]
    assert checks.check_trace(trace, cfg) == []
    assert trace.rows[0].goal_error == measure._initial_goal_error(gmsfem, problem)
    walls = trace.column("wall_time")
    assert len(walls) == len(trace.rows) and np.all(np.diff(walls) >= 0)


def test_build_problem_traced_call_counts():
    # each offline layer runs once per problem, the snapshots and eigensolves
    # once per neighborhood (N = 4 at nc=3), at the attributes the tracer wraps;
    # on one CPU build_basis forks no worker, whose calls the tracer would miss
    grid = mesh.GridHierarchy(3, 10)
    field = cli.generate_field("channel", 1e4, grid.nf, 7)
    densities = measure._densities(gmsfem, grid)
    tracer = tracing.Tracer()
    with tracer.installed(gmsfem), cpu_affinity(1):
        since = tracer.mark()
        adapt.build_problem(grid, field, *densities)
        summary = tracer.summary(since)
    once = (
        "mesh.all_neighborhoods",
        "fine_fem.assemble_stiffness",
        "fine_fem.patch_stiffness",
        "fine_fem.patch_weighted_mass",
        "fine_fem.solve_dirichlet",
        "ms_space.compute_partition_of_unity",
        "ms_space.compute_spectral_weight",
        "ms_space.build_basis",
        "indicators.ResidualNormCache.__init__",
        "adapt.build_problem",
    )
    per_neighborhood = ("ms_space.compute_snapshots", "ms_space.local_spectral_decomposition")
    expected = {**dict.fromkeys(once, 1), **dict.fromkeys(per_neighborhood, 4)}
    assert {name: summary[f"{name}.calls"] for name in expected} == expected
