"""The library API that the benchmark in ``perfbench/`` calls and traces.

``python3 -m pytest perfbench`` is outside this suite's test paths, so a
pruned name the benchmark relies on would otherwise only fail there.
"""

import sys
from pathlib import Path

import gmsfem
from gmsfem import cli, coarse_solve, mesh

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
