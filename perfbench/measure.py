"""One pass over a workload through the public API, and its output checks.

A pass makes the same calls criterion 8 makes: ``cli.generate_field``,
``adapt.build_problem``, ``adapt.adapt_loop`` and ``adapt.write_trace_csv``,
then checks what came out. Output checks run with the pass clock paused.
"""

import ctypes
import ctypes.util
import dataclasses
import time
import traceback

import numpy as np

import checks
from workloads import R

# Criterion 8 measures dofs to reach 1e-2 x the standard strategy's initial
# goal error.
GOAL_FACTOR = 1e-2

_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))


def release_free_memory():
    """Hand freed heap pages back to the OS between independent runs, so that
    peak RSS measures what a run keeps alive rather than the allocator
    history left by the runs before it (glibc only; elsewhere a no-op)."""
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)


@dataclasses.dataclass
class PassResult:
    setup_s: float = 0.0
    adapt_s: float = 0.0
    wall_s: float = 0.0
    goal_s: float = 0.0
    samples: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)
    digests: dict = dataclasses.field(default_factory=dict)
    iterations: int = 0
    marked: int = 0
    dofs_at_goal: int = 0
    goal_missed: int = 0
    layers: dict = dataclasses.field(default_factory=dict)  # traced passes only


def _densities(gmsfem, grid):
    cli = gmsfem.cli
    f_density = cli.box_fraction(grid, cli.K1_BOX) - cli.box_fraction(grid, cli.K2_BOX)
    return f_density, cli.box_fraction(grid, cli.K2_BOX)


def _initial_goal_error(gmsfem, problem):
    """Goal error of the initial space: iteration 0 of every strategy."""
    coarse_solve = gmsfem.coarse_solve
    system = coarse_solve.assemble_coarse(problem.space, problem.stiffness, problem.f_load)
    u0 = coarse_solve.solve_primal(system)
    return abs(float(problem.g_load @ (problem.u_ref - u0.fine)))


def run_pass(gmsfem, workload, order, field_seed, out_dir, tracer=None, pass_id=0):
    """Run every (field, strategy) of the workload once and check the outputs."""
    adapt, cli, mesh = gmsfem.adapt, gmsfem.cli, gmsfem.mesh
    result = PassResult()
    paused = 0.0
    start = time.perf_counter()
    grid = mesh.GridHierarchy(workload.nc, R)
    f_density, g_density = _densities(gmsfem, grid)
    base_cfg = adapt.MarkingConfig(
        theta=0.5, s=1, m_enrich=2, max_iterations=workload.max_iterations, dof_cap=workload.dof_cap
    )
    for (kind, contrast), strategies in order:
        cell = f"{kind}@{contrast:g}"
        if tracer is not None:
            tracer.run_id = f"pass{pass_id}/{cell}/setup"
        field = cli.generate_field(kind, contrast, grid.nf, field_seed)
        t0 = time.perf_counter()
        try:
            problem = adapt.build_problem(grid, field, f_density, g_density)
            build_s = time.perf_counter() - t0
            g0 = _initial_goal_error(gmsfem, problem)
        except Exception:
            result.attempted += len(strategies)
            message = traceback.format_exc(limit=3)
            result.failures += [(f"{cell}/{s}", message) for s in strategies]
            continue
        result.setup_s += build_s
        t0 = time.perf_counter()
        cell_problems = checks.check_problem(problem)
        paused += time.perf_counter() - t0
        threshold = GOAL_FACTOR * g0
        cfg = dataclasses.replace(base_cfg, goal_tol=threshold) if workload.goal_stop else base_cfg

        for strategy in strategies:
            label = f"{cell}/{strategy}"
            result.attempted += 1
            if tracer is not None:
                tracer.run_id = f"pass{pass_id}/{label}"
            path = out_dir / f"trace_{kind}_{contrast:g}_{strategy}.csv"
            t0 = time.perf_counter()
            try:
                trace = adapt.adapt_loop(problem, strategy, cfg)
                result.adapt_s += time.perf_counter() - t0
                adapt.write_trace_csv(trace, path)
            except Exception:
                result.failures.append((label, traceback.format_exc(limit=3)))
                continue

            t0 = time.perf_counter()
            found = list(cell_problems) + checks.check_trace(trace, cfg)
            if trace.rows[0].goal_error != g0:
                found.append(f"initial goal error {trace.rows[0].goal_error!r} != {g0!r}")
            result.failures += [(label, p) for p in found]
            result.digests[label] = checks.digest(path)
            walls = trace.column("wall_time")
            result.samples += list(np.diff(walls, prepend=0.0))
            result.iterations += len(trace.rows)
            result.marked += int(trace.column("marked_count").sum())
            hit = np.flatnonzero(trace.column("goal_error") <= threshold)
            if hit.size:
                result.goal_s += float(walls[hit[0]])
                result.dofs_at_goal += int(trace.rows[hit[0]].dofs)
            else:
                result.goal_s += float(walls[-1])
                result.goal_missed += 1
            release_free_memory()
            paused += time.perf_counter() - t0
        del problem
        t0 = time.perf_counter()
        release_free_memory()
        paused += time.perf_counter() - t0
    result.wall_s = time.perf_counter() - start - paused
    return result

