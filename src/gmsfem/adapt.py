"""Marking strategies and the adaptive enrichment loop."""

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import coarse_solve, fine_fem, indicators, mesh, ms_space, workers
from .csvout import write_csv

__all__ = [
    "AdaptFailure",
    "MarkingConfig",
    "TraceRow",
    "AdaptTrace",
    "ProblemSetup",
    "STRATEGIES",
    "MARKING_RULES",
    "mark",
    "adapt_loop",
    "build_problem",
    "write_trace_csv",
]

STRATEGIES = ("standard", "goal_h1", "goal_dwr")
MARKING_RULES = ("full_sort", "binning")


class AdaptFailure(RuntimeError):
    """A solver failure inside the adaptive loop, annotated with its iteration."""


@dataclass(frozen=True)
class MarkingConfig:
    """The settings of one adaptive run.

    The run starts from ``initial_count`` eigenfunctions per neighborhood
    (clipped at L, rounded up to the end of a cluster of tied eigenvalues).
    theta is the bulk fraction, rule the marking rule (full_sort or
    binning), s the enrichment width per marked neighborhood, m_enrich the
    extra eigenfunctions of the DWR dual space.  The loop stops on
    max_iterations, the dof cap, an empty marked set, or (if positive) when
    the reference goal error drops below goal_tol.
    """

    theta: float = 0.5
    rule: str = "full_sort"
    s: int = 1
    max_iterations: int = 15
    dof_cap: int = 2000
    goal_tol: float = 0.0
    m_enrich: int = 2
    initial_count: int = 1

    def __post_init__(self):
        for name in ("s", "m_enrich", "max_iterations", "dof_cap", "initial_count"):
            mesh._check_integer(name, getattr(self, name))
        for name in ("theta", "goal_tol"):
            mesh._check_real(name, getattr(self, name))
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {self.theta}")
        if self.s < 1:
            raise ValueError(f"enrichment width s must be >= 1, got {self.s}")
        if self.m_enrich < 1:
            raise ValueError(f"DWR dual width m_enrich must be >= 1, got {self.m_enrich}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.dof_cap < 1:
            raise ValueError(f"dof_cap must be >= 1, got {self.dof_cap}")
        if self.initial_count < 1:
            raise ValueError(f"initial_count must be >= 1, got {self.initial_count}")
        if not (np.isfinite(self.goal_tol) and self.goal_tol >= 0.0):
            raise ValueError(f"goal_tol must be finite and >= 0, got {self.goal_tol}")
        if self.rule not in MARKING_RULES:
            raise ValueError(f"unknown marking rule {self.rule!r}")


def _check_strategy(name):
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGIES}")


def _check_dual_norm_mode(mode):
    if mode not in indicators.DUAL_NORM_MODES:
        raise ValueError(f"unknown dual norm mode {mode!r}")


def mark(eta_sq, cfg):
    """Neighborhoods to enrich, as sorted vertex ids, from the N values eta_i^2
    alone: the strategies differ only in them (IndicatorReport.eta_sq).

    The marking rule is cfg.rule.  full_sort picks the minimal descending
    prefix satisfying the bulk criterion theta * sum(eta^2) <= sum(marked
    eta^2), ties broken by ascending vertex id.  binning drops indicators
    below (1-theta)*total/N, then consumes dyadic bands [M/2^(p+1), M/2^p)
    largest first (ascending id inside a band) until the criterion holds;
    the result is within a factor of two of the minimal cardinality.
    """
    eta = np.asarray(eta_sq, dtype=float)
    ids = np.arange(len(eta))
    if cfg.rule == "full_sort":
        order = np.lexsort((ids, -eta))
        csum = np.cumsum(eta[order])
        total = csum[-1]
        if total <= 0.0:
            return np.empty(0, dtype=int)
        k = int(np.searchsorted(csum, cfg.theta * total, side="left")) + 1
        return np.sort(order[: min(k, len(eta))])

    total = float(eta.sum())
    if total <= 0.0:
        return np.empty(0, dtype=int)
    keep = eta > (1.0 - cfg.theta) * total / len(eta)
    kept_ids = ids[keep]
    kept_eta = eta[keep]
    top = kept_eta.max()
    bins = np.floor(np.log2(top / kept_eta)).astype(int)
    order = np.lexsort((kept_ids, bins))
    csum = np.cumsum(kept_eta[order])
    k = int(np.searchsorted(csum, cfg.theta * total, side="left")) + 1
    return np.sort(kept_ids[order[: min(k, len(kept_ids))]])


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    dofs: int
    energy_error: float
    goal_error: float
    sum_eta_sq: float
    marked_count: int
    wall_time: float


@dataclass
class AdaptTrace:
    """Per-iteration convergence record of one adaptive run; ``reports``
    holds each iteration's IndicatorReport, one per row, in row order.  A
    trace thus holds N values per iteration and keeps no problem alive."""

    strategy: str
    rows: list = dataclass_field(default_factory=list)
    final_counts: np.ndarray = None
    stop_reason: str = ""
    reports: list = dataclass_field(default_factory=list)

    def column(self, name):
        return np.array([getattr(row, name) for row in self.rows])


class ProblemSetup:
    """Everything the adaptive loop consumes, precomputed once per problem.

    Offline data (partition of unity and the one-function space, the span
    of the chi_i, which each run widens to its MarkingConfig.initial_count;
    the snapshots are kept only as the snapshot-mode dual norms' zero-trace
    parts), the global stiffness, load vectors of the source and the goal,
    ``dual_norms``, the ResidualNormCache of the problem's one dual-norm
    mode, the fine reference solution, which gives the trace's error
    columns and the loop's goal_tol stop, and ``galerkin_store``, the
    GalerkinStore of the stiffness, which every run on this problem selects
    from and grows, whatever its source.  That growth is the only state
    added after construction.
    """

    def __init__(self, stiffness, f_load, g_load, space, u_ref, dual_norms):
        self.stiffness = stiffness
        self.f_load = f_load
        self.g_load = g_load
        self.space = space
        self.u_ref = u_ref
        self.dual_norms = dual_norms
        self.galerkin_store = coarse_solve.GalerkinStore(space, stiffness)


def _repeats(field, weight, pu, dual_norms):
    """same[i], the lowest neighborhood whose offline inputs are byte for
    byte neighborhood i's: its patch stiffness and mass rows, chi_i and its
    block of the exact factor (dual_norms.factor_block).

    The patch rows are computed column by column from the coefficients and
    spectral weights of the patch's cells (fine_fem.PatchMatrices), so one
    np.unique over the bytes of those values and of chi_i groups them.  A
    member whose factor block differs from its group's lowest is left to
    itself (same[i] = i).  Bytes, not values, as -0.0 == 0.0.
    """
    cells = pu.neighborhoods.cells
    cell_values = (coeff.values.ravel()[cells] for coeff in (field, weight))
    keys = np.concatenate((*cell_values, pu.patches), axis=1)
    rows = keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize)))[:, 0]
    _, first, group = np.unique(rows, return_index=True, return_inverse=True)
    same = first[group]
    for i in np.flatnonzero(same != np.arange(len(same))):
        if dual_norms.factor_block(i).tobytes() != dual_norms.factor_block(same[i]).tobytes():
            same[i] = i
    return same


@workers.one_blas_thread()
def build_problem(grid, field, f_density, g_density, dual_norm_mode="exact"):
    """Run the fine reference solve and the offline pipeline for one problem.

    The fine reference is solved beside the offline stage (workers.Beside),
    started as soon as the stiffness and the source load exist; its failure
    is raised in place of any later one, as in a serial run, and no result
    depends on the number of CPUs.  The partition of unity's neighborhoods
    are the problem's one patch layout.  The patch stiffness and weighted
    mass of all neighborhoods are assembled in one batched call each and
    dropped when this returns; the patch stiffness comes first, as the
    exact dual-norm cache is built from it, and that cache's factor solves
    the snapshots.  It groups the neighborhoods whose spectral inputs are
    byte for byte equal (_repeats), and build_basis solves each group once.
    The problem's space is build_basis's one-function space; each run
    widens it to its MarkingConfig.initial_count.  The problem's
    ``dual_norms`` are of ``dual_norm_mode``: in snapshot mode the
    ``spectrum`` closure copies the snapshots' interior rows into one
    shared (N, m, L) array as the workers solve them, each group's other
    members copy those rows once the fill is done, and the snapshot cache
    is built from it once the exact factor and the patch mass are released,
    so nothing is assembled or solved twice.  It runs at one BLAS thread
    with the OpenBLAS pools shut (workers.one_blas_thread), so its results
    do not depend on the thread count and its workers may fork.
    """
    _check_dual_norm_mode(dual_norm_mode)
    stiffness = fine_fem.assemble_stiffness(grid, field)
    f_load = fine_fem.assemble_load(grid, f_density)

    def solve_reference():
        return fine_fem.solve_dirichlet(stiffness, f_load, grid.boundary_vertex_ids())

    with workers.Beside(solve_reference, grid.n_vertices) as reference:
        g_load = fine_fem.assemble_load(grid, g_density)
        pu = ms_space.compute_partition_of_unity(grid, field)
        neighborhoods = pu.neighborhoods
        patch_A = fine_fem.patch_stiffness(field, neighborhoods)
        # exact: its factor solves the snapshots
        dual_norms = indicators.ResidualNormCache(patch_A)
        weight = ms_space.compute_spectral_weight(field, pu)
        patch_S = fine_fem.patch_weighted_mass(weight, neighborhoods)

        parts = None  # snapshot mode's zero-trace parts, which spectrum(i) fills
        if dual_norm_mode == "snapshot":
            N, m = neighborhoods.interior_vertices.shape
            (parts,) = workers.shared_arrays((N, m, len(neighborhoods.rim)))

        def spectrum(i):
            # one call per solved neighborhood: the benchmark's tracer wraps and counts each
            snapshots = ms_space.compute_snapshots(patch_A, i, dual_norms)
            if parts is not None:
                parts[i] = snapshots[neighborhoods.interior]
            return ms_space.local_spectral_decomposition(
                i, patch_A.matrix(i), patch_S.matrix(i), snapshots
            )

        same = _repeats(field, weight, pu, dual_norms)
        space = ms_space.build_basis(pu, spectrum, same)
        if parts is not None:
            ms_space.copy_repeats(same, parts)
            del dual_norms, patch_S  # release the exact factor and the patch mass before the grams
            dual_norms = indicators.ResidualNormCache(patch_A, zero_trace_parts=parts)
    return ProblemSetup(stiffness, f_load, g_load, space, reference.result, dual_norms)


@workers.one_blas_thread()
@workers.helper_thread()
def adapt_loop(problem, strategy, cfg):
    """Iterate solve -> indicators -> mark -> enrich for one strategy,
    starting from cfg.initial_count functions per neighborhood.

    The indicators never consume the fine reference; it feeds the trace's
    energy and goal error columns, and the goal error against it is what the
    goal_tol stop reads.  Each coarse system is dropped after its last
    solve, so at most one is alive at a time.  goal_h1 takes the dual norms
    of its primal and dual residuals in one call.  Like build_problem, it
    runs at one BLAS thread (workers.one_blas_thread).  Where build_problem
    would fork workers, the run has a helper thread on the last CPU
    (workers.helper_thread), which takes the lower half of the dual norms'
    chunked solve and the short product of each store growth; every value is
    bitwise the serial one, so the trace does not depend on the number of
    CPUs.  The thread is joined before this returns or raises.
    """
    _check_strategy(strategy)
    A = problem.stiffness
    space = problem.space.extended(cfg.initial_count - 1)
    dual_norms = problem.dual_norms
    store = problem.galerkin_store
    trace = AdaptTrace(strategy=strategy)
    start = time.perf_counter()

    for iteration in range(cfg.max_iterations):
        try:
            system = coarse_solve.assemble_coarse(space, A, problem.f_load, store)
            u_ms = coarse_solve.solve_primal(system)
            if strategy == "goal_h1":
                z_ms = coarse_solve.solve_dual(system, problem.g_load)
            del system
            rho_u = indicators.fine_residual(A, problem.f_load, u_ms.fine)

            if strategy == "standard":
                report = indicators.eta_standard(space, dual_norms.norms(rho_u))
            elif strategy == "goal_h1":
                rho_z = indicators.fine_residual(A, problem.g_load, z_ms.fine)
                norms = dual_norms.norms(np.column_stack((rho_u, rho_z)))
                report = indicators.eta_goal_h1(space, norms[:, 0], norms[:, 1])
            else:
                enriched_system = coarse_solve.assemble_coarse(
                    space.extended(cfg.m_enrich), A, problem.f_load, store
                )
                z_enrich = coarse_solve.solve_dual(enriched_system, problem.g_load)
                del enriched_system
                report = indicators.eta_dwr(space, rho_u, z_enrich)
        except (fine_fem.SolveFailure, coarse_solve.RankDeficientBasis) as exc:
            raise AdaptFailure(
                f"{strategy} iteration {iteration} ({space.total_dofs} dofs): {exc}"
            ) from exc

        trace.reports.append(report)
        marked = mark(report.eta_sq, cfg)
        diff = problem.u_ref - u_ms.fine
        energy_error = fine_fem.energy_norm(A, diff)
        goal_error = abs(float(problem.g_load @ diff))
        trace.rows.append(
            TraceRow(
                iteration=iteration,
                dofs=space.total_dofs,
                energy_error=energy_error,
                goal_error=goal_error,
                sum_eta_sq=report.total,
                marked_count=len(marked),
                wall_time=time.perf_counter() - start,
            )
        )

        if len(marked) == 0:
            trace.stop_reason = "all indicators zero"
            break
        if cfg.goal_tol > 0.0 and goal_error <= cfg.goal_tol:
            trace.stop_reason = "goal tolerance reached"
            break
        if space.total_dofs >= cfg.dof_cap:
            trace.stop_reason = "dof cap reached"
            break
        space = ms_space.enrich(space, marked, cfg.s)
    else:
        trace.stop_reason = "max iterations"

    trace.final_counts = space.counts.copy()
    return trace


def _write_csv(traces, path, extra):
    """Write traces under one header; ``extra`` appends fixed configuration
    columns to every row.

    Wall time is deliberately omitted so repeated runs are byte-identical.
    """
    columns = ["iteration", "dofs", "energy_error", "goal_error", "sum_eta_sq", "marked_count"]
    rows = (
        [trace.strategy, *(getattr(row, name) for name in columns), *extra.values()]
        for trace in traces
        for row in trace.rows
    )
    write_csv(path, ["strategy", *columns, *extra], rows)


def write_trace_csv(trace, path):
    """Write one trace as CSV."""
    _write_csv([trace], path, {})
