"""Marking strategies and the adaptive enrichment loop."""

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import coarse_solve, fine_fem, indicators, mesh, ms_space

__all__ = [
    "AdaptFailure",
    "MarkingConfig",
    "TraceRow",
    "AdaptTrace",
    "ProblemSetup",
    "STRATEGIES",
    "mark",
    "adapt_loop",
    "build_problem",
    "write_trace_csv",
]

STRATEGIES = ("standard", "goal_h1", "goal_dwr")


class AdaptFailure(RuntimeError):
    """A solver failure inside the adaptive loop, annotated with its iteration."""


@dataclass(frozen=True)
class MarkingConfig:
    """Marking and loop-control parameters.

    theta is the bulk fraction, strategy the marking flavor (full_sort or
    binning), s the enrichment width per marked neighborhood, m_enrich the
    extra eigenfunctions of the DWR dual space.  The loop stops on
    max_iterations, the dof cap, an empty marked set, or (if positive) when
    the reference goal error drops below goal_tol.
    """

    theta: float = 0.5
    strategy: str = "full_sort"
    s: int = 1
    max_iterations: int = 15
    dof_cap: int = 2000
    goal_tol: float = 0.0
    m_enrich: int = 2
    dual_norm_mode: str = "exact"

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {self.theta}")
        if self.s < 1:
            raise ValueError(f"enrichment width s must be >= 1, got {self.s}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.strategy not in ("full_sort", "binning"):
            raise ValueError(f"unknown marking strategy {self.strategy!r}")
        if self.dual_norm_mode not in ("exact", "snapshot"):
            raise ValueError(f"unknown dual norm mode {self.dual_norm_mode!r}")


def mark(report, cfg):
    """Neighborhoods to enrich, as sorted vertex ids.

    full_sort picks the minimal descending prefix satisfying the bulk
    criterion theta * sum(eta^2) <= sum(marked eta^2), ties broken by
    ascending vertex id.  binning drops indicators below (1-theta)*total/N,
    then consumes dyadic bands [M/2^(p+1), M/2^p) largest first (ascending id
    inside a band) until the criterion holds; the result is within a factor
    of two of the minimal cardinality.
    """
    eta = report.eta_sq
    ids = np.arange(len(eta))
    if cfg.strategy == "full_sort":
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
    """Per-iteration convergence record of one adaptive run."""

    strategy: str
    rows: list = dataclass_field(default_factory=list)
    final_counts: np.ndarray = None
    stop_reason: str = ""

    def column(self, name):
        return np.array([getattr(row, name) for row in self.rows])


class ProblemSetup:
    """Everything the adaptive loop consumes, precomputed once per problem.

    Offline data (partition of unity, snapshots, spectra, initial space), the
    global stiffness, load vectors of the source and the goal, and the fine
    reference solution used only for trace error reporting.
    """

    def __init__(self, grid, field, stiffness, f_load, g_load, space, u_ref):
        self.grid = grid
        self.field = field
        self.stiffness = stiffness
        self.f_load = f_load
        self.g_load = g_load
        self.space = space
        self.u_ref = u_ref
        self.neighborhoods = space.neighborhoods
        self._norm_caches = {}

    def norm_cache(self, mode):
        """The ResidualNormCache of dual-norm ``mode``, built on first use.

        Every strategy run on this problem shares it; it is not built in
        ``build_problem`` because goal_dwr never needs one.
        """
        if mode not in self._norm_caches:
            self._norm_caches[mode] = indicators.ResidualNormCache(
                self.neighborhoods, self.stiffness, mode=mode, spectra=self.space.spectra
            )
        return self._norm_caches[mode]


def build_problem(grid, field, f_density, g_density, initial_count=1):
    """Run the offline pipeline and the fine reference solve for one problem.

    Each neighborhood starts with ``initial_count`` eigenfunctions (clipped at
    L_i), rounded up to the end of a cluster of tied eigenvalues.
    """
    neighborhoods = mesh.all_neighborhoods(grid)
    stiffness = fine_fem.assemble_stiffness(grid, field)
    pu = ms_space.compute_partition_of_unity(grid, field, neighborhoods)
    weight = ms_space.compute_spectral_weight(grid, field, pu)
    spectra = []
    for neigh in neighborhoods:
        patch_A = fine_fem.patch_stiffness(grid, field, neigh)
        patch_S = fine_fem.patch_weighted_mass(grid, weight, neigh)
        snapshots = ms_space.compute_snapshots(neigh, field, patch_matrix=patch_A)
        spectra.append(ms_space.local_spectral_decomposition(neigh, patch_A, patch_S, snapshots))
    counts = [s.cluster_end(min(initial_count, s.n_snapshots)) for s in spectra]
    space = ms_space.build_basis(pu, spectra, counts)

    f_load = fine_fem.assemble_load(grid, f_density)
    g_load = fine_fem.assemble_load(grid, g_density)
    u_ref = fine_fem.solve_dirichlet(stiffness, f_load, grid.boundary_vertex_ids())
    return ProblemSetup(grid, field, stiffness, f_load, g_load, space, u_ref)


def adapt_loop(problem, strategy, cfg, collect_reports=None):
    """Iterate solve -> indicators -> mark -> enrich for one strategy.

    The indicators never consume the fine reference; it only feeds the trace's
    energy and goal error columns.  ``collect_reports``, if a list, receives
    the per-iteration IndicatorReport objects.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    A = problem.stiffness
    space = problem.space
    norm_cache = None if strategy == "goal_dwr" else problem.norm_cache(cfg.dual_norm_mode)
    trace = AdaptTrace(strategy=strategy)
    start = time.perf_counter()

    for iteration in range(cfg.max_iterations):
        try:
            system = coarse_solve.assemble_coarse(space, A, problem.f_load)
            u_ms = coarse_solve.solve_primal(system)
            rho_u = indicators.fine_residual(A, problem.f_load, u_ms)

            if strategy == "standard":
                norms_u = [
                    norm_cache.norm(i, rho_u[neigh.fine_vertices_interior])
                    for i, neigh in enumerate(problem.neighborhoods)
                ]
                report = indicators.eta_standard(space, norms_u, iteration)
            elif strategy == "goal_h1":
                z_ms = coarse_solve.solve_dual(system, problem.g_load)
                rho_z = indicators.fine_residual(A, problem.g_load, z_ms)
                norms_u = [
                    norm_cache.norm(i, rho_u[neigh.fine_vertices_interior])
                    for i, neigh in enumerate(problem.neighborhoods)
                ]
                norms_z = [
                    norm_cache.norm(i, rho_z[neigh.fine_vertices_interior])
                    for i, neigh in enumerate(problem.neighborhoods)
                ]
                report = indicators.eta_goal_h1(space, norms_u, norms_z, iteration)
            else:
                if cfg.m_enrich < 1:
                    raise ValueError("goal_dwr requires m_enrich >= 1")
                enriched_system = coarse_solve.assemble_coarse(
                    space.extended(cfg.m_enrich), A, problem.f_load
                )
                z_enrich = coarse_solve.solve_dual(
                    enriched_system, problem.g_load, enriched=True
                )
                report = indicators.eta_dwr(space, rho_u, z_enrich, iteration)
        except (fine_fem.SolveFailure, coarse_solve.RankDeficientBasis) as exc:
            raise AdaptFailure(
                f"{strategy} iteration {iteration} ({space.total_dofs} dofs): {exc}"
            ) from exc

        if collect_reports is not None:
            collect_reports.append(report)
        marked = mark(report, cfg)
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
        new_space = ms_space.enrich(space, marked, cfg.s)
        if new_space.total_dofs == space.total_dofs:
            trace.stop_reason = "marked set saturated"
            break
        space = new_space
    else:
        trace.stop_reason = "max iterations"

    trace.final_counts = space.counts.copy()
    return trace


def write_trace_csv(trace, path, extra=None):
    """Write one trace as CSV; ``extra`` appends fixed configuration columns.

    Wall time is deliberately omitted so repeated runs are byte-identical.
    """
    extra = extra or {}
    header = "strategy,iteration,dofs,energy_error,goal_error,sum_eta_sq,marked_count"
    if extra:
        header += "," + ",".join(extra)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in trace.rows:
            line = (
                f"{trace.strategy},{row.iteration},{row.dofs},{row.energy_error!r},"
                f"{row.goal_error!r},{row.sum_eta_sq!r},{row.marked_count}"
            )
            if extra:
                line += "," + ",".join(str(v) for v in extra.values())
            fh.write(line + "\n")
