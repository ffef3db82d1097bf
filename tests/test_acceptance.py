"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summaries).  The comparison experiment of criterion 8 is the
long pole; the suite stays well inside its ten-minute budget.
"""

import time

import numpy as np
import pytest

from gmsfem import adapt, cli, coarse_solve, fine_fem, indicators, mesh, ms_space
from gmsfem.adapt import MarkingConfig
from gmsfem.fine_fem import CoefficientField

from conftest import (
    benchmark_densities,
    global_function,
    interior_vertex_position,
    poisson_center_value,
    truncate_solution,
    vertex_coordinates,
)


def _dofs_to_reach(trace, threshold):
    """First dof count at which the goal error crosses the threshold,
    log-linearly interpolated on the dof axis; inf if never reached."""
    rows = trace.rows
    if rows[0].goal_error <= threshold:
        return float(rows[0].dofs)
    for prev, cur in zip(rows, rows[1:]):
        if cur.goal_error <= threshold:
            span = np.log(prev.goal_error) - np.log(cur.goal_error)
            t = (np.log(prev.goal_error) - np.log(threshold)) / span
            return prev.dofs + t * (cur.dofs - prev.dofs)
    return np.inf


def _energy_at(trace, dofs):
    d = trace.column("dofs")
    e = np.log(trace.column("energy_error"))
    return float(np.exp(np.interp(dofs, d, e)))


def test_c01_fine_solver_matches_series_oracle():
    start = time.perf_counter()
    grid = mesh.GridHierarchy(8, 8)  # nf = 64
    field = CoefficientField.constant(grid.nf)
    A = fine_fem.assemble_stiffness(grid, field)
    b = fine_fem.assemble_load(grid, np.ones((grid.nf, grid.nf)))
    u = fine_fem.solve_dirichlet(A, b, grid.boundary_vertex_ids())
    elapsed = time.perf_counter() - start
    center = u[grid.vertex_id(grid.nf // 2, grid.nf // 2)]
    oracle = poisson_center_value()
    assert abs(center - oracle) < 2e-3
    assert elapsed < 5.0
    print(
        f"[criterion 1] PASS: center {center:.6f} vs series {oracle:.6f} "
        f"(|diff| {abs(center - oracle):.2e}), {elapsed:.2f}s"
    )


def test_c02_partition_of_unity_suite():
    grid = mesh.GridHierarchy(10, 10)
    worst_sum = 0.0
    for contrast, seed in ((1.0, 3), (1e4, 7), (1e6, 11)):
        field = cli.generate_field("channel", contrast, grid.nf, seed=seed)
        pu = ms_space.compute_partition_of_unity(grid, field)
        covered = pu.covered_vertex_ids()
        deviation = np.abs(pu.sum_values()[covered] - 1.0).max()
        worst_sum = max(worst_sum, deviation)
        assert deviation <= 1e-8
        if contrast == 1.0:
            coords = vertex_coordinates(grid)
            for i in range(0, grid.n_interior_coarse, 8):
                ci, cj = interior_vertex_position(grid, i)
                hat = np.maximum(0, 1 - np.abs(coords[:, 0] - ci * grid.H) / grid.H)
                hat *= np.maximum(0, 1 - np.abs(coords[:, 1] - cj * grid.H) / grid.H)
                assert np.abs(global_function(pu, i) - hat).max() <= 1e-10
    print(f"[criterion 2] PASS: max |sum(chi)-1| = {worst_sum:.2e}; hats exact at contrast 1")


def test_c03_spectral_suite(channel_problem, channel_offline):
    problem = channel_problem
    field = problem.field
    space, neighborhoods = problem.space, problem.space.neighborhoods
    weight = ms_space.compute_spectral_weight(field, space.pu)
    patches_A = fine_fem.patch_stiffness(field, neighborhoods)
    patches_S = fine_fem.patch_weighted_mass(weight, neighborhoods)
    worst_res, worst_lam1, worst_rayleigh = 0.0, 0.0, 0.0
    for i in range(len(neighborhoods)):
        spectrum = channel_offline["spectra"][i]
        lam = spectrum.eigenvalues
        assert np.all(np.diff(lam) >= -1e-10 * lam[-1])
        assert lam[0] <= 1e-8 * lam[-1]
        worst_lam1 = max(worst_lam1, lam[0] / lam[-1])
        patch_A = patches_A.matrix(i)
        patch_S = patches_S.matrix(i)
        A_off = spectrum.snapshots.T @ (patch_A @ spectrum.snapshots)
        S_off = spectrum.snapshots.T @ (patch_S @ spectrum.snapshots)
        scale = np.linalg.norm(A_off, 2)
        resid = A_off @ spectrum.eigenvectors - (S_off @ spectrum.eigenvectors) * lam
        rel = np.linalg.norm(resid, axis=0).max() / scale
        worst_res = max(worst_res, rel)
        assert rel <= 1e-8
        # the constant snapshot combination realizes the zero eigenvalue
        ones = np.ones(spectrum.n_snapshots)
        rayleigh = (ones @ A_off @ ones) / (ones @ S_off @ ones)
        worst_rayleigh = max(worst_rayleigh, rayleigh / lam[-1])
        assert rayleigh <= 1e-8 * lam[-1]

    rng = np.random.default_rng(2024)
    for i in rng.choice(len(neighborhoods), size=3, replace=False):
        spectrum = channel_offline["spectra"][i]
        patch_A = patches_A.matrix(i)
        patch_S = patches_S.matrix(i)
        A_off = spectrum.snapshots.T @ (patch_A @ spectrum.snapshots)
        S_off = spectrum.snapshots.T @ (patch_S @ spectrum.snapshots)
        L = np.linalg.cholesky(0.5 * (S_off + S_off.T))
        inv_L = np.linalg.inv(L)
        M = inv_L @ (0.5 * (A_off + A_off.T)) @ inv_L.T
        oracle = np.linalg.eigvalsh(0.5 * (M + M.T))
        assert np.abs(spectrum.eigenvalues - oracle).max() <= 1e-8 * max(abs(oracle[-1]), 1.0)
    print(
        f"[criterion 3] PASS: lam1/lam_max <= {worst_lam1:.2e}, eigen-residual "
        f"<= {worst_res:.2e}, constant Rayleigh <= {worst_rayleigh:.2e}, oracle matched"
    )


def test_c04_residuals_vanish_for_fine_references(channel_problem):
    problem = channel_problem
    A = problem.stiffness
    z_ref = fine_fem.solve_dirichlet(A, problem.g_load, problem.grid.boundary_vertex_ids())
    cache = indicators.ResidualNormCache(
        fine_fem.patch_stiffness(problem.field, problem.space.neighborhoods)
    )
    worst = 0.0
    for ref, load, tag in ((problem.u_ref, problem.f_load, "primal"), (z_ref, problem.g_load, "dual")):
        rho = indicators.fine_residual(A, load, ref)
        bound = 1e-8 * np.linalg.norm(load)
        for i, interior in enumerate(problem.space.neighborhoods.interior_vertices):
            norm = cache.norm(i, rho[interior])
            worst = max(worst, norm / bound)
            assert norm <= bound, f"{tag} residual norm {norm:.3e} at neighborhood {i}"
    print(f"[criterion 4] PASS: all residual norms <= {worst:.3f} of the 1e-8*||load|| bound")


def test_c05_snapshot_norm_lower_bounds_exact(channel_problem, channel_offline):
    problem = channel_problem
    space = problem.space
    A = problem.stiffness
    system = coarse_solve.assemble_coarse(space, A, problem.f_load)
    u_ms = coarse_solve.solve_primal(system)
    rho = indicators.fine_residual(A, problem.f_load, u_ms.fine)
    patch_A = fine_fem.patch_stiffness(problem.field, problem.space.neighborhoods)
    exact_cache = indicators.ResidualNormCache(patch_A)
    parts = [s.snapshots[space.neighborhoods.interior] for s in channel_offline["spectra"]]
    snap_cache = indicators.ResidualNormCache(patch_A, zero_trace_parts=parts)
    worst = -np.inf
    for i, interior in enumerate(problem.space.neighborhoods.interior_vertices):
        local = rho[interior]
        gap = snap_cache.norm(i, local) - exact_cache.norm(i, local)
        worst = max(worst, gap)
        assert gap <= 1e-10
    print(f"[criterion 5] PASS: max(snapshot - exact) = {worst:.3e} <= 1e-10")


def test_c06_marking_against_enumeration_oracle():
    rng = np.random.default_rng(606)
    thetas = (0.3, 0.5, 0.7)
    worst_ratio = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 51))
        eta = rng.random(n) ** 2 * 10.0 ** rng.integers(-3, 4)
        theta = thetas[trial % 3]
        report = indicators.IndicatorReport(
            "standard", eta, np.ones(n), np.ones(n, int), np.zeros(n, bool)
        )
        marked = adapt.mark(report, MarkingConfig(theta=theta))
        # brute-force prefix enumeration over the descending (eta, id) order
        order = sorted(range(n), key=lambda i: (-eta[i], i))
        running, oracle = 0.0, []
        for i in order:
            oracle.append(i)
            running += eta[i]
            if running >= theta * eta.sum():
                break
        assert list(marked) == sorted(oracle)
        binned = adapt.mark(report, MarkingConfig(theta=theta, strategy="binning"))
        assert eta[binned].sum() >= theta * eta.sum() * (1 - 1e-12)
        assert len(binned) <= 2 * len(marked)
        worst_ratio = max(worst_ratio, len(binned) / len(marked))
    print(f"[criterion 6] PASS: 1000 vectors, binning/full cardinality <= {worst_ratio:.2f}")


def test_c07_energy_error_monotone_for_all_strategies(channel_problem):
    cfg = MarkingConfig(theta=0.5, s=1, m_enrich=2, max_iterations=10, dof_cap=100_000)
    drops = {}
    for strategy in adapt.STRATEGIES:
        trace = adapt.adapt_loop(channel_problem, strategy, cfg)
        energy = trace.column("energy_error")
        assert len(energy) >= 8
        assert np.all(np.diff(energy) <= 1e-12 * energy[0]), strategy
        drops[strategy] = energy[-1] / energy[0]
    print(
        "[criterion 7] PASS: energy error non-increasing over "
        + ", ".join(f"{s} (x{v:.3f})" for s, v in drops.items())
    )


def test_c08_goal_strategies_outperform_standard(channel_problem):
    start = time.perf_counter()
    grid = mesh.GridHierarchy(10, 10)
    f_density, g_density = benchmark_densities(grid)
    cfg = MarkingConfig(theta=0.5, s=1, m_enrich=2, max_iterations=60, dof_cap=2000)

    goal_wins = 0
    energy_wins = 0
    lines = []
    for kind in ("channel", "inclusions"):
        for contrast in (1e4, 1e6):
            if kind == "channel" and contrast == 1e4:
                problem = channel_problem  # same configuration, shared fixture
            else:
                field = cli.generate_field(kind, contrast, grid.nf, seed=7)
                problem = adapt.build_problem(grid, field, f_density, g_density)
            traces = {s: adapt.adapt_loop(problem, s, cfg) for s in adapt.STRATEGIES}
            threshold = 1e-2 * traces["standard"].rows[0].goal_error
            reach = {s: _dofs_to_reach(tr, threshold) for s, tr in traces.items()}
            common = min(tr.rows[-1].dofs for tr in traces.values())
            energy = {s: _energy_at(tr, common) for s, tr in traces.items()}
            goal_ok = (
                reach["goal_h1"] <= reach["standard"] and reach["goal_dwr"] <= reach["standard"]
            )
            energy_ok = energy["standard"] <= min(energy["goal_h1"], energy["goal_dwr"])
            goal_wins += goal_ok
            energy_wins += energy_ok
            lines.append(
                f"  {kind}@{contrast:g}: dofs to 1e-2*g0 std/h1/dwr = "
                f"{reach['standard']:.0f}/{reach['goal_h1']:.0f}/{reach['goal_dwr']:.0f}, "
                f"energy@{common} std/h1/dwr = "
                f"{energy['standard']:.2e}/{energy['goal_h1']:.2e}/{energy['goal_dwr']:.2e}"
            )
    elapsed = time.perf_counter() - start
    assert goal_wins >= 3, f"goal strategies won only {goal_wins}/4 cells"
    assert energy_wins == 4, f"standard best in energy only in {energy_wins}/4 cells"
    assert elapsed < 600.0
    print(
        f"[criterion 8] PASS: goal strategies within standard's dofs in {goal_wins}/4 "
        f"cells, standard best energy in {energy_wins}/4, {elapsed:.0f}s\n" + "\n".join(lines)
    )


def test_c09_dwr_sum_identity_per_iteration(channel_problem):
    problem = channel_problem
    A = problem.stiffness
    cfg = MarkingConfig(theta=0.5, s=1, m_enrich=2)
    space = problem.space
    worst = 0.0
    for iteration in range(6):
        system = coarse_solve.assemble_coarse(space, A, problem.f_load)
        u_ms = coarse_solve.solve_primal(system)
        rho = indicators.fine_residual(A, problem.f_load, u_ms.fine)
        enriched_system = coarse_solve.assemble_coarse(
            space.extended(cfg.m_enrich), A, problem.f_load
        )
        z_enrich = coarse_solve.solve_dual(enriched_system, problem.g_load)
        report = indicators.eta_dwr(space, rho, z_enrich, iteration)
        pi_z = truncate_solution(z_enrich, space.counts)
        global_value = float(rho @ (z_enrich.fine - pi_z.fine))
        rel = abs(report.signed.sum() - global_value) / abs(global_value)
        worst = max(worst, rel)
        assert rel <= 1e-9
        space = ms_space.enrich(space, adapt.mark(report, cfg), cfg.s)
    print(f"[criterion 9] PASS: DWR sum identity to {worst:.2e} relative over 6 iterations")


def test_c10_repeated_experiment_is_byte_identical(tmp_path):
    outputs = []
    for run in ("first", "second"):
        config = cli.ExperimentConfig(
            nc=5,
            r=4,
            field="channel",
            contrast=1e3,
            max_iterations=4,
            dof_cap=500,
            seed=9,
            out_dir=str(tmp_path / run),
        )
        cli.run_experiment(config, verbose=False)
        outputs.append(tmp_path / run)
    names = [
        "trace_standard.csv",
        "trace_goal_h1.csv",
        "trace_goal_dwr.csv",
        "comparison.csv",
    ]
    for name in names:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    print(f"[criterion 10] PASS: {len(names)} trace CSVs byte-identical across runs")
