import numpy as np
import pytest
import scipy.linalg

from gmsfem import adapt, cli, coarse_solve, fine_fem, indicators, mesh, ms_space
from gmsfem.fine_fem import CoefficientField

from conftest import _offline, benchmark_densities, truncate_solution


@pytest.fixture(scope="module")
def channel_state(channel_problem):
    """Primal/dual coarse solves and residual data on the benchmark problem."""
    problem = channel_problem
    space = problem.space
    system = coarse_solve.assemble_coarse(space, problem.stiffness, problem.f_load)
    u_ms = coarse_solve.solve_primal(system)
    z_ms = coarse_solve.solve_dual(system, problem.g_load)
    rho_u = indicators.fine_residual(problem.stiffness, problem.f_load, u_ms.fine)
    rho_z = indicators.fine_residual(problem.stiffness, problem.g_load, z_ms.fine)
    enriched = coarse_solve.assemble_coarse(
        space.extended(2), problem.stiffness, problem.f_load
    )
    z_enrich = coarse_solve.solve_dual(enriched, problem.g_load)
    return {
        "problem": problem,
        "space": space,
        "u_ms": u_ms,
        "z_ms": z_ms,
        "rho_u": rho_u,
        "rho_z": rho_z,
        "z_enrich": z_enrich,
    }


# ---------------------------------------------------------------------------
# local residuals


def test_local_residual_vanishes_for_fine_reference(channel_state):
    problem = channel_state["problem"]
    scale = np.linalg.norm(problem.f_load)
    rho = indicators.fine_residual(problem.stiffness, problem.f_load, problem.u_ref)
    for interior in problem.space.neighborhoods.interior_vertices[::17]:
        assert np.abs(rho[interior]).max() <= 1e-9 * scale


# ---------------------------------------------------------------------------
# dual norms


def test_dual_norm_zero_and_homogeneity(channel_state):
    problem = channel_state["problem"]
    interior = problem.space.neighborhoods.interior_vertices[40]
    cache = problem.dual_norms
    assert cache.norm(40, np.zeros(len(interior))) == 0.0
    rho = channel_state["rho_u"][interior]
    base = cache.norm(40, rho)
    assert cache.norm(40, -3.0 * rho) == pytest.approx(3.0 * base, rel=1e-12)


def test_snapshot_norm_below_exact(channel_state, channel_problem_snapshot):
    problem = channel_state["problem"]
    rho = channel_state["rho_u"]
    exact = problem.dual_norms
    snap = channel_problem_snapshot.dual_norms
    for i in (0, 27, 55, 80):
        rho_i = rho[problem.space.neighborhoods.interior_vertices[i]]
        assert snap.norm(i, rho_i) <= exact.norm(i, rho_i) + 1e-10


def test_norm_cache_matches_dense_reference(
    channel_state, channel_offline, channel_problem_snapshot
):
    # reference: the auxiliary problem a(w, v) = R(v) solved densely on the
    # zero-trace space (exact) or in the snapshots' zero-trace span (snapshot)
    problem = channel_state["problem"]
    A = problem.stiffness
    rho = channel_state["rho_u"]
    for cache in (problem.dual_norms, channel_problem_snapshot.dual_norms):
        mode = cache.mode
        for i in (3, 44):
            neighborhoods = problem.space.neighborhoods
            rho_i = rho[neighborhoods.interior_vertices[i]]
            ids = neighborhoods.interior_vertices[i]
            A_zt = A[ids][:, ids].toarray()
            if mode == "exact":
                reference = np.sqrt(rho_i @ np.linalg.solve(A_zt, rho_i))
            else:
                T = channel_offline["spectra"][i].snapshots[neighborhoods.interior]
                gram = T.T @ A_zt @ T
                rhs = T.T @ rho_i
                y, *_ = np.linalg.lstsq(0.5 * (gram + gram.T), rhs, rcond=None)
                reference = np.sqrt(rhs @ y)
            cached = cache.norm(i, rho_i)
            assert cached == pytest.approx(reference, rel=1e-10, abs=1e-14)


def test_problem_holds_the_cache_of_its_mode(channel_problem, channel_problem_snapshot):
    assert channel_problem.dual_norms.mode == "exact"
    assert channel_problem_snapshot.dual_norms.mode == "snapshot"
    assert not hasattr(channel_problem.dual_norms, "_T")
    assert not hasattr(channel_problem_snapshot.dual_norms, "_factor")


def test_snapshot_cache_cannot_solve(channel_problem_snapshot):
    cache = channel_problem_snapshot.dual_norms
    with pytest.raises(ValueError, match="only an exact-mode cache can solve"):
        cache.solve(0, np.ones(cache._block))


def test_dual_norm_rejects_misshapen_zero_trace_parts(channel_state):
    problem = channel_state["problem"]
    patch_A = fine_fem.patch_stiffness(problem.field, problem.space.neighborhoods)
    with pytest.raises(ValueError, match=r"must be \(N, m, L\), got shape \(2, 3, 4\)"):
        indicators.ResidualNormCache(patch_A, zero_trace_parts=np.ones((2, 3, 4)))


def _high_contrast_problem(dual_norm_mode="exact"):
    grid = mesh.GridHierarchy(5, 4)
    field = cli.generate_field("channel", 1e6, grid.nf, seed=7)
    return adapt.build_problem(grid, field, *benchmark_densities(grid), dual_norm_mode)


@pytest.fixture(scope="module")
def high_contrast_residual():
    """Primal residual of the initial coarse solution, channel at contrast 1e6."""
    problem = _high_contrast_problem()
    system = coarse_solve.assemble_coarse(problem.space, problem.stiffness, problem.f_load)
    u_ms = coarse_solve.solve_primal(system)
    return problem, indicators.fine_residual(problem.stiffness, problem.f_load, u_ms.fine)


def test_stacked_norms_match_dense_oracle(high_contrast_residual):
    # oracle: sqrt(r' A_i^-1 r) by a dense solve with the local operator, refined
    # with residuals in extended precision.  The float64 dense solve alone is
    # 3e-11 off the refined value here; the banded factor is within 1.2e-11.
    problem, rho = high_contrast_residual
    norms = problem.dual_norms.norms(rho)
    assert norms.shape == (len(problem.space.neighborhoods),)
    for i, interior in enumerate(problem.space.neighborhoods.interior_vertices):
        r = rho[interior]
        A_i = problem.stiffness[interior][:, interior].toarray()
        w = scipy.linalg.solve(A_i, r).astype(np.longdouble)
        for _ in range(2):
            w += scipy.linalg.solve(A_i, (r - A_i.astype(np.longdouble) @ w).astype(float))
        oracle = float(np.sqrt(r.astype(np.longdouble) @ w))
        assert norms[i] == pytest.approx(oracle, rel=1e-10), i


@pytest.mark.parametrize("mode", indicators.DUAL_NORM_MODES)
def test_per_neighborhood_norm_matches_stacked_norms(high_contrast_residual, mode):
    # the loop marks on norms, so norm(i, .) must be its entry i bit for bit
    problem, rho = high_contrast_residual
    cache = problem.dual_norms if mode == "exact" else _high_contrast_problem(mode).dual_norms
    assert cache.mode == mode
    norms = cache.norms(rho)
    for i, interior in enumerate(problem.space.neighborhoods.interior_vertices):
        assert cache.norm(i, rho[interior]) == norms[i], i


def _one_shot_norms(problem, rho):
    """Exact dual norms from one cho_solve_banded over the whole stacked
    zero-trace factor, the path the chunked solve must reproduce bit for bit."""
    neighborhoods = problem.space.neighborhoods
    patch_A = fine_fem.patch_stiffness(problem.field, neighborhoods)
    factor = scipy.linalg.cholesky_banded(patch_A.interior_band())
    local = rho[neighborhoods.interior_vertices.ravel()]
    w = scipy.linalg.cho_solve_banded((factor, False), local)
    return np.sqrt(np.maximum((local * w).reshape(len(neighborhoods), -1).sum(1), 0.0))


@pytest.mark.parametrize("per_chunk", [1, 7, 81, None])
def test_chunked_norms_are_bitwise_one_whole_solve(channel_state, per_chunk, monkeypatch):
    # chunks of 1 neighborhood, 7 (the last of the 81 neighborhoods ragged),
    # all of them, and the module's own size (17); one and two right-hand sides
    problem = channel_state["problem"]
    N, m = problem.space.neighborhoods.interior_vertices.shape
    u = 2 * problem.grid.r
    if per_chunk is None:
        per_chunk = 17
    else:
        monkeypatch.setattr(indicators, "_CHUNK_BYTES", per_chunk * (u + 1) * m * 8)
    rho_u, rho_z = channel_state["rho_u"], channel_state["rho_z"]
    cache = problem.dual_norms
    calls = []
    pbtrs = cache._pbtrs

    def recorded(ab, b):
        calls.append((ab.shape[1], b.shape))
        return pbtrs(ab, b)

    monkeypatch.setattr(cache, "_pbtrs", recorded)
    oracle = np.column_stack([_one_shot_norms(problem, rho) for rho in (rho_u, rho_z)])
    assert np.array_equal(cache.norms(rho_u), oracle[:, 0])
    assert np.array_equal(cache.norms(np.column_stack((rho_u, rho_z))), oracle)
    # each call after the first starts u columns early, in the previous
    # neighborhood's tail, and solves every right-hand side at once
    firsts = range(0, N, per_chunk)
    widths = [min(per_chunk, N - first) * m + (u if first else 0) for first in firsts]
    assert calls == [(w, (w, 1)) for w in widths] + [(w, (w, 2)) for w in widths]


def test_neighborhood_solve_is_the_caches_banded_solve(channel_state, monkeypatch):
    # solve(i, rhs) is the cache's own dpbtrs on neighborhood i's column block
    # of the factor, bitwise scipy's cho_solve_banded with that block
    cache = channel_state["problem"].dual_norms
    interior = channel_state["problem"].space.neighborhoods.interior_vertices
    m = cache._block
    calls = []
    pbtrs = cache._pbtrs

    def recorded(ab, b):
        calls.append(ab.shape[1])
        return pbtrs(ab, b)

    monkeypatch.setattr(cache, "_pbtrs", recorded)
    for i in (0, 40, len(interior) - 1):
        block = cache._factor[:, i * m : (i + 1) * m]
        for rhs in (channel_state["rho_u"][interior[i]], np.eye(m)[:, :3]):
            oracle = scipy.linalg.cho_solve_banded((block, False), rhs)
            assert cache.solve(i, rhs).tobytes() == oracle.tobytes()
    assert calls == [m] * 6


@pytest.mark.parametrize("mode", ["exact", "snapshot"])
def test_norms_of_residual_columns_equal_one_call_each(
    channel_state, channel_problem_snapshot, mode
):
    problem = channel_state["problem"] if mode == "exact" else channel_problem_snapshot
    rho_u, rho_z = channel_state["rho_u"], channel_state["rho_z"]
    cache = problem.dual_norms
    both = cache.norms(np.column_stack((rho_u, rho_z)))
    assert both.shape == (len(problem.space.neighborhoods), 2)
    assert np.array_equal(both, np.column_stack((cache.norms(rho_u), cache.norms(rho_z))))
    assert cache.norms(rho_u[:, None]).shape == (len(problem.space.neighborhoods), 1)


# ---------------------------------------------------------------------------
# indicator assembly


def _norms(state, rho):
    problem = state["problem"]
    cache = problem.dual_norms
    interiors = problem.space.neighborhoods.interior_vertices
    return np.array([cache.norm(i, rho[ids]) for i, ids in enumerate(interiors)])


def test_eta_standard_weights_and_saturation(channel_state):
    space = channel_state["space"]
    norms = _norms(channel_state, channel_state["rho_u"])
    report = indicators.eta_standard(space, norms)
    lam = np.array([spectrum.eigenvalues[space.counts[i]] for i, spectrum in enumerate(space.spectra)])
    assert np.allclose(report.eta_sq, norms**2 / lam, rtol=1e-12)
    assert not space.saturated.any()
    assert np.array_equal(np.isnan(report.lambda_next), space.saturated)

    space2 = ms_space.OfflineSpace(
        space.pu, 2.0 * space.eigenvalues, space.jitter, space.candidates, space.counts
    )
    report2 = indicators.eta_standard(space2, norms)
    assert np.allclose(report2.eta_sq, 0.5 * report.eta_sq, rtol=1e-12)
    assert np.array_equal(np.argsort(report2.eta_sq), np.argsort(report.eta_sq))


def test_eta_standard_vanishes_for_fine_reference(channel_state):
    problem = channel_state["problem"]
    space = channel_state["space"]
    rho_ref = indicators.fine_residual(problem.stiffness, problem.f_load, problem.u_ref)
    report_ref = indicators.eta_standard(space, _norms(channel_state, rho_ref))
    report_ms = indicators.eta_standard(space, _norms(channel_state, channel_state["rho_u"]))
    assert report_ref.eta_sq.max() <= 1e-12 * report_ms.eta_sq.max()


def test_eta_saturated_neighborhood_is_zero():
    grid = mesh.GridHierarchy(2, 3)
    field = CoefficientField.constant(grid.nf)
    data = _offline(grid, field)
    L = data["spectra"][0].n_snapshots
    space = ms_space.build_basis(data["pu"], data["spectra"].__getitem__).with_counts([L])
    report = indicators.eta_standard(space, np.array([7.0]))
    assert space.saturated[0]
    assert report.eta_sq[0] == 0.0
    assert np.array_equal(np.isnan(report.lambda_next), space.saturated)
    # the report zeroes any raw value of a saturated neighborhood, NaN too
    for raw in (np.nan, 7.0):
        assert indicators.IndicatorReport("standard", space, [raw]).eta_sq[0] == 0.0


def test_eta_goal_h1_product_form(channel_state):
    space = channel_state["space"]
    norms_u = _norms(channel_state, channel_state["rho_u"])
    norms_z = _norms(channel_state, channel_state["rho_z"])
    report = indicators.eta_goal_h1(space, norms_u, norms_z)
    lam = np.array([spectrum.eigenvalues[space.counts[i]] for i, spectrum in enumerate(space.spectra)])
    assert np.allclose(report.eta_sq, norms_u * norms_z / lam, rtol=1e-12)
    # zero on either side kills the product; order of the factors is irrelevant
    assert indicators.eta_goal_h1(space, np.zeros_like(norms_u), norms_z).eta_sq.max() == 0.0
    swapped = indicators.eta_goal_h1(space, norms_z, norms_u)
    assert np.allclose(swapped.eta_sq, report.eta_sq, rtol=1e-14)


def test_eta_goal_h1_equals_standard_when_goals_match(channel_state):
    space = channel_state["space"]
    norms_u = _norms(channel_state, channel_state["rho_u"])
    standard = indicators.eta_standard(space, norms_u)
    goal = indicators.eta_goal_h1(space, norms_u, norms_u)
    assert np.allclose(goal.eta_sq, standard.eta_sq, rtol=1e-14)


def test_eta_dwr_vanishes_for_fine_reference(channel_state):
    problem = channel_state["problem"]
    space = channel_state["space"]
    rho_ref = indicators.fine_residual(problem.stiffness, problem.f_load, problem.u_ref)
    report = indicators.eta_dwr(space, rho_ref, channel_state["z_enrich"])
    base = indicators.eta_dwr(space, channel_state["rho_u"], channel_state["z_enrich"])
    assert report.eta_sq.max() <= 1e-9 * base.eta_sq.max()


def test_eta_dwr_zero_added_band(channel_state):
    space = channel_state["space"]
    z_enrich = channel_state["z_enrich"]
    enriched = z_enrich.space
    coeffs = z_enrich.coefficients.copy()
    for i in range(space.n_neighborhoods):
        coeffs[enriched.offsets[i] + space.counts[i] : enriched.offsets[i + 1]] = 0.0
    R = enriched.basis_columns(enriched.counts)
    stripped = coarse_solve.CoarseSolution(coeffs, R @ coeffs, enriched)
    report = indicators.eta_dwr(space, channel_state["rho_u"], stripped)
    assert report.eta_sq.max() == 0.0


def test_eta_dwr_signed_sum_identity(channel_state):
    space = channel_state["space"]
    rho = channel_state["rho_u"]
    z_enrich = channel_state["z_enrich"]
    report = indicators.eta_dwr(space, rho, z_enrich)
    pi_z = truncate_solution(z_enrich, space.counts)
    global_value = float(rho @ (z_enrich.fine - pi_z.fine))
    assert report.signed.sum() == pytest.approx(global_value, rel=1e-9)


def test_eta_dwr_skips_neighborhoods_without_added_band(channel_state):
    # a dual space enriched on neighborhoods 0 and 4 only: every other
    # neighborhood has no added band and takes a zero pairing
    problem = channel_state["problem"]
    space = channel_state["space"]
    enriched = ms_space.enrich(space, [0, 4], 1)
    system = coarse_solve.assemble_coarse(enriched, problem.stiffness, problem.f_load)
    z = coarse_solve.solve_dual(system, problem.g_load)
    report = indicators.eta_dwr(space, channel_state["rho_u"], z)
    assert np.flatnonzero(report.signed).tolist() == [0, 4]
    assert np.array_equal(report.eta_sq, np.abs(report.signed))


def test_eta_dwr_requires_enrichment(channel_state):
    space = channel_state["space"]
    system = coarse_solve.assemble_coarse(
        space, channel_state["problem"].stiffness, channel_state["problem"].f_load
    )
    z_plain = coarse_solve.solve_dual(system, channel_state["problem"].g_load)
    with pytest.raises(ValueError):
        indicators.eta_dwr(space, channel_state["rho_u"], z_plain)


def test_indicator_report_rejects_bad_values(channel_state):
    space = channel_state["space"]
    n = space.n_neighborhoods
    assert not space.saturated.any()
    with pytest.raises(ValueError, match="finite and nonnegative"):
        indicators.IndicatorReport("standard", space, np.full(n, np.nan))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        indicators.IndicatorReport("standard", space, -np.ones(n))


def test_locality_of_indicators(channel_state):
    # eta_i depends only on data restricted to omega_i: recompute one
    # neighborhood's norm from extracted local matrices
    problem = channel_state["problem"]
    space = channel_state["space"]
    i = 33
    rho_local = channel_state["rho_u"][problem.space.neighborhoods.interior_vertices[i]]
    ids = problem.space.neighborhoods.interior_vertices[i]
    A_zt = problem.stiffness[ids][:, ids].toarray()
    w = np.linalg.solve(A_zt, rho_local)
    norms = _norms(channel_state, channel_state["rho_u"])
    assert np.sqrt(rho_local @ w) == pytest.approx(norms[i], rel=1e-10)


def test_dump_indicators_csv(tmp_path, channel_state):
    space = channel_state["space"]
    norms = _norms(channel_state, channel_state["rho_u"])
    spaces = [space, ms_space.enrich(space, [0, 4], 1)]
    reports = [indicators.eta_standard(each, norms) for each in spaces]
    path = tmp_path / "indicators.csv"
    indicators.dump_indicators(reports, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,vertex_id,strategy,eta_sq,lambda_next,l_i"
    n = space.n_neighborhoods
    assert len(lines) == 1 + 2 * n
    for k, (each, report) in enumerate(zip(spaces, reports)):
        for i in range(n):
            fields = lines[1 + k * n + i].split(",")
            assert fields[:3] == [str(k), str(i), "standard"]
            assert float(fields[3]) == report.eta_sq[i]
            assert float(fields[4]) == report.lambda_next[i]
            assert int(fields[5]) == each.counts[i]
    assert spaces[1].counts[0] > spaces[0].counts[0]
