import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

from gmsfem import cli, coarse_solve, fine_fem, mesh, ms_space
from gmsfem.coarse_solve import RankDeficientBasis
from gmsfem.fine_fem import CoefficientField

from conftest import (
    _offline,
    assemble_weighted_mass,
    benchmark_densities,
    identity_map_space,
    interior_vertex_position,
    truncate_solution,
    vertex_coordinates,
)


@pytest.fixture(scope="module")
def unit_problem1010():
    from gmsfem import adapt

    grid = mesh.GridHierarchy(10, 10)
    field = CoefficientField(np.ones((grid.nf, grid.nf)))
    f_density, g_density = benchmark_densities(grid)
    return adapt.build_problem(grid, field, f_density, g_density)


def _hat_space(data):
    return ms_space.build_basis(data["pu"], data["spectra"].__getitem__, data["same"])


def _coarse_q1_stiffness(nc):
    """Oracle: Q1 stiffness on the nc x nc coarse grid, interior vertices only."""
    n_int = (nc - 1) ** 2

    def idx(ci, cj):
        return (cj - 1) * (nc - 1) + (ci - 1) if 1 <= ci <= nc - 1 and 1 <= cj <= nc - 1 else None

    K = np.zeros((n_int, n_int))
    for ey in range(nc):
        for ex in range(nc):
            corners = [(ex, ey), (ex + 1, ey), (ex + 1, ey + 1), (ex, ey + 1)]
            for a, ca in enumerate(corners):
                ia = idx(*ca)
                if ia is None:
                    continue
                for b, cb in enumerate(corners):
                    ib = idx(*cb)
                    if ib is None:
                        continue
                    K[ia, ib] += fine_fem.Q1_STIFFNESS[a, b]
    return K


def test_hat_space_reduces_to_coarse_q1(grid44, unit_field44, unit_offline44):
    # with one basis function per neighborhood at kappa==1 the space is the
    # span of the coarse hats, so A_c equals the coarse Q1 stiffness up to the
    # diagonal normalization of the constant eigenvectors
    space = _hat_space(unit_offline44)
    A = fine_fem.assemble_stiffness(grid44, unit_field44)
    system = coarse_solve.assemble_coarse(space, A, np.zeros(grid44.n_vertices))
    scale = np.empty(space.total_dofs)
    for i in range(space.n_neighborhoods):
        ci, cj = interior_vertex_position(grid44, i)
        center = grid44.vertex_id(ci * grid44.r, cj * grid44.r)
        psi = space.candidates[space.row[i], 0]
        scale[i] = psi[space.neighborhoods.interior_vertices[i] == center][0]
    oracle = _coarse_q1_stiffness(grid44.nc) * np.outer(scale, scale)
    assert np.abs(system.matrix - oracle).max() < 1e-10


def test_zero_load_gives_zero_coarse_load_and_solution(grid44, unit_field44, unit_offline44):
    space = _hat_space(unit_offline44)
    A = fine_fem.assemble_stiffness(grid44, unit_field44)
    system = coarse_solve.assemble_coarse(space, A, np.zeros(grid44.n_vertices))
    assert np.all(system.load == 0.0)
    u = coarse_solve.solve_primal(system)
    assert np.all(u.fine == 0.0)
    assert np.all(u.coefficients == 0.0)


def test_coarse_dimension_is_sum_of_counts(unit_offline44):
    data = unit_offline44
    counts = 1 + (np.arange(len(data["spectra"])) % 3)
    space = ms_space.build_basis(data["pu"], data["spectra"].__getitem__, data["same"])
    space = space.with_counts(counts)
    grid = data["grid"]
    A = fine_fem.assemble_stiffness(grid, data["field"])
    system = coarse_solve.assemble_coarse(space, A, np.zeros(grid.n_vertices))
    assert system.dim == counts.sum()
    assert system.matrix.shape == (counts.sum(), counts.sum())


def test_rank_deficiency_reports_offending_pair(grid44, unit_field44, unit_offline44):
    space = _hat_space(unit_offline44)
    counts = space.counts.copy()
    counts[0] = 2
    doctored = space.with_counts(counts)
    candidates = doctored.candidates[doctored.row]
    candidates[0, 1] = candidates[0, 0]  # duplicate basis function
    broken = identity_map_space(doctored, candidates)
    A = fine_fem.assemble_stiffness(grid44, unit_field44)
    with pytest.raises(RankDeficientBasis) as err:
        coarse_solve.assemble_coarse(broken, A, np.zeros(grid44.n_vertices))
    assert err.value.columns == (0, 1)


def test_zero_candidate_column_is_rejected(grid44, unit_field44, unit_offline44):
    space = _hat_space(unit_offline44)
    candidates = space.candidates[space.row]
    candidates[2, 0] = 0.0  # a basis function of zero energy
    broken = identity_map_space(space, candidates)
    A = fine_fem.assemble_stiffness(grid44, unit_field44)
    with pytest.raises(RankDeficientBasis, match="nonpositive diagonal entry"):
        coarse_solve.assemble_coarse(broken, A, np.zeros(grid44.n_vertices))


def test_solve_residual_contract(channel_problem):
    space = channel_problem.space
    A = channel_problem.stiffness
    system = coarse_solve.assemble_coarse(space, A, channel_problem.f_load)
    u = coarse_solve.solve_primal(system)
    resid = np.linalg.norm(system.load - system.matrix @ u.coefficients)
    assert resid <= 1e-12 * np.linalg.norm(system.load)


def test_sparse_direct_solve_matches_dense_reference(small_problem, channel_problem):
    # the extended channel space has more than 2000 dofs and a scaled condition
    # number near 1e9: a 1e-12 residual fixes the Galerkin solution R c to 1e-9
    # there, but its coefficients only to about 1e-8 (as far as a dense solve
    # itself gets), so coefficients are compared on the well-conditioned space
    cases = (
        (small_problem, small_problem.space, True),
        (channel_problem, channel_problem.space.extended(24), False),
    )
    for problem, space, compare_coefficients in cases:
        system = coarse_solve.assemble_coarse(space, problem.stiffness, problem.f_load)
        u = coarse_solve.solve_primal(system)
        reference = scipy.linalg.solve(system.matrix.toarray(), system.load)
        if compare_coefficients:
            scale = np.abs(reference).max()
            assert np.abs(u.coefficients - reference).max() < 1e-9 * scale
        else:
            assert system.dim > 2000
        fine_reference = system.R @ reference
        assert np.abs(u.fine - fine_reference).max() < 1e-9 * np.abs(fine_reference).max()
        resid = np.linalg.norm(system.load - system.matrix @ u.coefficients)
        assert resid <= 1e-12 * np.linalg.norm(system.load)


@pytest.mark.parametrize("nb", [0, 44, 48, 56, 80])
def test_duplicated_basis_column_is_rejected(channel_problem, nb):
    # at nb = 44, 48 and 56 roundoff leaves the duplicated column a Cholesky
    # pivot of order eps instead of a nonpositive one, so a factorization
    # that only fails on nonpositive pivots accepts the basis.  The doctored
    # copy has one block per neighborhood: in the shared blocks, the edit
    # would change every member of nb's group, and the first duplicated
    # column would be its lowest member's
    space = channel_problem.space.extended(3)
    candidates = space.candidates[space.row]
    candidates[nb, 2] = candidates[nb, 0]
    broken = identity_map_space(space, candidates)
    with pytest.raises(RankDeficientBasis) as err:
        coarse_solve.assemble_coarse(broken, channel_problem.stiffness, channel_problem.f_load)
    start = int(space.offsets[nb])
    assert err.value.columns == (start, start + 2)


def test_enrichment_never_increases_energy_error(small_problem):
    A = small_problem.stiffness
    u_ref = small_problem.u_ref
    errors = []
    space = small_problem.space
    for extra in (0, 1, 2, 4):
        wide = space.extended(extra)
        system = coarse_solve.assemble_coarse(wide, A, small_problem.f_load)
        u = coarse_solve.solve_primal(system)
        errors.append(fine_fem.energy_norm(A, u_ref - u.fine))
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


def test_classical_msfem_first_order_in_H():
    # kappa == 1, one hat per vertex: halving H halves the energy error (+-30%)
    errors = {}
    for nc, r in ((10, 10), (20, 5)):
        grid = mesh.GridHierarchy(nc, r)
        field = CoefficientField(np.ones((grid.nf, grid.nf)))
        data = _offline(grid, field)
        space = _hat_space(data)
        A = fine_fem.assemble_stiffness(grid, field)
        b = fine_fem.assemble_load(grid, np.ones((grid.nf, grid.nf)))
        u_ref = fine_fem.solve_dirichlet(A, b, grid.boundary_vertex_ids())
        system = coarse_solve.assemble_coarse(space, A, b)
        u = coarse_solve.solve_primal(system)
        errors[nc] = fine_fem.energy_norm(A, u_ref - u.fine)
    ratio = errors[20] / errors[10]
    assert 0.35 <= ratio <= 0.65


@pytest.mark.parametrize("kind", ["channel", "inclusions"])
def test_a_priori_constant_does_not_grow_with_contrast(kind):
    # GMsFEM's a priori bound err^2 <= C H^2 ||kappa^-1/2 f||^2 / Lambda*,
    # Lambda* = min_i lambda_5, on the uniform space of 4 functions per
    # neighborhood: the constant C is the same at contrast 1e4 and 1e6
    from gmsfem import adapt

    grid = mesh.GridHierarchy(5, 4)
    f_density, g_density = benchmark_densities(grid)
    constants = []
    for contrast in (1e4, 1e6):
        field = cli.generate_field(kind, contrast, grid.nf, seed=7)
        problem = adapt.build_problem(grid, field, f_density, g_density)
        space = problem.space.with_counts(np.full(problem.space.n_neighborhoods, 4))
        system = coarse_solve.assemble_coarse(space, problem.stiffness, problem.f_load)
        u = coarse_solve.solve_primal(system)
        err = fine_fem.energy_norm(problem.stiffness, problem.u_ref - u.fine)
        source = np.sum(f_density**2 / field.values) * grid.h**2
        constants.append(err**2 * space.eigenvalues[:, 4].min() / (grid.H**2 * source))
    # measured 1.00018 for channel (C ~ 1.98), 1.00083 for inclusions (C ~ 2.35)
    assert 0.99 <= constants[1] / constants[0] <= 1.01


def test_dual_with_source_load_equals_primal(small_problem):
    A = small_problem.stiffness
    system = coarse_solve.assemble_coarse(small_problem.space, A, small_problem.f_load)
    u = coarse_solve.solve_primal(system)
    z = coarse_solve.solve_dual(system, small_problem.f_load)
    assert np.allclose(u.coefficients, z.coefficients, rtol=0, atol=1e-14)


def test_primal_dual_pairing_at_fine_scale(grid44):
    rng = np.random.default_rng(21)
    field = CoefficientField(np.exp(rng.normal(size=(grid44.nf, grid44.nf))))
    A = fine_fem.assemble_stiffness(grid44, field)
    f_density, g_density = benchmark_densities(grid44)
    b = fine_fem.assemble_load(grid44, f_density)
    g = fine_fem.assemble_load(grid44, g_density)
    fixed = grid44.boundary_vertex_ids()
    u_h = fine_fem.solve_dirichlet(A, b, fixed)
    z_h = fine_fem.solve_dirichlet(A, g, fixed)
    assert b @ z_h == pytest.approx(g @ u_h, rel=1e-10)


def test_dual_solution_localizes_near_goal_box(unit_problem1010):
    problem = unit_problem1010
    grid = problem.space.grid
    system = coarse_solve.assemble_coarse(problem.space, problem.stiffness, problem.f_load)
    z = coarse_solve.solve_dual(system, problem.g_load)
    lumped = np.asarray(
        assemble_weighted_mass(grid, CoefficientField(np.ones((grid.nf, grid.nf)))).sum(axis=1)
    ).ravel()
    coords = vertex_coordinates(grid)
    x0, x1, y0, y1 = cli.K2_BOX
    dx = np.maximum(np.maximum(x0 - coords[:, 0], coords[:, 0] - x1), 0.0)
    dy = np.maximum(np.maximum(y0 - coords[:, 1], coords[:, 1] - y1), 0.0)
    near = np.hypot(dx, dy) <= 0.3
    mass = lumped * z.fine**2
    assert mass[near].sum() > 0.5 * mass.sum()


def test_coarse_galerkin_orthogonality(channel_problem):
    A = channel_problem.stiffness
    b = channel_problem.f_load
    system = coarse_solve.assemble_coarse(channel_problem.space, A, b)
    u = coarse_solve.solve_primal(system)
    defect = system.R.T @ (b - A @ u.fine)
    assert np.abs(defect).max() <= 1e-9 * np.linalg.norm(b)


def test_error_representation_identity(channel_problem):
    # g(u_h - u_ms) = a(u_h - u_ms, z_h - z_ms) with the fine space as truth
    problem = channel_problem
    A, b, g = problem.stiffness, problem.f_load, problem.g_load
    fixed = problem.space.grid.boundary_vertex_ids()
    z_ref = fine_fem.solve_dirichlet(A, g, fixed)
    system = coarse_solve.assemble_coarse(problem.space, A, b)
    u_ms = coarse_solve.solve_primal(system)
    z_ms = coarse_solve.solve_dual(system, g)
    eu = problem.u_ref - u_ms.fine
    ez = z_ref - z_ms.fine
    lhs = g @ eu
    rhs = eu @ (A @ ez)
    assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


def test_components_sum_to_solution(small_problem):
    space = small_problem.space.extended(2)
    system = coarse_solve.assemble_coarse(space, small_problem.stiffness, small_problem.f_load)
    u = coarse_solve.solve_primal(system)
    total = np.zeros(space.grid.n_vertices)
    for i, vertices in enumerate(space.neighborhoods.interior_vertices):
        for k, c in enumerate(u.coefficients[space.offsets[i] : space.offsets[i + 1]]):
            total[vertices] += c * space.candidates[space.row[i], k]
    assert np.abs(total - u.fine).max() < 1e-12 * max(1.0, np.abs(u.fine).max())


def test_truncation_with_same_counts_is_identity(small_problem):
    space = small_problem.space
    system = coarse_solve.assemble_coarse(space, small_problem.stiffness, small_problem.f_load)
    u = coarse_solve.solve_primal(system)
    kept = truncate_solution(u, space.counts)
    assert np.array_equal(kept.coefficients, u.coefficients)
    assert np.array_equal(kept.fine, u.fine)


def test_truncation_is_idempotent(small_problem):
    space = small_problem.space.extended(3)
    system = coarse_solve.assemble_coarse(space, small_problem.stiffness, small_problem.f_load)
    u = coarse_solve.solve_primal(system)
    counts = small_problem.space.counts
    once = truncate_solution(u, counts)
    twice = truncate_solution(once, counts)
    assert np.array_equal(once.coefficients, twice.coefficients)
    assert np.array_equal(once.fine, twice.fine)
    for i in range(space.n_neighborhoods):
        start, stop = space.offsets[i], space.offsets[i + 1]
        keep = start + counts[i]
        assert np.array_equal(once.coefficients[start:keep], u.coefficients[start:keep])
        assert not once.coefficients[keep:stop].any()


def test_store_systems_equal_fresh_one_shot_systems(small_problem):
    # one store serves a growing, a wider and then a narrower space; every
    # selection must equal a fresh store's system and R'AR of the space's own
    # basis matrix bit for bit
    problem = small_problem
    A, b, g = problem.stiffness, problem.f_load, problem.g_load
    store = coarse_solve.GalerkinStore(problem.space, A)
    initial = problem.space
    enriched = ms_space.enrich(initial, [0, 4, 8], 1)
    spaces = (initial, enriched, enriched.extended(2), initial.extended(1))
    rng = np.random.default_rng(5)
    for space in spaces:
        grown = coarse_solve.assemble_coarse(space, A, b, store)
        fresh = coarse_solve.assemble_coarse(space, A, b)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(grown.matrix, name), getattr(fresh.matrix, name))
        assert np.array_equal(grown.load, fresh.load)
        c = rng.normal(size=space.total_dofs)
        assert np.array_equal(grown.R @ c, fresh.R @ c)
        assert np.array_equal(grown.R.T @ g, fresh.R.T @ g)
        R = space.basis_columns(space.counts)
        assert np.array_equal(grown.matrix.toarray(), (R.T @ (A @ R)).toarray())
        assert np.array_equal(grown.load, R.T @ b)
    # the narrower space was selected without growing the store
    assert np.array_equal(store.have, enriched.extended(2).counts)
    assert len(store.number) == store.AR.shape[1] == store.have.sum()
    # the store's A R, formed as R_new' A, is bitwise the product A R in CSC
    held = store.AR[:, np.argsort(store.number)]
    AR = (A @ problem.space.basis_columns(store.have)).tocsc()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(held, name), getattr(AR, name))


def test_store_holds_no_basis_matrix(small_problem):
    # the candidate array is the one copy of the basis: after a selection the
    # store's only arrays with one entry per held column are A R and the
    # candidate-number map, and it holds no source and no load
    problem = small_problem
    store = coarse_solve.GalerkinStore(problem.space, problem.stiffness)
    space = ms_space.enrich(problem.space, [0, 4], 1).extended(1)
    store.system(space, problem.f_load)
    held = int(store.have.sum())
    assert held not in (space.n_neighborhoods, space.n_neighborhoods * space.n_candidates)
    arrays = {
        name: value
        for name, value in vars(store).items()
        if isinstance(value, np.ndarray) or sparse.issparse(value)
    }
    assert {name for name, value in arrays.items() if held in value.shape} == {"AR", "number"}
    assert set(arrays) == {"A", "have", "number", "AR", "G"}


def test_system_basis_is_gathered_from_its_space(small_problem):
    # each system's R is its space's own basis matrix: the same int32 index
    # arrays, whose row indices come from the int32 interior-vertex table
    problem = small_problem
    neighborhoods = problem.space.neighborhoods
    assert neighborhoods.interior_vertices.dtype == np.int32
    assert np.array_equal(
        neighborhoods.interior_vertices, neighborhoods.vertices[:, neighborhoods.interior]
    )
    store = coarse_solve.GalerkinStore(problem.space, problem.stiffness)
    enriched = ms_space.enrich(problem.space, [1, 3, 5], 2)
    for space in (problem.space, enriched, enriched.extended(1), problem.space.extended(2)):
        R = coarse_solve.assemble_coarse(space, problem.stiffness, problem.f_load, store).R
        own = space.basis_columns(space.counts)
        assert R.format == own.format == "csc"
        for name in ("indptr", "indices"):
            assert getattr(R, name).dtype == getattr(own, name).dtype == np.int32
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(R, name), getattr(own, name))


def test_store_rejects_another_problem(small_problem, channel_problem):
    space, A = small_problem.space, small_problem.stiffness
    store = coarse_solve.GalerkinStore(space, A)
    with pytest.raises(ValueError, match="another stiffness"):
        coarse_solve.assemble_coarse(space, A.copy(), small_problem.f_load, store)
    with pytest.raises(ValueError, match="candidates"):
        store.system(channel_problem.space, channel_problem.f_load)
    assert not store.have.any()


def test_store_rejects_another_row_map(channel_problem):
    # the same candidate blocks under another map are another basis: the
    # reversed map gives neighborhood 0 the last neighborhood's block, and
    # even an equal copy of the map is not the store's offline stage
    space, A = channel_problem.space, channel_problem.stiffness
    store = coarse_solve.GalerkinStore(space, A)
    reversed_map = space.row[::-1].copy()
    assert reversed_map[0] != space.row[0]
    message = "^space was not built from this store's candidates and row map$"
    for row in (reversed_map, space.row.copy()):
        other = ms_space.OfflineSpace(
            space.pu, space.eigenvalues, space.jitter, space.candidates, row, space.counts
        )
        assert other.candidates is space.candidates
        with pytest.raises(ValueError, match=message):
            store.system(other, channel_problem.f_load)
    assert not store.have.any()
    store.system(space, channel_problem.f_load)
    assert np.array_equal(store.have, space.counts)


def test_one_store_serves_two_sources(small_problem):
    # the problem's store holds no source: grown with the primal source, it
    # serves the goal load as a source too, bit for bit as a fresh store
    # does, and without growing
    problem = small_problem
    A, f, g = problem.stiffness, problem.f_load, problem.g_load
    store = problem.galerkin_store
    enriched = ms_space.enrich(problem.space, [0, 4, 8], 2)
    spaces = (problem.space, enriched, enriched.extended(1), problem.space.extended(2))
    for space in spaces:
        coarse_solve.solve_primal(coarse_solve.assemble_coarse(space, A, f, store))
    have, G = store.have.copy(), store.G.copy()
    for space in spaces:
        system = coarse_solve.assemble_coarse(space, A, g, store)
        R = space.basis_columns(space.counts)
        assert np.array_equal(system.load, R.T @ g)
        fresh = coarse_solve.assemble_coarse(space, A, g)
        assert np.array_equal(
            coarse_solve.solve_primal(system).coefficients,
            coarse_solve.solve_primal(fresh).coefficients,
        )
    assert np.array_equal(store.have, have)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(store.G, name), getattr(G, name))
