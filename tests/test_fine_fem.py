import numpy as np
import pytest
import scipy.sparse.linalg as spla

from gmsfem import fine_fem, mesh
from gmsfem.fine_fem import CoefficientField

from conftest import poisson_center_value


# ---------------------------------------------------------------------------
# quadrature oracle for the reference element matrices


def _shape_values(xi, eta):
    return np.array([(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta])


def _shape_gradients(xi, eta):
    return np.array(
        [
            [-(1 - eta), -(1 - xi)],
            [(1 - eta), -xi],
            [eta, xi],
            [-eta, (1 - xi)],
        ]
    )


def _gauss_element_matrices(h):
    """2x2 Gauss quadrature of the Q1 element stiffness and mass on an h-square."""
    pts = (1 + np.array([-1, 1]) / np.sqrt(3)) / 2
    K = np.zeros((4, 4))
    M = np.zeros((4, 4))
    for xi in pts:
        for eta in pts:
            grads = _shape_gradients(xi, eta) / h
            vals = _shape_values(xi, eta)
            K += 0.25 * h**2 * grads @ grads.T
            M += 0.25 * h**2 * np.outer(vals, vals)
    return K, M


def test_reference_stiffness_matches_quadrature_oracle():
    K, _ = _gauss_element_matrices(h=0.37)
    assert np.allclose(K, fine_fem.Q1_STIFFNESS, atol=1e-14)
    # hand-integrated values: diagonal 2/3, opposite corners -1/3
    assert fine_fem.Q1_STIFFNESS[0, 0] == pytest.approx(2 / 3)
    assert fine_fem.Q1_STIFFNESS[0, 2] == pytest.approx(-1 / 3)
    assert fine_fem.Q1_STIFFNESS[1, 3] == pytest.approx(-1 / 3)


def test_reference_mass_matches_quadrature_oracle():
    h = 0.5
    _, M = _gauss_element_matrices(h)
    assert np.allclose(M, h**2 * fine_fem.Q1_MASS, atol=1e-14)


# ---------------------------------------------------------------------------
# coefficient field validation


def test_field_rejects_nonpositive_and_nonfinite():
    with pytest.raises(ValueError):
        CoefficientField([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        CoefficientField([[1.0, -2.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        CoefficientField([[1.0, np.inf], [1.0, 1.0]])
    with pytest.raises(ValueError):
        CoefficientField(np.ones((3, 2)))


def test_assembly_rejects_size_mismatch(grid44):
    field = CoefficientField.constant(grid44.nf + 1)
    with pytest.raises(ValueError):
        fine_fem.assemble_stiffness(grid44, field)
    with pytest.raises(ValueError):
        fine_fem.assemble_weighted_mass(grid44, field)


# ---------------------------------------------------------------------------
# stiffness


def test_single_cell_stiffness_entries():
    grid = mesh.GridHierarchy(2, 2)
    A = fine_fem.assemble_stiffness(grid, CoefficientField.constant(grid.nf))
    # cell (0,0) corner vertex 0 couples only through one cell
    assert A[0, 0] == pytest.approx(2 / 3)
    v11 = grid.vertex_id(1, 1)
    assert A[0, v11] == pytest.approx(-1 / 3)


def test_stiffness_exact_symmetry(grid44):
    rng = np.random.default_rng(3)
    field = CoefficientField(np.exp(rng.normal(size=(grid44.nf, grid44.nf))))
    A = fine_fem.assemble_stiffness(grid44, field)
    delta = (A - A.T).tocoo()
    assert len(delta.data) == 0 or np.abs(delta.data).max() == 0.0


def test_stiffness_annihilates_constants(grid44, unit_field44):
    A = fine_fem.assemble_stiffness(grid44, unit_field44)
    interior = np.setdiff1d(np.arange(grid44.n_vertices), grid44.boundary_vertex_ids())
    residual = A @ np.ones(grid44.n_vertices)
    assert np.abs(residual[interior]).max() < 1e-13


def test_stiffness_scales_linearly(grid44):
    rng = np.random.default_rng(11)
    values = np.exp(rng.normal(size=(grid44.nf, grid44.nf)))
    A1 = fine_fem.assemble_stiffness(grid44, CoefficientField(values))
    A3 = fine_fem.assemble_stiffness(grid44, CoefficientField(3.0 * values))
    assert np.abs((3.0 * A1 - A3).toarray()).max() < 1e-12


# ---------------------------------------------------------------------------
# mass


def test_mass_total_is_domain_area(grid44, unit_field44):
    S = fine_fem.assemble_weighted_mass(grid44, unit_field44)
    ones = np.ones(grid44.n_vertices)
    assert ones @ (S @ ones) == pytest.approx(1.0, abs=1e-13)


def test_mass_scales_linearly(grid44):
    rng = np.random.default_rng(4)
    values = np.exp(rng.normal(size=(grid44.nf, grid44.nf)))
    S1 = fine_fem.assemble_weighted_mass(grid44, CoefficientField(values))
    S5 = fine_fem.assemble_weighted_mass(grid44, CoefficientField(5.0 * values))
    assert np.abs((5.0 * S1 - S5).toarray()).max() < 1e-12


def test_mass_center_diagonal_on_2x2_grid():
    grid = mesh.GridHierarchy(2, 2)  # nf = 4; use the four cells around (2, 2)
    S = fine_fem.assemble_weighted_mass(grid, CoefficientField.constant(grid.nf))
    center = grid.vertex_id(2, 2)
    _, M_ref = _gauss_element_matrices(grid.h)
    # quadrature oracle: four surrounding cells each contribute their corner mass
    assert S[center, center] == pytest.approx(4 * M_ref[0, 0], abs=1e-15)
    assert S[center, center] == pytest.approx(4 * grid.h**2 / 9, abs=1e-15)


# ---------------------------------------------------------------------------
# load


def test_load_zero_density(grid44):
    b = fine_fem.assemble_load(grid44, np.zeros((grid44.nf, grid44.nf)))
    assert np.all(b == 0.0)


def test_load_unit_density_sums_to_one(grid44):
    b = fine_fem.assemble_load(grid44, np.ones((grid44.nf, grid44.nf)))
    assert b.sum() == pytest.approx(1.0, abs=1e-14)


def test_load_benchmark_source_sums_to_zero():
    from gmsfem import cli

    grid = mesh.GridHierarchy(8, 8)  # not aligned with the 0.1 box edges
    density = cli.box_fraction(grid, cli.K1_BOX) - cli.box_fraction(grid, cli.K2_BOX)
    b = fine_fem.assemble_load(grid, density)
    assert b.sum() == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Dirichlet solve


def test_solve_zero_load(grid44, unit_field44):
    A = fine_fem.assemble_stiffness(grid44, unit_field44)
    u = fine_fem.solve_dirichlet(A, np.zeros(grid44.n_vertices), grid44.boundary_vertex_ids())
    assert np.all(u == 0.0)


def test_solve_poisson_center_value_series_oracle():
    grid = mesh.GridHierarchy(8, 8)  # nf = 64
    field = CoefficientField.constant(grid.nf)
    A = fine_fem.assemble_stiffness(grid, field)
    b = fine_fem.assemble_load(grid, np.ones((grid.nf, grid.nf)))
    u = fine_fem.solve_dirichlet(A, b, grid.boundary_vertex_ids())
    center = grid.vertex_id(grid.nf // 2, grid.nf // 2)
    assert abs(u[center] - poisson_center_value()) < 2e-3


def test_solve_residual_contract(grid44):
    rng = np.random.default_rng(5)
    field = CoefficientField(np.exp(2 * rng.normal(size=(grid44.nf, grid44.nf))))
    A = fine_fem.assemble_stiffness(grid44, field)
    b = fine_fem.assemble_load(grid44, rng.normal(size=(grid44.nf, grid44.nf)))
    fixed = grid44.boundary_vertex_ids()
    u = fine_fem.solve_dirichlet(A, b, fixed)
    free = np.setdiff1d(np.arange(grid44.n_vertices), fixed)
    resid = np.linalg.norm((b - A @ u)[free])
    assert resid <= 1e-10 * np.linalg.norm(b[free])
    assert np.all(u[fixed] == 0.0)


def test_solve_reproduces_bilinear_harmonic_interpolant(grid44, unit_field44):
    # u = x*y is harmonic and lies in the Q1 space: the Galerkin solution with
    # its boundary data (imposed by lifting) must reproduce it exactly.
    A = fine_fem.assemble_stiffness(grid44, unit_field44)
    coords = grid44.vertex_coordinates()
    exact = coords[:, 0] * coords[:, 1]
    fixed = grid44.boundary_vertex_ids()
    lift = np.zeros(grid44.n_vertices)
    lift[fixed] = exact[fixed]
    u = fine_fem.solve_dirichlet(A, -(A @ lift), fixed) + lift
    assert np.abs(u - exact).max() < 1e-12


def test_solve_reports_unreachable_contract(grid44, unit_field44):
    A = fine_fem.assemble_stiffness(grid44, unit_field44)
    b = fine_fem.assemble_load(grid44, np.ones((grid44.nf, grid44.nf)))
    with pytest.raises(fine_fem.SolveFailure) as err:
        fine_fem.solve_dirichlet(A, b, grid44.boundary_vertex_ids(), rtol=0.0)
    assert err.value.achieved > 0.0


def test_refinement_reports_a_stall():
    # the refinement loop shared by the Dirichlet and the coarse solves: a
    # correction that makes no progress exhausts its steps and names the solve
    calls = []

    def no_progress(resid):
        calls.append(resid)
        return np.zeros_like(resid)

    A_ld = np.diag([1.0, 2.0, 4.0]).astype(np.longdouble)
    x = np.zeros(3, dtype=np.longdouble)
    with pytest.raises(fine_fem.SolveFailure, match="coarse solve \\(dim 3\\) stalled") as err:
        fine_fem._refine(no_progress, A_ld, np.ones(3), x, 1e-12, 4, "coarse solve (dim 3)")
    assert err.value.achieved == pytest.approx(1.0)
    assert len(calls) == 4


def test_eigenvalue_growth_under_fixing():
    # spot check on the 4x4 fine grid against a dense eigensolve oracle
    grid = mesh.GridHierarchy(2, 2)
    A = fine_fem.assemble_stiffness(grid, CoefficientField.constant(grid.nf)).toarray()
    fixed1 = grid.boundary_vertex_ids()
    fixed2 = np.append(fixed1, grid.vertex_id(2, 2))
    eigs = []
    for fixed in (fixed1, fixed2):
        free = np.setdiff1d(np.arange(grid.n_vertices), fixed)
        eigs.append(np.linalg.eigvalsh(A[np.ix_(free, free)])[0])
    assert eigs[0] > 0.0
    assert eigs[1] > eigs[0]


# ---------------------------------------------------------------------------
# local operator, norms, functional


def test_local_operator_sizes_and_spd(grid44, unit_field44):
    A = fine_fem.assemble_stiffness(grid44, unit_field44)
    neighborhoods = mesh.all_neighborhoods(grid44)
    r = grid44.r
    zt = fine_fem.local_operator(A, neighborhoods, 0)
    assert zt.shape == ((2 * r - 1) ** 2, (2 * r - 1) ** 2)
    assert np.linalg.eigvalsh(zt.toarray())[0] > 0.0


def test_local_operator_matches_global_entries(grid44, unit_field44):
    A = fine_fem.assemble_stiffness(grid44, unit_field44)
    neighborhoods = mesh.all_neighborhoods(grid44)
    sub = fine_fem.local_operator(A, neighborhoods, 0).toarray()
    ids = neighborhoods.interior_vertices[0]
    assert np.array_equal(sub, A[np.ix_(ids, ids)].toarray())


def test_energy_norm_properties(grid44, unit_field44):
    A = fine_fem.assemble_stiffness(grid44, unit_field44)
    assert fine_fem.energy_norm(A, np.zeros(grid44.n_vertices)) == 0.0
    rng = np.random.default_rng(6)
    v = rng.normal(size=grid44.n_vertices)
    assert fine_fem.energy_norm(A, -2.5 * v) == pytest.approx(
        2.5 * fine_fem.energy_norm(A, v), rel=1e-13
    )


def test_functional_measures_box():
    from gmsfem import cli

    grid = mesh.GridHierarchy(10, 10)
    density = cli.box_fraction(grid, cli.K2_BOX)
    value = fine_fem.assemble_load(grid, density) @ np.ones(grid.n_vertices)
    assert value == pytest.approx(0.01, abs=1e-15)


def test_galerkin_orthogonality_of_fine_solve(grid44):
    rng = np.random.default_rng(9)
    field = CoefficientField(np.exp(rng.normal(size=(grid44.nf, grid44.nf))))
    A = fine_fem.assemble_stiffness(grid44, field)
    b = fine_fem.assemble_load(grid44, np.ones((grid44.nf, grid44.nf)))
    fixed = grid44.boundary_vertex_ids()
    u = fine_fem.solve_dirichlet(A, b, fixed)
    free = np.setdiff1d(np.arange(grid44.n_vertices), fixed)
    assert np.abs((b - A @ u)[free]).max() < 1e-10 * np.linalg.norm(b)
