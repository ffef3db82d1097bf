import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg as spla

import gmsfem
from gmsfem import fine_fem, mesh
from gmsfem.fine_fem import CoefficientField

from conftest import (
    assemble_weighted_mass,
    benchmark_densities,
    poisson_center_value,
    vertex_coordinates,
)


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
    field = CoefficientField(np.ones((grid44.nf + 1, grid44.nf + 1)))
    with pytest.raises(ValueError):
        fine_fem.assemble_stiffness(grid44, field)
    with pytest.raises(ValueError):
        assemble_weighted_mass(grid44, field)
    with pytest.raises(ValueError, match=r"density must be \(16, 16\), got \(15, 16\)"):
        fine_fem.assemble_load(grid44, np.ones((15, 16)))


# ---------------------------------------------------------------------------
# stiffness


def test_single_cell_stiffness_entries():
    grid = mesh.GridHierarchy(2, 2)
    A = fine_fem.assemble_stiffness(grid, CoefficientField(np.ones((grid.nf, grid.nf))))
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


def test_stiffness_storage_is_its_own_transpose(channel_field):
    # bit for bit, stored pattern included, so that (R' A)' with sorted
    # indices is bitwise (A R).tocsc() for any basis matrix R
    A = fine_fem.assemble_stiffness(mesh.GridHierarchy(10, 10), channel_field)
    At = A.T.tocsr()
    assert np.array_equal(At.indptr, A.indptr)
    assert np.array_equal(At.indices, A.indices)
    assert At.data.tobytes() == A.data.tobytes()


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
    S = assemble_weighted_mass(grid44, unit_field44)
    ones = np.ones(grid44.n_vertices)
    assert ones @ (S @ ones) == pytest.approx(1.0, abs=1e-13)


def test_mass_scales_linearly(grid44):
    rng = np.random.default_rng(4)
    values = np.exp(rng.normal(size=(grid44.nf, grid44.nf)))
    S1 = assemble_weighted_mass(grid44, CoefficientField(values))
    S5 = assemble_weighted_mass(grid44, CoefficientField(5.0 * values))
    assert np.abs((5.0 * S1 - S5).toarray()).max() < 1e-12


def test_mass_center_diagonal_on_2x2_grid():
    grid = mesh.GridHierarchy(2, 2)  # nf = 4; use the four cells around (2, 2)
    S = assemble_weighted_mass(grid, CoefficientField(np.ones((grid.nf, grid.nf))))
    center = grid.vertex_id(2, 2)
    _, M_ref = _gauss_element_matrices(grid.h)
    # quadrature oracle: four surrounding cells each contribute their corner mass
    assert S[center, center] == pytest.approx(4 * M_ref[0, 0], abs=1e-15)
    assert S[center, center] == pytest.approx(4 * grid.h**2 / 9, abs=1e-15)


# ---------------------------------------------------------------------------
# patch matrices


def _patch_oracle(ref, coeff, neighborhoods, i):
    """Patch i's matrix as a COO assembly over its own cells only."""
    n = neighborhoods.vertices.shape[1]
    return fine_fem._assemble(ref, coeff[neighborhoods.cells[i]], neighborhoods.cell_vertices, n)


@pytest.mark.parametrize("nc, r", [(2, 2), (4, 3), (5, 4), (10, 10)])
def test_batched_patch_matrices_equal_per_patch_assembly(nc, r):
    from gmsfem import cli

    grid = mesh.GridHierarchy(nc, r)
    # channel@1e6; a grid coarser than nf = 20, which generate_field cannot
    # host, takes the lower-left block of the nf = 20 field
    values = cli.generate_field("channel", 1e6, max(grid.nf, 20), seed=7).values
    field = CoefficientField(values[: grid.nf, : grid.nf])
    coeff = field.values.ravel()
    # the coarse neighborhoods, and the coarse elements the partition of unity uses
    for neighborhoods in (mesh.all_neighborhoods(grid), mesh.Neighborhoods(grid, width=1)):
        cases = (
            (fine_fem.patch_stiffness(field, neighborhoods), fine_fem.Q1_STIFFNESS, coeff),
            (fine_fem.patch_weighted_mass(field, neighborhoods), fine_fem.Q1_MASS, coeff * grid.h**2),
        )
        interior, rim = neighborhoods.interior, neighborhoods.rim
        for patches, ref, cell_coeff in cases:
            assert patches.data.shape[0] == len(neighborhoods)
            stacked = {cols: patches.dense_block(cols) for cols in ("interior", "rim")}
            for i in range(len(neighborhoods)):
                oracle = _patch_oracle(ref, cell_coeff, neighborhoods, i)
                matrix = patches.matrix(i)
                assert np.array_equal(matrix.indptr, oracle.indptr)
                assert np.array_equal(matrix.indices, oracle.indices)
                assert matrix.data.tobytes() == oracle.data.tobytes()
                for cols, ids in (("interior", interior), ("rim", rim)):
                    block = oracle[interior][:, ids].toarray()
                    for gathered in (patches.dense_block(cols, i), stacked[cols][i]):
                        assert gathered.shape == block.shape
                        assert gathered.tobytes() == block.tobytes()


def _stacked_band_oracle(grid, g, A):
    """Upper band storage of the block-diagonal stack of the zero-trace
    operators of the patch interiors whose vertices, row-major per patch, are
    ``g``, gathered from the stencil diagonals of the global stiffness A.

    Column j holds ab[u - d, j] = A[g_j - D, g_j] for the stencil offsets D
    (global) and d (patch-interior) of the same neighbor; entries whose
    neighbor lies in another interior row or in the previous block stay zero.
    """
    n = grid.nf + 1
    q = 2 * grid.r - 1  # interior vertices per patch row
    u = q + 1
    y, x = np.divmod(np.arange(len(g)) % (q * q), q)
    ab = np.zeros((u + 1, len(g)), order="F")
    # (d, D, neighbor g_j - D inside the same patch interior)
    for d, D, inside in (
        (0, 0, slice(None)),
        (1, 1, x >= 1),
        (q - 1, n - 1, (y >= 1) & (x <= q - 2)),
        (q, n, y >= 1),
        (q + 1, n + 1, (y >= 1) & (x >= 1)),
    ):
        ab[u - d, inside] = A.diagonal(D)[g[inside] - D]
    return ab


@pytest.mark.parametrize("nc, r", [(2, 2), (3, 3), (4, 3), (5, 4), (10, 10)])
def test_gathered_interior_operators_equal_global_slices(nc, r):
    from gmsfem import cli

    grid = mesh.GridHierarchy(nc, r)
    rng = np.random.default_rng(3)
    fields = [CoefficientField(np.exp(3.0 * rng.standard_normal((grid.nf, grid.nf))))]
    if grid.nf >= 20:  # the smallest grid generate_field can host
        fields += [
            cli.generate_field("channel", 1e6, grid.nf, seed=7),
            cli.generate_field("inclusions", 1e4, grid.nf, seed=7),
        ]
    neighborhoods = mesh.all_neighborhoods(grid)
    interior = neighborhoods.interior
    for field in fields:
        A = fine_fem.assemble_stiffness(grid, field)
        patches = fine_fem.patch_stiffness(field, neighborhoods)
        band = patches.interior_band()
        oracle = _stacked_band_oracle(grid, neighborhoods.interior_vertices.ravel(), A)
        assert band.shape == oracle.shape
        assert np.array_equal(band.view(np.uint64), oracle.view(np.uint64))
        for i, ids in enumerate(neighborhoods.interior_vertices):
            block, sub = patches.matrix(i)[interior][:, interior], A[ids][:, ids]
            assert np.array_equal(block.indptr, sub.indptr)
            assert np.array_equal(block.indices, sub.indices)
            assert block.data.tobytes() == sub.data.tobytes()


def test_patch_matrices_share_one_read_only_pattern(grid44, unit_field44):
    patches = fine_fem.patch_stiffness(unit_field44, mesh.all_neighborhoods(grid44))
    matrix = patches.matrix(1)
    assert np.shares_memory(matrix.indices, patches.indices)
    assert np.shares_memory(matrix.indptr, patches.indptr)
    assert not patches.indices.flags.writeable
    assert not patches.indptr.flags.writeable


def test_no_other_module_reads_the_reference_element_matrices():
    # fine_fem is the one Q1 assembler: every other module takes its
    # operators from assemble_stiffness or PatchMatrices
    for info in pkgutil.iter_modules(gmsfem.__path__):
        if info.name == "fine_fem":
            continue
        module = importlib.import_module(f"gmsfem.{info.name}")
        source = Path(module.__file__).read_text()
        for name in ("Q1_STIFFNESS", "Q1_MASS"):
            assert not hasattr(module, name), (info.name, name)
            assert name not in source, (info.name, name)


def test_no_other_module_refines_or_factors_a_band_itself():
    # every refined SPD solve goes through the solve fine_fem._banded_cholesky
    # returns: no other module holds a longdouble copy or calls dpbtrf
    for info in pkgutil.iter_modules(gmsfem.__path__):
        if info.name == "fine_fem":
            continue
        module = importlib.import_module(f"gmsfem.{info.name}")
        source = Path(module.__file__).read_text()
        for name in ("longdouble", "dpbtrf", "_refine"):
            assert name not in source, (info.name, name)


def test_patch_assembly_rejects_size_mismatch(grid44):
    field = CoefficientField(np.ones((grid44.nf + 1, grid44.nf + 1)))
    neighborhoods = mesh.all_neighborhoods(grid44)
    with pytest.raises(ValueError):
        fine_fem.patch_stiffness(field, neighborhoods)
    with pytest.raises(ValueError):
        fine_fem.patch_weighted_mass(field, neighborhoods)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_rejects_non_finite_load(grid44, unit_field44, bad):
    A = fine_fem.assemble_stiffness(grid44, unit_field44)
    b = np.ones(grid44.n_vertices)
    b[40] = bad
    with pytest.raises(ValueError, match="load vector contains non-finite values"):
        fine_fem.solve_dirichlet(A, b, grid44.boundary_vertex_ids())


def test_solve_poisson_center_value_series_oracle():
    grid = mesh.GridHierarchy(8, 8)  # nf = 64
    field = CoefficientField(np.ones((grid.nf, grid.nf)))
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
    coords = vertex_coordinates(grid44)
    exact = coords[:, 0] * coords[:, 1]
    fixed = grid44.boundary_vertex_ids()
    lift = np.zeros(grid44.n_vertices)
    lift[fixed] = exact[fixed]
    u = fine_fem.solve_dirichlet(A, -(A @ lift), fixed) + lift
    assert np.abs(u - exact).max() < 1e-12


def test_solve_reports_unreachable_contract(grid44, unit_field44, monkeypatch):
    monkeypatch.setattr(fine_fem, "FINE_RTOL", 0.0)
    A = fine_fem.assemble_stiffness(grid44, unit_field44)
    b = fine_fem.assemble_load(grid44, np.ones((grid44.nf, grid44.nf)))
    with pytest.raises(fine_fem.SolveFailure) as err:
        fine_fem.solve_dirichlet(A, b, grid44.boundary_vertex_ids())
    assert err.value.achieved > 0.0


def test_solve_reports_indefinite_free_block():
    # an SPD free block is the banded Cholesky's precondition: a failed pivot
    # is reported, not solved past
    A = scipy.sparse.csr_matrix(np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]]))
    with pytest.raises(fine_fem.SolveFailure, match="not positive definite") as err:
        fine_fem.solve_dirichlet(A, np.ones(3), [0])
    assert err.value.achieved is None


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
    A = fine_fem.assemble_stiffness(grid, CoefficientField(np.ones((grid.nf, grid.nf)))).toarray()
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
    neighborhoods = mesh.all_neighborhoods(grid44)
    patches = fine_fem.patch_stiffness(unit_field44, neighborhoods)
    r, interior = grid44.r, neighborhoods.interior
    zt = patches.matrix(0)[interior][:, interior]
    assert zt.shape == ((2 * r - 1) ** 2, (2 * r - 1) ** 2)
    assert np.linalg.eigvalsh(zt.toarray())[0] > 0.0


def test_local_operator_matches_global_entries(grid44, unit_field44):
    A = fine_fem.assemble_stiffness(grid44, unit_field44)
    neighborhoods = mesh.all_neighborhoods(grid44)
    patches = fine_fem.patch_stiffness(unit_field44, neighborhoods)
    sub = patches.matrix(0)[neighborhoods.interior][:, neighborhoods.interior].toarray()
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


@pytest.mark.parametrize("kind", ["channel", "inclusions"])
def test_banded_dirichlet_solve_matches_sparse_lu(kind, monkeypatch):
    from gmsfem import cli

    # the refined iterate, rebuilt from its start and corrections in the
    # order the refinement adds them, before it is rounded to float64
    iterates = []
    refine = fine_fem._refine

    def recording_refine(correct, A_ld, b, x, *args):
        steps = [x]

        def recorded(resid):
            steps.append(correct(resid))
            return steps[-1]

        result = refine(recorded, A_ld, b, x, *args)
        final = steps[0]
        for step in steps[1:]:
            final = final + step
        iterates.append(final)
        return result

    monkeypatch.setattr(fine_fem, "_refine", recording_refine)
    grid = mesh.GridHierarchy(10, 10)
    field = cli.generate_field(kind, 1e6, grid.nf, seed=7)
    A = fine_fem.assemble_stiffness(grid, field)
    b = fine_fem.assemble_load(grid, benchmark_densities(grid)[0])
    fixed = grid.boundary_vertex_ids()
    u = fine_fem.solve_dirichlet(A, b, fixed)
    free = np.setdiff1d(np.arange(grid.n_vertices), fixed)
    A_ff, b_f = A[free][:, free], b[free]
    A_ld = A_ff.astype(np.longdouble)
    [x] = iterates
    assert np.array_equal(u[free], x.astype(float))
    assert np.all(u[fixed] == 0.0)
    resid = np.linalg.norm(np.asarray(b_f - A_ld @ x, dtype=float))
    assert resid <= 1e-10 * np.linalg.norm(b_f)
    # independent reference: SuperLU of the free block, refined with
    # residuals in extended precision
    lu = spla.splu(A_ff.tocsc())
    y = lu.solve(b_f).astype(np.longdouble)
    for _ in range(3):
        y = y + lu.solve(np.asarray(b_f - A_ld @ y, dtype=float))
    reference = np.asarray(y, dtype=float)
    assert np.abs(u[free] - reference).max() <= 1e-9 * np.abs(reference).max()


def test_lapack_entries_are_bitwise_scipys_wrappers(grid44, unit_field44):
    # _pbtrs calls the dpbtrs that scipy's wrapper calls, so with the factor
    # of scipy's dpbtrf on the free block's band it gives the same bits
    A = fine_fem.assemble_stiffness(grid44, unit_field44)
    free = np.setdiff1d(np.arange(A.shape[0]), grid44.boundary_vertex_ids())
    dense = A[free][:, free].toarray()
    u = grid44.nf + 1
    ab = np.zeros((u + 1, len(free)), order="F")
    for k in range(u + 1):
        ab[u - k, k:] = np.diagonal(dense, k)
    factor, info = scipy.linalg.lapack.dpbtrf(ab)
    assert info == 0
    rhs = np.arange(2.0 * len(free)).reshape(-1, 2)
    for b in (rhs[:, 0], rhs):
        expected = scipy.linalg.cho_solve_banded((factor, False), b)
        assert fine_fem._pbtrs(factor, b).tobytes() == expected.tobytes()
    for bad in (np.ascontiguousarray(factor), factor.astype(np.float32)):
        with pytest.raises(ValueError, match="Fortran-ordered 2-D float64"):
            fine_fem._pbtrs(bad, rhs)
    with pytest.raises(ValueError, match="right-hand side"):
        fine_fem._pbtrs(factor, rhs[:-1])
