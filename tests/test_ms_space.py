import os
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from gmsfem import cli, coarse_solve, fine_fem, indicators, mesh, ms_space, workers
from gmsfem.fine_fem import CoefficientField

from conftest import (
    _offline,
    cpu_affinity,
    global_function,
    interior_vertex_position,
    vertex_coordinates,
)


# ---------------------------------------------------------------------------
# partition of unity


def _hat_values(grid, ci, cj, coords):
    """Analytic bilinear hat of the coarse vertex (ci, cj)."""
    H = grid.H
    wx = np.maximum(0.0, 1.0 - np.abs(coords[:, 0] - ci * H) / H)
    wy = np.maximum(0.0, 1.0 - np.abs(coords[:, 1] - cj * H) / H)
    return wx * wy


def test_pou_equals_hats_for_unit_coefficient(grid44, unit_field44):
    pu = ms_space.compute_partition_of_unity(grid44, unit_field44)
    coords = vertex_coordinates(grid44)
    for i in range(grid44.n_interior_coarse):
        ci, cj = interior_vertex_position(grid44, i)
        expected = _hat_values(grid44, ci, cj, coords)
        assert np.abs(global_function(pu, i) - expected).max() < 1e-10


def test_pou_sums_to_one_on_covered_vertices():
    grid = mesh.GridHierarchy(5, 4)
    rng = np.random.default_rng(12)
    field = CoefficientField(np.exp(2.0 * rng.normal(size=(grid.nf, grid.nf))))
    pu = ms_space.compute_partition_of_unity(grid, field)
    total = pu.sum_values()
    assert np.abs(total[pu.covered_vertex_ids()] - 1.0).max() <= 1e-8


def test_pou_bounds_with_high_contrast_inclusion():
    grid = mesh.GridHierarchy(4, 5)
    values = np.ones((grid.nf, grid.nf))
    values[6:9, 6:9] = 1e6  # inclusion strictly inside coarse cell (1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pu = ms_space.compute_partition_of_unity(grid, CoefficientField(values))
    assert pu.patches.min() >= -1e-8
    assert pu.patches.max() <= 1.0 + 1e-8


def test_pou_vanishes_on_patch_rim(grid44, unit_field44):
    pu = ms_space.compute_partition_of_unity(grid44, unit_field44)
    for i in range(len(pu.neighborhoods)):
        assert np.abs(pu.patches[i][pu.neighborhoods.rim]).max() == 0.0


def _pou_oracle(grid, field):
    """Partition functions from a hand-rolled element assembly: each coarse
    element's interior-interior and interior-rim stiffness blocks scattered
    with np.add.at, whose terms of one entry add in ascending cell order,
    then the batched solve and the stitching over each vertex's elements."""
    nc, r = grid.nc, grid.r
    p = 2 * r + 1
    n_elements = nc * nc

    m = r + 1
    ly, lx = np.divmod(np.arange(r * r), r)
    v00 = ly * m + lx
    cell_verts = np.column_stack([v00, v00 + 1, v00 + m + 1, v00 + m])
    gj, gi = np.divmod(np.arange(m * m), m)
    on_rim = (gi % r == 0) | (gj % r == 0)
    interior = np.flatnonzero(~on_rim)
    rim = np.flatnonzero(on_rim)
    position = np.where(on_rim, np.cumsum(on_rim), np.cumsum(~on_rim)) - 1
    hats = ms_space._element_hat_values(r)

    kappa = field.values.reshape(nc, r, nc, r).swapaxes(1, 2).reshape(n_elements, r * r)
    data = (kappa[:, :, None, None] * fine_fem.Q1_STIFFNESS).reshape(n_elements, -1)
    rows = np.repeat(cell_verts, 4, axis=1).ravel()
    cols = np.tile(cell_verts, (1, 4)).ravel()
    ni = len(interior)
    element = np.arange(n_elements)[:, None]
    A_ii, A_ib = np.zeros((n_elements, ni, ni)), np.zeros((n_elements, ni, len(rim)))
    for block, col_set in ((A_ii, ~on_rim), (A_ib, on_rim)):
        keep = ~on_rim[rows] & col_set[cols]
        flat = (element * ni + position[rows[keep]]) * block.shape[2] + position[cols[keep]]
        np.add.at(block.reshape(-1), flat, data[:, keep])
    sol = np.repeat(hats[None], n_elements, axis=0)
    sol[:, interior] = np.linalg.solve(A_ii, -A_ib @ hats[rim])

    cj, ci = np.divmod(np.arange(grid.n_interior_coarse), nc - 1)
    patches = np.zeros((grid.n_interior_coarse, p, p))
    for b in (0, 1):
        for a in (0, 1):
            pieces = sol[(cj + b) * nc + ci + a, :, (1 - a) + 2 * (1 - b)]
            patches[:, b * r : b * r + m, a * r : a * r + m] = pieces.reshape(-1, m, m)
    return patches.reshape(-1, p * p)


@pytest.mark.parametrize("nc, r", [(2, 2), (3, 3), (4, 3), (4, 5), (5, 4), (10, 10), (20, 10)])
def test_pou_equals_element_scatter_oracle(nc, r):
    grid = mesh.GridHierarchy(nc, r)
    rng = np.random.default_rng(3)
    fields = [CoefficientField(np.exp(3.0 * rng.standard_normal((grid.nf, grid.nf))))]
    if grid.nf >= 20:  # the smallest grid generate_field can host
        fields += [
            cli.generate_field("channel", 1e6, grid.nf, seed=7),
            cli.generate_field("inclusions", 1e4, grid.nf, seed=7),
        ]
    for field in fields:
        patches = ms_space.compute_partition_of_unity(grid, field).patches
        oracle = _pou_oracle(grid, field)
        assert patches.shape == oracle.shape
        assert patches.tobytes() == oracle.tobytes()


def test_offline_rejects_field_of_wrong_size():
    grid = mesh.GridHierarchy(4, 4)
    wrong = CoefficientField(np.ones((12, 12)))
    message = "coefficient field is 12x12 but grid has nf=16"
    with pytest.raises(ValueError, match=message):
        ms_space.compute_partition_of_unity(grid, wrong)
    pu = ms_space.compute_partition_of_unity(grid, CoefficientField(np.ones((grid.nf, grid.nf))))
    with pytest.raises(ValueError, match=message):
        ms_space.compute_spectral_weight(wrong, pu)


def test_patch_operators_take_their_grid_from_the_layout():
    # a 24x24 field over the layout of a 20x20 grid: each operator checks the
    # field against the grid of its neighborhoods, and the message names both
    grid20 = mesh.GridHierarchy(5, 4)
    field24 = CoefficientField(np.ones((24, 24)))
    pu = ms_space.compute_partition_of_unity(grid20, CoefficientField(np.ones((20, 20))))
    for operator, layout in (
        (fine_fem.patch_stiffness, mesh.Neighborhoods(grid20)),
        (fine_fem.patch_weighted_mass, mesh.Neighborhoods(grid20)),
        (ms_space.compute_spectral_weight, pu),
    ):
        with pytest.raises(ValueError) as excinfo:
            operator(field24, layout)
        assert str(excinfo.value) == "coefficient field is 24x24 but grid has nf=20"


# ---------------------------------------------------------------------------
# spectral weight


def _analytic_weight_oracle(grid):
    """kappa==1 oracle: H^2 * sum over interior hats of |grad hat|^2 at midpoints."""
    nf, H, h = grid.nf, grid.H, grid.h
    mid = (np.arange(nf) + 0.5) * h
    x, y = np.meshgrid(mid, mid)
    out = np.zeros((nf, nf))
    for i in range(grid.n_interior_coarse):
        ci, cj = interior_vertex_position(grid, i)
        dx = (x - ci * H) / H
        dy = (y - cj * H) / H
        inside = (np.abs(dx) < 1.0) & (np.abs(dy) < 1.0)
        gx = -np.sign(dx) / H * (1.0 - np.abs(dy))
        gy = -np.sign(dy) / H * (1.0 - np.abs(dx))
        out += inside * (gx**2 + gy**2)
    return H**2 * out


def test_spectral_weight_matches_analytic_hat_oracle(grid44, unit_field44):
    pu = ms_space.compute_partition_of_unity(grid44, unit_field44)
    weight = ms_space.compute_spectral_weight(unit_field44, pu)
    assert np.allclose(weight.values, _analytic_weight_oracle(grid44), atol=1e-12)


def test_spectral_weight_near_coarse_cell_center():
    # by the analytic oracle the hat-gradient sum approaches 2 at the center of
    # a fully interior coarse cell
    grid = mesh.GridHierarchy(4, 10)
    field = CoefficientField(np.ones((grid.nf, grid.nf)))
    pu = ms_space.compute_partition_of_unity(grid, field)
    weight = ms_space.compute_spectral_weight(field, pu)
    # cell midpoint nearest the center of coarse cell (1, 1)
    value = weight.values[15, 15]
    oracle = _analytic_weight_oracle(grid)[15, 15]
    assert value == pytest.approx(oracle, rel=1e-12)
    assert abs(value - 2.0) < 0.05


def test_spectral_weight_scales_with_coefficient():
    grid = mesh.GridHierarchy(4, 4)
    rng = np.random.default_rng(13)
    values = np.exp(rng.normal(size=(grid.nf, grid.nf)))
    w1 = _weight_for(grid, values)
    w9 = _weight_for(grid, 9.0 * values)
    assert np.allclose(9.0 * w1.values, w9.values, rtol=1e-12)


def _weight_for(grid, values):
    field = CoefficientField(values)
    pu = ms_space.compute_partition_of_unity(grid, field)
    return ms_space.compute_spectral_weight(field, pu)


def test_spectral_weight_positive_on_all_cells(channel_problem, channel_field):
    # CoefficientField construction would reject nonpositive cells, so getting
    # a weight back at all proves positivity; assert anyway for clarity.
    weight = ms_space.compute_spectral_weight(channel_field, channel_problem.space.pu)
    assert weight.values.min() > 0.0


# ---------------------------------------------------------------------------
# snapshots


def test_snapshots_boundary_data_and_sum(grid44, unit_field44):
    neighborhoods = mesh.all_neighborhoods(grid44)
    patch_A = fine_fem.patch_stiffness(unit_field44, neighborhoods)
    snaps = ms_space.compute_snapshots(patch_A, 0, indicators.ResidualNormCache(patch_A))
    rim = neighborhoods.rim
    assert np.array_equal(snaps[rim], np.eye(len(rim)))
    # linearity + maximum principle: harmonic extension of all-ones data is one
    assert np.abs(snaps.sum(axis=1) - 1.0).max() < 1e-12


def test_snapshots_match_dense_solve_oracle():
    grid = mesh.GridHierarchy(2, 2)
    rng = np.random.default_rng(14)
    field = CoefficientField(np.exp(rng.normal(size=(grid.nf, grid.nf))))
    neighborhoods = mesh.all_neighborhoods(grid)
    patch_A = fine_fem.patch_stiffness(field, neighborhoods)
    snaps = ms_space.compute_snapshots(patch_A, 0, indicators.ResidualNormCache(patch_A))
    A_patch = patch_A.matrix(0).toarray()
    interior, rim = neighborhoods.interior, neighborhoods.rim
    oracle = np.linalg.solve(
        A_patch[np.ix_(interior, interior)], -A_patch[np.ix_(interior, rim)]
    )
    assert np.allclose(snaps[interior], oracle, atol=1e-12)


# ---------------------------------------------------------------------------
# local spectral decomposition


def _spectrum_for(grid, field, neighborhoods, i, weight):
    patches = fine_fem.patch_stiffness(field, neighborhoods)
    patch_A = patches.matrix(i)
    patch_S = fine_fem.patch_weighted_mass(weight, neighborhoods).matrix(i)
    snaps = ms_space.compute_snapshots(patches, i, indicators.ResidualNormCache(patches))
    return ms_space.local_spectral_decomposition(i, patch_A, patch_S, snaps), patch_A, patch_S


def test_spectrum_constant_mode_and_order(unit_offline44):
    data = unit_offline44
    for spectrum in data["spectra"]:
        lam = spectrum.eigenvalues
        assert lam[0] <= 1e-8 * lam[-1]
        assert np.all(np.diff(lam) >= -1e-10 * lam[-1])
        assert lam.min() >= -1e-10 * max(1.0, lam[-1])


def test_spectrum_orthonormality_and_residuals(unit_offline44):
    data = unit_offline44
    grid, field, weight = data["grid"], data["field"], data["weight"]
    for i in range(3):
        spectrum, patch_A, patch_S = _spectrum_for(grid, field, data["neighborhoods"], i, weight)
        A_off = spectrum.snapshots.T @ (patch_A @ spectrum.snapshots)
        S_off = spectrum.snapshots.T @ (patch_S @ spectrum.snapshots)
        gram = spectrum.eigenvectors.T @ S_off @ spectrum.eigenvectors
        assert np.abs(gram - np.eye(len(gram))).max() < 1e-8
        scale = np.linalg.norm(A_off, 2)
        resid = A_off @ spectrum.eigenvectors - S_off @ spectrum.eigenvectors * spectrum.eigenvalues
        assert np.linalg.norm(resid, axis=0).max() <= 1e-8 * scale


def test_spectrum_matches_brute_force_pencil_oracle():
    # independent path: Cholesky of S_off, then a standard symmetric eigensolve
    grid = mesh.GridHierarchy(3, 3)
    rng = np.random.default_rng(15)
    values = np.exp(2.0 * rng.normal(size=(grid.nf, grid.nf)))
    field = CoefficientField(values)
    pu = ms_space.compute_partition_of_unity(grid, field)
    weight = ms_space.compute_spectral_weight(field, pu)
    for vid in (0, 3):
        spectrum, patch_A, patch_S = _spectrum_for(grid, field, pu.neighborhoods, vid, weight)
        A_off = spectrum.snapshots.T @ (patch_A @ spectrum.snapshots)
        S_off = spectrum.snapshots.T @ (patch_S @ spectrum.snapshots)
        L = np.linalg.cholesky(0.5 * (S_off + S_off.T))
        inv_L = np.linalg.inv(L)
        M = inv_L @ (0.5 * (A_off + A_off.T)) @ inv_L.T
        oracle = np.linalg.eigvalsh(0.5 * (M + M.T))
        scale = max(abs(oracle[-1]), 1.0)
        assert np.abs(spectrum.eigenvalues - oracle).max() <= 1e-8 * scale


def test_degenerate_strip_pencil_matches_dense_oracle():
    # 1D-flavored sanity: strongly anisotropic strip coefficient, single
    # neighborhood, dense brute-force solve of the same pencil
    grid = mesh.GridHierarchy(2, 3)
    values = np.ones((grid.nf, grid.nf))
    values[: grid.nf // 2] = 100.0  # horizontal strip
    field = CoefficientField(values)
    pu = ms_space.compute_partition_of_unity(grid, field)
    weight = ms_space.compute_spectral_weight(field, pu)
    spectrum, patch_A, patch_S = _spectrum_for(grid, field, pu.neighborhoods, 0, weight)
    A_off = spectrum.snapshots.T @ (patch_A.toarray() @ spectrum.snapshots)
    S_off = spectrum.snapshots.T @ (patch_S.toarray() @ spectrum.snapshots)
    oracle = scipy.linalg.eigh(
        0.5 * (A_off + A_off.T), 0.5 * (S_off + S_off.T), eigvals_only=True
    )
    assert np.abs(spectrum.eigenvalues - oracle).max() <= 1e-8 * max(1.0, abs(oracle[-1]))


def _patch_pencil(data, i):
    """Neighborhood i's patch stiffness, weighted mass and snapshots."""
    neighborhoods = data["neighborhoods"]
    patch_A = fine_fem.patch_stiffness(data["field"], neighborhoods).matrix(i)
    patch_S = fine_fem.patch_weighted_mass(data["weight"], neighborhoods).matrix(i)
    return patch_A, patch_S, data["spectra"][i].snapshots


def test_singular_snapshot_mass_is_jittered(unit_offline44):
    # a repeated snapshot column makes S_off singular: the diagonal shift
    # 1e-12 * tr(S_off) / L is added and the pencil still solves
    patch_A, patch_S, snaps = _patch_pencil(unit_offline44, 4)
    snaps = np.column_stack([snaps, snaps[:, 0]])
    spectrum = ms_space.local_spectral_decomposition(4, patch_A, patch_S, snaps)
    S_off = snaps.T @ (patch_S @ snaps)
    assert spectrum.jitter == 1e-12 * np.trace(S_off) / len(S_off) > 0.0
    assert np.all(np.isfinite(spectrum.eigenvalues))


def test_zero_weighted_mass_names_the_neighborhood(unit_offline44):
    patch_A, patch_S, snaps = _patch_pencil(unit_offline44, 4)
    with pytest.raises(RuntimeError, match="neighborhood 4: local mass matrix numerically indefinite"):
        ms_space.local_spectral_decomposition(4, patch_A, 0.0 * patch_S, snaps)


def _symmetric_pencil(patch_A, patch_S, snaps):
    """A_off and S_off of the snapshots, symmetrized as the library does."""
    A_off = snaps.T @ (patch_A @ snaps)
    S_off = snaps.T @ (patch_S @ snaps)
    return 0.5 * (A_off + A_off.T), 0.5 * (S_off + S_off.T)


@pytest.mark.parametrize("kind", ["channel", "inclusions"])
@pytest.mark.parametrize("contrast", [1e4, 1e6])
def test_jitter_and_spectrum_match_eigvalsh_and_eigh_oracles(kind, contrast):
    # every neighborhood of the criterion-8 fields at nc=10: the Cholesky
    # jitter test agrees with the smallest eigenvalue of S_off, and the
    # LAPACK pencil solve is bitwise scipy.linalg.eigh's
    grid = mesh.GridHierarchy(10, 10)
    field = cli.generate_field(kind, contrast, grid.nf, seed=7)
    pu = ms_space.compute_partition_of_unity(grid, field)
    weight = ms_space.compute_spectral_weight(field, pu)
    patches = fine_fem.patch_stiffness(field, pu.neighborhoods)
    masses = fine_fem.patch_weighted_mass(weight, pu.neighborhoods)
    zero_trace = indicators.ResidualNormCache(patches)
    for i in range(len(pu.neighborhoods)):
        patch_A, patch_S = patches.matrix(i), masses.matrix(i)
        snaps = ms_space.compute_snapshots(patches, i, zero_trace)
        spectrum = ms_space.local_spectral_decomposition(i, patch_A, patch_S, snaps)
        A_off, S_off = _symmetric_pencil(patch_A, patch_S, snaps)
        floor = 1e-12 * np.trace(S_off) / len(S_off)
        jitter = floor if scipy.linalg.eigvalsh(S_off)[0] < floor else 0.0
        assert spectrum.jitter == jitter, i
        eigenvalues, eigenvectors = scipy.linalg.eigh(A_off, S_off + jitter * np.eye(len(S_off)))
        assert np.array_equal(spectrum.eigenvalues, eigenvalues), i
        assert np.array_equal(spectrum.eigenvectors, eigenvectors), i


@pytest.mark.parametrize("ratio, jittered", [(0.5, True), (2.0, False)])
def test_mass_shifted_about_the_floor_is_jittered_below_it(unit_offline44, ratio, jittered):
    # shift S_off so that its smallest eigenvalue is ``ratio`` times the floor
    # 1e-12 * tr(S_off) / L; identity snapshots hand the pencil over as is
    A_off, S_off = _symmetric_pencil(*_patch_pencil(unit_offline44, 4))
    L = len(S_off)
    target = ratio * 1e-12
    shift = (target * np.trace(S_off) / L - scipy.linalg.eigvalsh(S_off)[0]) / (1.0 - target)
    S_off = S_off + shift * np.eye(L)
    floor = 1e-12 * np.trace(S_off) / L
    assert scipy.linalg.eigvalsh(S_off)[0] / floor == pytest.approx(ratio, rel=0.05)
    spectrum = ms_space.local_spectral_decomposition(4, A_off, S_off, np.eye(L))
    assert spectrum.jitter == (floor if jittered else 0.0)
    assert np.all(np.isfinite(spectrum.eigenvalues))


@pytest.mark.parametrize("side", ["stiffness", "mass"])
def test_non_finite_pencil_names_the_neighborhood(unit_offline44, side):
    patch_A, patch_S, snaps = _patch_pencil(unit_offline44, 4)
    if side == "stiffness":
        patch_A = np.nan * patch_A.toarray()
    else:
        patch_S = np.nan * patch_S.toarray()
    message = "neighborhood 4: local spectral problem is not finite"
    with pytest.raises(ms_space.OfflineFailure, match=message):
        ms_space.local_spectral_decomposition(4, patch_A, patch_S, snaps)


# ---------------------------------------------------------------------------
# offline space and enrichment


def _space_from(data, count=1):
    counts = np.minimum(count, [s.n_snapshots for s in data["spectra"]])
    space = ms_space.build_basis(data["pu"], data["spectra"].__getitem__, data["same"])
    return space.with_counts(counts)


def test_first_basis_function_is_proportional_to_pou(unit_offline44):
    space = _space_from(unit_offline44)
    interior, rim = space.neighborhoods.interior, space.neighborhoods.rim
    for i in range(space.n_neighborhoods):
        assert np.all(space.pu.patches[i][rim] == 0.0)
        chi = space.pu.patches[i][interior]
        psi = space.candidates[space.row[i], 0]
        mask = np.abs(chi) > 1e-12
        ratios = psi[mask] / chi[mask]
        assert np.abs(ratios - ratios[0]).max() < 1e-8 * abs(ratios[0])


def test_basis_support_containment(unit_offline44):
    space = _space_from(unit_offline44, count=3)
    grid = space.grid
    neighborhoods = space.neighborhoods
    for i, vertices in enumerate(neighborhoods.vertices):
        only = np.arange(space.n_neighborhoods) == i
        column = space.basis_columns(3 * only, 2 * only).toarray()[:, 0]
        outside = np.setdiff1d(np.arange(grid.n_vertices), vertices)
        assert np.all(column[outside] == 0.0)
        assert np.abs(column[vertices[neighborhoods.rim]]).max() == 0.0


def test_basis_counts_validation(unit_offline44):
    data = unit_offline44
    space = _space_from(data)
    limits = np.array([s.n_snapshots for s in data["spectra"]])
    for counts in (np.zeros_like(limits), limits + 1):
        with pytest.raises(ValueError, match=r"1 <= l_i <= L"):
            space.with_counts(counts)
    # build_basis asks for every neighborhood, so a short supply fails at the last one
    with pytest.raises(IndexError, match="list index out of range"):
        ms_space.build_basis(data["pu"], data["spectra"][:-1].__getitem__, data["same"])


def test_extended_rejects_negative_width(unit_offline44):
    with pytest.raises(ValueError, match="extension width must be >= 0"):
        _space_from(unit_offline44).extended(-1)


def test_with_counts_rejects_fractional_counts(unit_offline44):
    space = _space_from(unit_offline44)
    with pytest.raises(ValueError, match="basis counts must be integers, got dtype float64"):
        space.with_counts(np.full(space.n_neighborhoods, 1.7))


@pytest.mark.parametrize("counts", [1, [1, 1, 1], np.ones((3, 3), dtype=int)])
def test_with_counts_rejects_counts_of_another_shape(unit_offline44, counts):
    # one count per neighborhood, N = 9 of them, in one dimension: not one
    # for all, not 3, and not a (3, 3) array of 9
    space = _space_from(unit_offline44)
    with pytest.raises(ValueError) as excinfo:
        space.with_counts(counts)
    shape = np.shape(counts)
    assert str(excinfo.value) == f"basis counts must be N = 9 integers, got shape {shape}"


def test_extended_rejects_fractional_width(unit_offline44):
    with pytest.raises(ValueError, match="extension width must be an integer, got 1.5"):
        _space_from(unit_offline44).extended(1.5)


def test_enrich_rejects_fractional_width(unit_offline44):
    with pytest.raises(ValueError, match="enrichment width s must be an integer, got 1.5"):
        ms_space.enrich(_space_from(unit_offline44), [0], 1.5)
    with pytest.raises(ValueError, match="enrichment width s must be an integer, got True"):
        ms_space.enrich(_space_from(unit_offline44), [0], True)


def test_enrich_rejects_boolean_mask(unit_offline44):
    space = _space_from(unit_offline44)
    mask = np.arange(space.n_neighborhoods) == 5
    with pytest.raises(ValueError, match="not a boolean mask"):
        ms_space.enrich(space, mask)


def test_enrich_empty_marked_is_identity(unit_offline44):
    space = _space_from(unit_offline44)
    enriched = ms_space.enrich(space, np.empty(0, dtype=int), s=1)
    assert np.array_equal(enriched.counts, space.counts)
    assert enriched.total_dofs == space.total_dofs


def test_enrich_adds_s_dofs_and_is_monotone(unit_offline44):
    space = _space_from(unit_offline44)
    lam0 = space.spectra[0].eigenvalues
    lam4 = space.spectra[4].eigenvalues
    assert lam0[2] - lam0[1] > 1e-6 * lam0[2]  # neighborhood 0: simple lambda_2
    enriched = ms_space.enrich(space, [0], s=1)
    assert enriched.total_dofs == space.total_dofs + 1
    assert np.all(enriched.counts >= space.counts)
    # neighborhood 4 is the center of the symmetric grid, where lambda_2 =
    # lambda_3: one more function is not a well-defined space, so the whole
    # tied pair comes in
    assert abs(lam4[2] - lam4[1]) <= 1e-10 * lam4[2]
    paired = ms_space.enrich(space, [4], s=1)
    assert paired.counts[4] == 3
    assert paired.total_dofs == space.total_dofs + 2
    assert np.all(paired.counts >= space.counts)
    wider = ms_space.enrich(space, [0, 4], s=3)
    assert wider.total_dofs == space.total_dofs + 6
    with pytest.raises(ValueError):
        ms_space.enrich(space, [0], s=0)


def test_enrich_saturates_at_snapshot_count():
    grid = mesh.GridHierarchy(2, 4)
    field = CoefficientField(np.ones((grid.nf, grid.nf)))
    data = _offline(grid, field)
    space = _space_from(data, count=1)
    limit = space.n_candidates
    full = ms_space.enrich(space, [0], s=10 * limit)
    assert full.counts[0] == limit
    assert full.saturated[0]
    again = ms_space.enrich(full, [0], s=1)
    assert again.counts[0] == limit


@pytest.mark.parametrize("bad", [-1, 0.7, 9])
def test_enrich_rejects_bad_neighborhood_ids(unit_offline44, bad):
    space = _space_from(unit_offline44)
    assert space.n_neighborhoods == 9
    with pytest.raises(ValueError, match=f"marked id {bad} "):
        ms_space.enrich(space, [0, bad])


def _cluster_end_oracle(lam, count):
    """Smallest count >= ``count`` that does not split a cluster of ``lam``."""
    tied = np.diff(lam) <= ms_space.CLUSTER_TOL * np.maximum(np.abs(lam[:-1]), np.abs(lam[1:]))
    ends = np.flatnonzero(np.concatenate([[True], ~tied, [True]]))
    return ends[np.searchsorted(ends, count)]


def test_candidate_grid_matches_per_neighborhood_loops(channel_problem):
    # per-neighborhood loops over the spectra and candidates are the oracles
    # of the grid's array expressions; all comparisons are bitwise
    problem = channel_problem
    space = problem.space.extended(2)
    N, L = space.n_neighborhoods, space.n_candidates
    rng = np.random.default_rng(11)
    for _ in range(4):
        start = rng.integers(0, L + 1, N)
        stop = np.maximum(start, rng.integers(0, L + 1, N))
        rows, data, numbers = [], [], []
        for i, vertices in enumerate(space.neighborhoods.interior_vertices):
            for k in range(start[i], stop[i]):
                rows.append(vertices)
                data.append(space.candidates[space.row[i], k])
                numbers.append(i * L + k)
        R = space.basis_columns(stop, start)
        assert R.shape == (space.grid.n_vertices, len(numbers))
        assert np.array_equal(R.indptr, np.arange(len(numbers) + 1) * len(rows[0]))
        assert np.array_equal(R.indices, np.concatenate(rows))
        assert np.array_equal(R.data, np.concatenate(data))
        assert np.array_equal(space.candidate_numbers(stop, start), numbers)

        counts = rng.integers(0, L + 3, N)
        clustered = [
            _cluster_end_oracle(sp.eigenvalues, min(c, L)) for sp, c in zip(space.spectra, counts)
        ]
        assert np.array_equal(space._whole_clusters(counts), clustered)

        counts = rng.integers(1, L + 1, N)
        counts[rng.integers(0, N, 5)] = L
        lam = [sp.eigenvalues[c] if c < L else np.nan for sp, c in zip(space.spectra, counts)]
        np.testing.assert_array_equal(indicators._lambda_weights(space.with_counts(counts)), lam)
    # the channel medium ties eigenvalues, so some counts are rounded up
    assert any(
        _cluster_end_oracle(sp.eigenvalues, c) > c for sp in space.spectra for c in range(L)
    )

    store = coarse_solve.GalerkinStore(space, problem.stiffness)
    for grown in (space, ms_space.enrich(space, [0, 40, 80], 3), space.extended(1)):
        system = store.system(grown, problem.f_load)
        held = [i * L + k for i in range(N) for k in range(store.have[i])]
        assert np.array_equal(np.sort(store.number), held)
        # the system's load is its entries of the load of every held column
        load = space.basis_columns(store.have).T @ problem.f_load
        position = np.searchsorted(held, grown.candidate_numbers(grown.counts))
        assert np.array_equal(system.load, load[position])


def test_candidates_are_contiguous_rows_of_interior_values(channel_problem, channel_offline):
    # candidate (i, k) is one C-contiguous row of the m patch interior values
    # of chi_i * (snapshots @ eigenvectors[:, k]), bit for bit against the
    # offline data recomputed at one BLAS thread, as build_problem runs; it
    # is row k of block row[i], one block per group of repeated
    # neighborhoods, in the order of the groups' lowest members
    space = channel_problem.space
    interior = space.neighborhoods.interior
    same = channel_offline["same"]
    groups = np.flatnonzero(same == np.arange(len(same)))
    assert len(groups) < space.n_neighborhoods
    assert space.candidates.shape == (len(groups), space.n_candidates, len(interior))
    assert np.array_equal(groups[space.row], same)
    with workers.one_blas_thread():
        for i, k in ((0, 0), (17, 3), (40, 12), (80, space.n_candidates - 1)):
            row = space.candidates[space.row[i], k]
            assert row.flags.c_contiguous
            spectrum = channel_offline["spectra"][i]
            representatives = spectrum.snapshots[interior] @ spectrum.eigenvectors
            assert np.array_equal(
                row, channel_offline["pu"].patches[i][interior] * representatives[:, k]
            )


def test_offline_space_rejects_unequal_candidate_counts(unit_offline44):
    data = unit_offline44
    space = _space_from(data)
    spectra = list(data["spectra"])
    s = spectra[3]
    spectra[3] = ms_space.NeighborhoodSpectrum(
        s.vertex_id, s.snapshots[:, :-1], s.eigenvalues[:-1], s.eigenvectors[:-1, :-1]
    )
    with pytest.raises(ValueError, match="neighborhood 3 has"):
        ms_space.build_basis(data["pu"], spectra.__getitem__, data["same"])
    arrays = {
        "eigenvalues": space.eigenvalues,
        "jitter": space.jitter,
        "candidates": space.candidates,
    }
    for name, array in arrays.items():
        # the candidates may have any number G of blocks; the row map checks it
        short = array[:, :-1] if name == "candidates" else array[:-1]
        for wrong in (array[..., :-1], short, array[None]):
            given = {**arrays, name: wrong}
            with pytest.raises(ValueError, match=f"^{name} must have shape"):
                ms_space.OfflineSpace(space.pu, *given.values(), space.row, space.counts)


def _offline_space_with_row(space, row, candidates=None):
    candidates = space.candidates if candidates is None else candidates
    return ms_space.OfflineSpace(
        space.pu, space.eigenvalues, space.jitter, candidates, row, space.counts
    )


def test_offline_space_rejects_a_fractional_row_map(unit_offline44):
    space = _space_from(unit_offline44)
    with pytest.raises(ValueError, match="^row must be integers, got dtype float64$"):
        _offline_space_with_row(space, space.row.astype(float))
    with pytest.raises(ValueError, match="^row must be integers, got dtype bool$"):
        _offline_space_with_row(space, np.ones(space.n_neighborhoods, dtype=bool))


def test_offline_space_rejects_a_row_map_of_the_wrong_shape(unit_offline44):
    space = _space_from(unit_offline44)
    N = space.n_neighborhoods
    for wrong in (space.row[:-1], space.row[None], np.int64(0)):
        with pytest.raises(ValueError, match=rf"^row must be N = {N} integers, got shape"):
            _offline_space_with_row(space, wrong)


def test_offline_space_rejects_a_row_outside_the_blocks(unit_offline44):
    space = _space_from(unit_offline44)
    G = len(space.candidates)
    for bad in (-1, G):
        row = space.row.copy()
        row[4] = bad
        message = rf"^row must name blocks in \[0, G = {G}\), got {bad}$"
        with pytest.raises(ValueError, match=message):
            _offline_space_with_row(space, row)
    # a block too few: the last neighborhood names a block that is not there
    with pytest.raises(ValueError, match=rf"^row must name blocks in \[0, G = {G - 1}\)"):
        _offline_space_with_row(space, space.row, space.candidates[:-1])


def test_offline_space_rejects_a_block_no_row_names(unit_offline44):
    space = _space_from(unit_offline44)
    row = space.row.copy()
    row[5] = row[4]  # block 5 is no neighborhood's now
    with pytest.raises(ValueError, match="^row must name every block of candidates, missing 5$"):
        _offline_space_with_row(space, row)
    extra = np.concatenate([space.candidates, space.candidates[:1]])
    G = len(space.candidates)
    with pytest.raises(ValueError, match=f"^row must name every block of candidates, missing {G}$"):
        _offline_space_with_row(space, space.row, extra)


@pytest.mark.parametrize("cpus", [1, 2])
def test_build_basis_rejects_a_spectrum_without_L_eigenpairs(unit_offline44, cpus):
    # the last eigenpair of neighborhood 3 is dropped.  This process's
    # spectra are slowed, so on two CPUs the forked worker meets the short
    # spectrum first; its failure is run again here, and the error is the
    # serial one
    data = unit_offline44
    spectra = list(data["spectra"])
    s = spectra[3]
    L = len(s.eigenvalues)
    spectra[3] = ms_space.NeighborhoodSpectrum(
        s.vertex_id, s.snapshots[:, :-1], s.eigenvalues[:-1], s.eigenvectors[:-1, :-1]
    )
    here = os.getpid()
    (elsewhere,) = workers.shared_arrays((len(spectra),), dtype=bool)

    def spectrum(i):
        if os.getpid() == here:
            time.sleep(0.05)
        else:
            elsewhere[i] = True
        return spectra[i]

    with cpu_affinity(cpus):
        with pytest.raises(ValueError) as failure:
            ms_space.build_basis(data["pu"], spectrum, data["same"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert str(failure.value) == f"neighborhood 3 has {L - 1} eigenvalues, not L = {L}"
    assert elsewhere[3] == (cpus == 2)


def test_enrichment_nests_columns(unit_offline44):
    space = _space_from(unit_offline44, count=2)
    enriched = ms_space.enrich(space, [1, 3], s=2)
    R_old = space.basis_columns(space.counts)
    R_new = enriched.basis_columns(enriched.counts)
    for i in range(space.n_neighborhoods):
        old_cols = R_old[:, space.offsets[i] : space.offsets[i + 1]].toarray()
        new_cols = R_new[:, enriched.offsets[i] : enriched.offsets[i + 1]].toarray()
        assert np.array_equal(new_cols[:, : space.counts[i]], old_cols)


def test_wide_space_reaches_goal_error_plateau():
    # single neighborhood (nc=2), localized sources: sweeping in most of the
    # snapshot spectrum drives the goal error down to a plateau.  The floor
    # is the error of the whole chi-weighted snapshot span (all 80
    # candidates give nearly the count-60 error); the source bubble sets
    # little of it: adding chi * A^-1 f as a basis column lowers the
    # count-60 goal error only by about 4%
    grid = mesh.GridHierarchy(2, 10)
    rng = np.random.default_rng(16)
    field = CoefficientField(np.exp(rng.normal(size=(grid.nf, grid.nf))))
    data = _offline(grid, field)
    A = fine_fem.assemble_stiffness(grid, field)
    b = fine_fem.assemble_load(
        grid, cli.box_fraction(grid, cli.K1_BOX) - cli.box_fraction(grid, cli.K2_BOX)
    )
    u_ref = fine_fem.solve_dirichlet(A, b, grid.boundary_vertex_ids())
    g = fine_fem.assemble_load(grid, cli.box_fraction(grid, cli.K2_BOX))

    from gmsfem import coarse_solve

    errors = {}
    for count in (1, 40, 60):
        space = _space_from(data, count=count)
        system = coarse_solve.assemble_coarse(space, A, b)
        u_ms = coarse_solve.solve_primal(system)
        errors[count] = abs(g @ (u_ref - u_ms.fine))
    assert errors[40] < 0.5 * errors[1]
    assert abs(errors[60] / errors[40] - 1.0) < 0.1  # plateau


def test_near_zero_eigenvalue_count_stable_under_contrast():
    # the below-gap cluster scales like 1/contrast while the structural modes
    # stay put, so counting with a threshold inside the gap (1e-4 * lam_max)
    # is contrast-invariant on fixed geometry
    grid = mesh.GridHierarchy(10, 10)
    counts = {}
    for contrast in (1e4, 1e6):
        field = cli.generate_field("channel", contrast, grid.nf, seed=7)
        data = _offline(grid, field)
        counts[contrast] = np.array(
            [(s.eigenvalues < 1e-4 * s.eigenvalues[-1]).sum() for s in data["spectra"]]
        )
    assert np.array_equal(counts[1e4], counts[1e6])


def test_dump_spectra_roundtrip(tmp_path, unit_offline44):
    path = tmp_path / "spectra.csv"
    spectra = unit_offline44["spectra"]
    space = ms_space.build_basis(unit_offline44["pu"], spectra.__getitem__, unit_offline44["same"])
    ms_space.dump_spectra(space, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "vertex_id,k,lambda"
    expected_rows = sum(s.n_snapshots for s in unit_offline44["spectra"])
    assert len(lines) == 1 + expected_rows
    vid, k, lam = lines[1].split(",")
    assert (int(vid), int(k)) == (0, 1)
    assert float(lam) == unit_offline44["spectra"][0].eigenvalues[0]
