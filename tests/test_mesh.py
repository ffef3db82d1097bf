import numpy as np
import pytest

from gmsfem import mesh


def test_build_grids_benchmark_counts():
    grid = mesh.GridHierarchy(10, 10)
    assert grid.nf == 100
    assert grid.H == pytest.approx(0.1)
    assert grid.n_interior_coarse == 81


def test_build_grids_smallest_case():
    grid = mesh.GridHierarchy(2, 2)
    assert grid.n_interior_coarse == 1


def test_build_grids_mixed_sizes():
    grid = mesh.GridHierarchy(4, 3)
    assert grid.nf == 12
    assert grid.n_interior_coarse == 9


@pytest.mark.parametrize("nc,r", [(1, 4), (0, 4), (4, 1), (4, 0), (1, 1)])
def test_build_grids_rejects_degenerate(nc, r):
    with pytest.raises(ValueError):
        mesh.GridHierarchy(nc, r)


def test_vertex_and_cell_indexing():
    grid = mesh.GridHierarchy(2, 3)
    assert grid.vertex_id(0, 0) == 0
    assert grid.vertex_id(grid.nf, 0) == grid.nf
    assert grid.vertex_id(0, 1) == grid.nf + 1
    table = grid.cell_vertex_table()
    assert table.shape == (grid.n_cells, 4)
    # cell (0, 0): corners (0,0), (1,0), (1,1), (0,1)
    assert list(table[0]) == [0, 1, grid.nf + 2, grid.nf + 1]


def test_boundary_vertex_ids():
    grid = mesh.GridHierarchy(2, 2)
    boundary = grid.boundary_vertex_ids()
    n = grid.nf + 1
    assert len(boundary) == 4 * grid.nf
    coords = grid.vertex_coordinates()[boundary]
    on_edge = (
        (coords[:, 0] == 0) | (coords[:, 0] == 1) | (coords[:, 1] == 0) | (coords[:, 1] == 1)
    )
    assert on_edge.all()
    assert len(np.unique(boundary)) == len(boundary)
    assert grid.n_vertices == n * n


def test_neighborhood_smallest_grid_covers_domain():
    grid = mesh.GridHierarchy(2, 2)
    neigh = mesh.CoarseNeighborhood(grid, 0)
    assert sorted(neigh.coarse_elements) == [0, 1, 2, 3]
    assert len(neigh.fine_vertices_all) == grid.n_vertices


def test_neighborhood_corner_adjacent_elements():
    grid = mesh.GridHierarchy(4, 2)
    vid = grid.interior_vertex_id(1, 1)
    neigh = mesh.CoarseNeighborhood(grid, vid)
    # coarse cells (0,0), (1,0), (0,1), (1,1) in row-major ids
    assert sorted(neigh.coarse_elements) == [0, 1, 4, 5]


def test_every_neighborhood_has_four_elements():
    grid = mesh.GridHierarchy(5, 2)
    for neigh in mesh.all_neighborhoods(grid):
        assert len(neigh.coarse_elements) == 4


def test_neighborhood_rejects_boundary_vertex():
    grid = mesh.GridHierarchy(4, 2)
    with pytest.raises(ValueError):
        grid.interior_vertex_id(0, 2)
    with pytest.raises(ValueError):
        grid.interior_vertex_id(4, 1)
    with pytest.raises(ValueError):
        mesh.CoarseNeighborhood(grid, grid.n_interior_coarse)
    with pytest.raises(ValueError):
        mesh.CoarseNeighborhood(grid, -1)


def test_patch_partition_is_disjoint_and_complete():
    grid = mesh.GridHierarchy(3, 4)
    for neigh in mesh.all_neighborhoods(grid):
        interior = set(neigh.fine_vertices_interior)
        boundary = set(neigh.fine_vertices_boundary)
        assert interior.isdisjoint(boundary)
        assert interior | boundary == set(neigh.fine_vertices_all)


def test_patch_sizes():
    grid = mesh.GridHierarchy(4, 3)
    r = grid.r
    for neigh in mesh.all_neighborhoods(grid):
        assert len(neigh.fine_vertices_all) == (2 * r + 1) ** 2
        assert len(neigh.fine_vertices_interior) == (2 * r - 1) ** 2
        assert neigh.n_snapshots == 8 * r


def test_member_element_vertices_inside_patch():
    grid = mesh.GridHierarchy(4, 2)
    table = grid.cell_vertex_table()
    for neigh in mesh.all_neighborhoods(grid):
        patch = set(neigh.fine_vertices_all)
        for coarse_cell in neigh.coarse_elements:
            ey, ex = divmod(coarse_cell, grid.nc)
            for cy in range(ey * grid.r, (ey + 1) * grid.r):
                for cx in range(ex * grid.r, (ex + 1) * grid.r):
                    assert set(table[grid.cell_id(cx, cy)]) <= patch


def test_coarse_cells_shared_by_at_most_four_neighborhoods():
    grid = mesh.GridHierarchy(4, 2)
    counts = np.zeros(grid.nc**2, dtype=int)
    for neigh in mesh.all_neighborhoods(grid):
        counts[neigh.coarse_elements] += 1
    assert counts.max() <= 4
    assert counts.min() >= 1  # nc=4: every coarse cell touches an interior vertex


def test_local_index_roundtrip():
    grid = mesh.GridHierarchy(3, 3)
    neigh = mesh.CoarseNeighborhood(grid, 2)
    ids = neigh.fine_vertices_all
    assert np.array_equal(ids[neigh.local_index(ids)], ids)
    assert np.array_equal(
        neigh.local_index(neigh.fine_vertices_interior), neigh.interior_local
    )
