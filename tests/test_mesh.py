import numpy as np
import pytest

from gmsfem import mesh

from conftest import interior_vertex_position, vertex_coordinates


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


@pytest.mark.parametrize(
    "nc, r, message",
    [(5.7, 4, "nc must be an integer, got 5.7"), (5, 4.9, "r must be an integer, got 4.9")],
    ids=["nc", "r"],
)
def test_build_grids_rejects_fractional_sizes(nc, r, message):
    with pytest.raises(ValueError) as excinfo:
        mesh.GridHierarchy(nc, r)
    assert str(excinfo.value) == message


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
    coords = vertex_coordinates(grid)[boundary]
    on_edge = (
        (coords[:, 0] == 0) | (coords[:, 0] == 1) | (coords[:, 1] == 0) | (coords[:, 1] == 1)
    )
    assert on_edge.all()
    assert len(np.unique(boundary)) == len(boundary)
    assert grid.n_vertices == n * n


def _coarse_elements(grid, cells):
    """Sorted coarse cell ids of the fine cells ``cells``."""
    cy, cx = np.divmod(cells, grid.nf)
    return np.unique((cy // grid.r) * grid.nc + cx // grid.r)


def test_neighborhood_smallest_grid_covers_domain():
    grid = mesh.GridHierarchy(2, 2)
    neighborhoods = mesh.all_neighborhoods(grid)
    assert list(_coarse_elements(grid, neighborhoods.cells[0])) == [0, 1, 2, 3]
    assert len(neighborhoods.vertices[0]) == grid.n_vertices


def test_neighborhood_corner_adjacent_elements():
    grid = mesh.GridHierarchy(4, 2)
    vid = 0  # interior coarse vertex (ci, cj) = (1, 1)
    cells = mesh.all_neighborhoods(grid).cells[vid]
    # coarse cells (0,0), (1,0), (0,1), (1,1) in row-major ids
    assert list(_coarse_elements(grid, cells)) == [0, 1, 4, 5]


def test_every_neighborhood_has_four_elements():
    grid = mesh.GridHierarchy(5, 2)
    neighborhoods = mesh.all_neighborhoods(grid)
    assert len(neighborhoods) == grid.n_interior_coarse
    for cells in neighborhoods.cells:
        assert len(_coarse_elements(grid, cells)) == 4
        # and every fine cell of those four elements
        assert len(np.unique(cells)) == 4 * grid.r**2


def test_patch_partition_is_disjoint_and_complete():
    grid = mesh.GridHierarchy(3, 4)
    neighborhoods = mesh.all_neighborhoods(grid)
    assert set(neighborhoods.rim).isdisjoint(neighborhoods.interior)
    for vertices, interior_ids in zip(neighborhoods.vertices, neighborhoods.interior_vertices):
        interior = set(interior_ids)
        boundary = set(vertices[neighborhoods.rim])
        assert interior.isdisjoint(boundary)
        assert interior | boundary == set(vertices)


def test_patch_sizes():
    grid = mesh.GridHierarchy(4, 3)
    r, n = grid.r, grid.n_interior_coarse
    neighborhoods = mesh.all_neighborhoods(grid)
    assert neighborhoods.vertices.shape == (n, (2 * r + 1) ** 2)
    assert neighborhoods.interior_vertices.shape == (n, (2 * r - 1) ** 2)
    assert neighborhoods.cells.shape == (n, 4 * r * r)
    assert neighborhoods.cell_vertices.shape == (4 * r * r, 4)
    assert len(neighborhoods.rim) == 8 * r


def test_member_element_vertices_inside_patch():
    grid = mesh.GridHierarchy(4, 2)
    table = grid.cell_vertex_table()
    neighborhoods = mesh.all_neighborhoods(grid)
    for vertices, cells in zip(neighborhoods.vertices, neighborhoods.cells):
        patch = set(vertices)
        for coarse_cell in _coarse_elements(grid, cells):
            ey, ex = divmod(coarse_cell, grid.nc)
            for cy in range(ey * grid.r, (ey + 1) * grid.r):
                for cx in range(ex * grid.r, (ex + 1) * grid.r):
                    assert set(table[grid.cell_id(cx, cy)]) <= patch
        # the shared local table names the same vertices as the global one
        assert np.array_equal(vertices[neighborhoods.cell_vertices], table[cells])


def test_coarse_cells_shared_by_at_most_four_neighborhoods():
    grid = mesh.GridHierarchy(4, 2)
    counts = np.zeros(grid.nc**2, dtype=int)
    for cells in mesh.all_neighborhoods(grid).cells:
        counts[_coarse_elements(grid, cells)] += 1
    assert counts.max() <= 4
    assert counts.min() >= 1  # nc=4: every coarse cell touches an interior vertex


def test_local_index_roundtrip():
    # patch-local indices are positions in the ascending vertex ids
    grid = mesh.GridHierarchy(3, 3)
    neighborhoods = mesh.all_neighborhoods(grid)
    ids = neighborhoods.vertices[2]
    assert np.array_equal(np.searchsorted(ids, ids), np.arange(len(ids)))
    assert np.array_equal(
        np.searchsorted(ids, neighborhoods.interior_vertices[2]), neighborhoods.interior
    )


def _patch_oracle(grid, x0, y0, width):
    """One patch's ids and patch-local tables, built from its lower-left fine
    vertex (x0, y0) and its width in coarse cells with loops over fine
    coordinates."""
    x1, y1 = x0 + width * grid.r, y0 + width * grid.r
    coords = [(ix, iy) for iy in range(y0, y1 + 1) for ix in range(x0, x1 + 1)]
    vertices = np.array([grid.vertex_id(ix, iy) for ix, iy in coords])
    on_rim = np.array([ix in (x0, x1) or iy in (y0, y1) for ix, iy in coords])
    cells = np.array([grid.cell_id(cx, cy) for cy in range(y0, y1) for cx in range(x0, x1)])
    cell_vertices = np.searchsorted(vertices, grid.cell_vertex_table()[cells])
    return vertices, np.flatnonzero(on_rim), np.flatnonzero(~on_rim), cells, cell_vertices


def _neighborhood_corner(grid, vertex_id):
    ci, cj = interior_vertex_position(grid, vertex_id)
    return (ci - 1) * grid.r, (cj - 1) * grid.r


def _element_corner(grid, element_id):
    ey, ex = divmod(element_id, grid.nc)
    return ex * grid.r, ey * grid.r


@pytest.mark.parametrize("nc,r", [(2, 2), (3, 4), (4, 3), (5, 2), (10, 10)])
def test_neighborhoods_match_per_neighborhood_construction(nc, r):
    grid = mesh.GridHierarchy(nc, r)
    elements = mesh.Neighborhoods(grid, width=1)
    cases = (
        (mesh.all_neighborhoods(grid), 2, grid.n_interior_coarse, _neighborhood_corner),
        (elements, 1, nc * nc, _element_corner),
    )
    for neighborhoods, width, count, corner_of in cases:
        assert len(neighborhoods) == count
        p = width * r + 1
        for i in range(count):
            vertices, rim, interior, cells, cell_vertices = _patch_oracle(
                grid, *corner_of(grid, i), width
            )
            assert np.array_equal(neighborhoods.vertices[i], vertices)
            assert np.array_equal(neighborhoods.rim, rim)
            assert np.array_equal(neighborhoods.interior, interior)
            assert np.array_equal(neighborhoods.interior_vertices[i], vertices[interior])
            assert np.array_equal(neighborhoods.cells[i], cells)
            assert np.array_equal(neighborhoods.cell_vertices, cell_vertices)
            # a cell's id is the id of its lower-left vertex less that vertex's row
            corner = vertices.reshape(p, p)[:-1, :-1].ravel()
            assert np.array_equal(neighborhoods.cells[i], corner - corner // (grid.nf + 1))
    # the coarse elements tile the grid: each fine cell lies in exactly one
    assert np.array_equal(np.sort(elements.cells.ravel()), np.arange(grid.n_cells))
