"""Nested coarse/fine rectangular grid hierarchy on the unit square."""

import numpy as np

__all__ = [
    "GridHierarchy",
    "CoarseNeighborhood",
    "all_neighborhoods",
]


class GridHierarchy:
    """Uniform nc x nc coarse grid over (0,1)^2 with each coarse cell split
    into r x r fine cells.

    Fine vertices are numbered row-major from y=0 upward: vertex (ix, iy) has
    id ``iy*(nf+1) + ix`` and coordinates ``(ix*h, iy*h)``.  Fine cells use the
    same layout over the nf x nf cell grid.  Interior coarse vertices
    (ci, cj) with 1 <= ci, cj <= nc-1 are numbered ``(cj-1)*(nc-1) + (ci-1)``;
    only these carry multiscale basis functions, so homogeneous Dirichlet data
    on the outer boundary is automatic.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, nc, r):
        if nc < 2:
            raise ValueError("nc must be >= 2 (no interior coarse vertex otherwise)")
        if r < 2:
            raise ValueError("r must be >= 2 (no interior fine structure otherwise)")
        self.nc = int(nc)
        self.r = int(r)
        self.nf = self.nc * self.r
        self.H = 1.0 / self.nc
        self.h = 1.0 / self.nf
        self.n_vertices = (self.nf + 1) ** 2
        self.n_cells = self.nf**2
        self.n_interior_coarse = (self.nc - 1) ** 2
        self._cell_vertices = None

    def vertex_id(self, ix, iy):
        return iy * (self.nf + 1) + ix

    def cell_id(self, cx, cy):
        return cy * self.nf + cx

    def cell_vertex_table(self):
        """(n_cells, 4) fine vertex ids per cell, ordered [v00, v10, v11, v01]."""
        if self._cell_vertices is None:
            cx, cy = np.meshgrid(np.arange(self.nf), np.arange(self.nf))
            v00 = self.vertex_id(cx.ravel(), cy.ravel())
            self._cell_vertices = np.column_stack(
                [v00, v00 + 1, v00 + self.nf + 2, v00 + self.nf + 1]
            )
        return self._cell_vertices

    def vertex_coordinates(self):
        """(n_vertices, 2) array of fine vertex coordinates."""
        n = self.nf + 1
        ix = np.tile(np.arange(n), n)
        iy = np.repeat(np.arange(n), n)
        return np.column_stack([ix * self.h, iy * self.h])

    def boundary_vertex_ids(self):
        """Sorted fine vertex ids on the domain boundary."""
        n = self.nf + 1
        idx = np.arange(n)
        bottom = idx
        top = idx + (n - 1) * n
        left = idx[1:-1] * n
        right = left + n - 1
        return np.sort(np.concatenate([bottom, left, right, top]))

    def interior_vertex_id(self, ci, cj):
        """Id of the interior coarse vertex at coarse coordinates (ci, cj)."""
        if not (1 <= ci <= self.nc - 1 and 1 <= cj <= self.nc - 1):
            raise ValueError(
                f"coarse vertex ({ci}, {cj}) lies on the boundary of the "
                f"{self.nc}x{self.nc} coarse grid; only interior vertices carry a basis"
            )
        return (cj - 1) * (self.nc - 1) + (ci - 1)

    def interior_vertex_position(self, vertex_id):
        """Coarse coordinates (ci, cj) of an interior coarse vertex id."""
        if not 0 <= vertex_id < self.n_interior_coarse:
            raise ValueError(
                f"vertex_id {vertex_id} out of range [0, {self.n_interior_coarse})"
            )
        cj, ci = divmod(int(vertex_id), self.nc - 1)
        return ci + 1, cj + 1


class CoarseNeighborhood:
    """The four coarse elements sharing one interior coarse vertex.

    The fine-vertex patch is the (2r+1) x (2r+1) block centered at the coarse
    vertex; ``fine_vertices_boundary`` is its perimeter and
    ``fine_vertices_interior`` the complement.  All id arrays are sorted
    ascending, and patch-local indexing follows that order (row-major over the
    patch).
    """

    def __init__(self, grid, vertex_id):
        ci, cj = grid.interior_vertex_position(vertex_id)
        self.grid = grid
        self.vertex_id = int(vertex_id)
        self.coarse_position = (ci, cj)
        r = grid.r
        self.coarse_elements = [
            grid.nc * (cj - 1 + b) + (ci - 1 + a) for b in (0, 1) for a in (0, 1)
        ]

        x0, y0 = (ci - 1) * r, (cj - 1) * r
        p = 2 * r + 1
        lx = np.tile(np.arange(p), p)
        ly = np.repeat(np.arange(p), p)
        self.fine_vertices_all = grid.vertex_id(x0 + lx, y0 + ly)
        on_rim = (lx == 0) | (lx == p - 1) | (ly == 0) | (ly == p - 1)
        self.boundary_local = np.flatnonzero(on_rim)
        self.interior_local = np.flatnonzero(~on_rim)
        self.fine_vertices_boundary = self.fine_vertices_all[self.boundary_local]
        self.fine_vertices_interior = self.fine_vertices_all[self.interior_local]

        cellx = np.tile(np.arange(2 * r), 2 * r)
        celly = np.repeat(np.arange(2 * r), 2 * r)
        self.fine_cells = grid.cell_id(x0 + cellx, y0 + celly)

    @property
    def n_snapshots(self):
        """Number of fine boundary vertices, one harmonic snapshot each."""
        return len(self.fine_vertices_boundary)

    def local_index(self, vertex_ids):
        """Map global fine vertex ids into patch-local indices."""
        return np.searchsorted(self.fine_vertices_all, vertex_ids)


def all_neighborhoods(grid):
    """Neighborhoods of all interior coarse vertices, in vertex id order."""
    return [CoarseNeighborhood(grid, i) for i in range(grid.n_interior_coarse)]
