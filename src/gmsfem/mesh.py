"""Nested coarse/fine rectangular grid hierarchy on the unit square."""

import numpy as np

__all__ = [
    "GridHierarchy",
    "Neighborhoods",
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

    def boundary_vertex_ids(self):
        """Sorted fine vertex ids on the domain boundary."""
        n = self.nf + 1
        idx = np.arange(n)
        bottom = idx
        top = idx + (n - 1) * n
        left = idx[1:-1] * n
        right = left + n - 1
        return np.sort(np.concatenate([bottom, left, right, top]))


class Neighborhoods:
    """The coarse neighborhoods of all interior coarse vertices, as arrays
    over one shared patch layout.

    Neighborhood i is the union of the four coarse elements sharing interior
    coarse vertex i.  Its fine-vertex patch is the (2r+1) x (2r+1) block
    centered at that vertex and its fine cells the 2r x 2r cells inside; all
    patches are translates of one block, so the patch-local layout is held
    once, row-major over the patch:

    - ``rim`` and ``interior``: local indices of the patch perimeter (one
      harmonic snapshot per rim vertex) and of its complement;
    - ``cell_vertices``: the (4r^2, 4) local vertex indices of the patch
      cells, ordered [v00, v10, v11, v01] as ``GridHierarchy.cell_vertex_table``.

    Row i of ``vertices`` (N, (2r+1)^2), ``interior_vertices``
    (N, (2r-1)^2) and ``cells`` (N, 4r^2) holds neighborhood i's global
    fine vertex and cell ids in that local order, which is ascending.
    """

    def __init__(self, grid):
        self.grid = grid
        r, p, q = grid.r, 2 * grid.r + 1, 2 * grid.r
        ly, lx = np.divmod(np.arange(p * p), p)
        on_rim = (lx == 0) | (lx == p - 1) | (ly == 0) | (ly == p - 1)
        self.rim = np.flatnonzero(on_rim)
        self.interior = np.flatnonzero(~on_rim)
        cy, cx = np.divmod(np.arange(q * q), q)
        v00 = cy * p + cx
        self.cell_vertices = np.column_stack([v00, v00 + 1, v00 + p + 1, v00 + p])

        # interior coarse vertex (ci, cj) has its patch's lower-left corner at
        # fine vertex ((ci - 1) * r, (cj - 1) * r)
        y0, x0 = np.divmod(np.arange(grid.n_interior_coarse), grid.nc - 1)
        x0, y0 = x0[:, None] * r, y0[:, None] * r
        self.vertices = grid.vertex_id(x0 + lx, y0 + ly)
        self.interior_vertices = self.vertices[:, self.interior]
        self.cells = grid.cell_id(x0 + cx, y0 + cy)

    def __len__(self):
        return len(self.vertices)


def all_neighborhoods(grid):
    """Neighborhoods of all interior coarse vertices, in vertex id order."""
    return Neighborhoods(grid)
