"""Nested coarse/fine rectangular grid hierarchy on the unit square."""

import numbers

import numpy as np

__all__ = [
    "GridHierarchy",
    "Neighborhoods",
    "all_neighborhoods",
]


def _check_integer(name, value):
    """``value`` as an int if it is an integer (numpy's included, bool not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_real(name, value):
    """``value`` if it is a real number (numpy's included, bool not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


class GridHierarchy:
    """Uniform nc x nc coarse grid over (0,1)^2 with each coarse cell split
    into r x r fine cells.

    Fine vertices are numbered row-major from y=0 upward: vertex (ix, iy) has
    id ``iy*(nf+1) + ix`` and coordinates ``(ix*h, iy*h)``.  Fine cells use the
    same layout over the nf x nf cell grid.  Interior coarse vertices
    (ci, cj) with 1 <= ci, cj <= nc-1 are numbered ``(cj-1)*(nc-1) + (ci-1)``;
    only these carry multiscale basis functions, so homogeneous Dirichlet data
    on the outer boundary is automatic.

    The fine cell table is built in the constructor; instances are
    immutable after construction and safe to share.
    """

    def __init__(self, nc, r):
        self.nc, self.r = _check_integer("nc", nc), _check_integer("r", r)
        if nc < 2:
            raise ValueError("nc must be >= 2 (no interior coarse vertex otherwise)")
        if r < 2:
            raise ValueError("r must be >= 2 (no interior fine structure otherwise)")
        self.nf = self.nc * self.r
        self.H = 1.0 / self.nc
        self.h = 1.0 / self.nf
        self.n_vertices = (self.nf + 1) ** 2
        self.n_interior_coarse = (self.nc - 1) ** 2
        cx, cy = np.meshgrid(np.arange(self.nf), np.arange(self.nf))
        v00 = self.vertex_id(cx.ravel(), cy.ravel())
        self._cell_vertices = np.column_stack([v00, v00 + 1, v00 + self.nf + 2, v00 + self.nf + 1])

    def vertex_id(self, ix, iy):
        return iy * (self.nf + 1) + ix

    def cell_id(self, cx, cy):
        return cy * self.nf + cx

    def cell_vertex_table(self):
        """(nf^2, 4) fine vertex ids per cell, ordered [v00, v10, v11, v01]."""
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
    """The patches of one width over the coarse grid, as arrays over one
    shared patch layout.

    A patch of width w is a block of w x w coarse elements, with (wr+1)^2
    fine vertices and (wr)^2 fine cells; the (nc-w+1)^2 patches are numbered
    row-major by their lower-left corner.  Width 2, the default, gives the
    coarse neighborhoods: neighborhood i is the four coarse elements sharing
    interior coarse vertex i.  Width 1 gives the nc^2 coarse elements.  All
    patches are translates of one block, so the patch-local layout is held
    once, row-major over the patch:

    - ``rim`` and ``interior``: local indices of the patch perimeter (one
      harmonic snapshot per rim vertex) and of its complement;
    - ``cell_vertices``: the ((wr)^2, 4) local vertex indices of the patch
      cells, ordered [v00, v10, v11, v01] as ``GridHierarchy.cell_vertex_table``.

    Row i of ``vertices`` (N, (wr+1)^2), ``interior_vertices``
    (N, (wr-1)^2) and ``cells`` (N, (wr)^2) holds patch i's global fine
    vertex and cell ids in that local order, which is ascending.
    ``interior_vertices`` is int32, the index type of scipy's sparse
    matrices, so the basis matrices take their row indices from it
    unconverted (ms_space.OfflineSpace.basis_columns).
    """

    def __init__(self, grid, width=2):
        self.grid = grid
        r, p, q = grid.r, width * grid.r + 1, width * grid.r
        ly, lx = np.divmod(np.arange(p * p), p)
        on_rim = (lx == 0) | (lx == p - 1) | (ly == 0) | (ly == p - 1)
        self.rim = np.flatnonzero(on_rim)
        self.interior = np.flatnonzero(~on_rim)
        cy, cx = np.divmod(np.arange(q * q), q)
        v00 = cy * p + cx
        self.cell_vertices = np.column_stack([v00, v00 + 1, v00 + p + 1, v00 + p])

        # patch (bx, by) has its lower-left corner at fine vertex (bx * r, by * r)
        per_side = grid.nc - width + 1
        y0, x0 = np.divmod(np.arange(per_side * per_side), per_side)
        x0, y0 = x0[:, None] * r, y0[:, None] * r
        self.vertices = grid.vertex_id(x0 + lx, y0 + ly)
        self.interior_vertices = self.vertices[:, self.interior].astype(np.int32)
        self.cells = grid.cell_id(x0 + cx, y0 + cy)

    def __len__(self):
        return len(self.vertices)


def all_neighborhoods(grid):
    """Neighborhoods of all interior coarse vertices, in vertex id order."""
    return Neighborhoods(grid)
