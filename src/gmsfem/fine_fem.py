"""Fine-scale Q1 finite element kernel: assembly, Dirichlet solves, norms.

The coefficient is constant on each fine cell, so element integration is
exact: the element stiffness is ``kappa_cell * Q1_STIFFNESS`` (scale free in
2D) and the element mass is ``weight_cell * h**2 * Q1_MASS``.  No other
module reads these reference matrices.  The patch matrices of all patches of
one layout are assembled at once, by one sparse product with their assembly
operator, onto one CSR pattern (PatchMatrices), the one source of every
patch operator: over the coarse elements, the partition of unity's interior
blocks; over the neighborhoods, the snapshots' interior-rim blocks, and the
zero-trace operators' stacked band and interior blocks that the dual norms
use.  The Dirichlet solve here and the coarse
solves of coarse_solve take one path: ``_banded_cholesky`` factors the band
of the unit-diagonal matrix and returns its pivots and its refined solve.
Every banded factor of the program is LAPACK's dpbtrf through scipy: the
dual norms' through ``scipy.linalg.cholesky_banded``, the others through
``scipy.linalg.lapack.dpbtrf``.  Every banded solve goes through
``_pbtrs``: LAPACK's dpbtrs, the routine scipy's wrapper calls, called
through ctypes, which releases the GIL for the call, so a solve on
workers' helper thread overlaps one here.
"""

import ctypes

import numpy as np
import scipy.linalg.cython_lapack
import scipy.linalg.lapack
import scipy.sparse as sparse

__all__ = [
    "CoefficientField",
    "PatchMatrices",
    "SolveFailure",
    "assemble_stiffness",
    "patch_stiffness",
    "patch_weighted_mass",
    "assemble_load",
    "solve_dirichlet",
    "energy_norm",
]

# Reference Q1 matrices on a square, node order [v00, v10, v11, v01].
Q1_STIFFNESS = (
    np.array(
        [
            [4.0, -1.0, -2.0, -1.0],
            [-1.0, 4.0, -1.0, -2.0],
            [-2.0, -1.0, 4.0, -1.0],
            [-1.0, -2.0, -1.0, 4.0],
        ]
    )
    / 6.0
)

Q1_MASS = (
    np.array(
        [
            [4.0, 2.0, 1.0, 2.0],
            [2.0, 4.0, 2.0, 1.0],
            [1.0, 2.0, 4.0, 2.0],
            [2.0, 1.0, 2.0, 4.0],
        ]
    )
    / 36.0
)

# Relative residual contract of solve_dirichlet, met in extended precision.
FINE_RTOL = 1e-10


def _lapack(name, n_args):
    """LAPACK routine ``name`` through the function pointer that
    scipy.linalg.cython_lapack exports, called with ``n_args`` pointers."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(
        get_pointer(capsule, get_name(capsule))
    )


_DPBTRS = _lapack("dpbtrs", 9)
_UPPER = ctypes.c_char(b"U")


def _address(a):
    """Address of the first element of the Fortran-ordered array ``a``; raises
    if ``a`` is not Fortran-contiguous or not writable."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a.T))


def _check_band(ab):
    if ab.dtype != np.float64 or ab.ndim != 2 or not ab.flags.f_contiguous:
        raise ValueError(
            f"band storage must be a Fortran-ordered 2-D float64 array, got {ab.dtype} "
            f"of shape {ab.shape}"
        )


def _pbtrs(ab, b):
    """Solve with the upper banded Cholesky factor ``ab`` of LAPACK's dpbtrf
    (Fortran-ordered float64, ldab = kd + 1) for the right-hand sides
    ``b``, (n,) or (n, k), with LAPACK's dpbtrs; the solution is a new
    Fortran-ordered array of b's shape, the one copy of b made here, as
    scipy's pbtrs makes it."""
    _check_band(ab)
    x = np.array(b, dtype=np.float64, order="F")
    n = ab.shape[1]
    if x.ndim not in (1, 2) or len(x) != n:
        raise ValueError(f"right-hand side of shape {x.shape} for a band of order {n}")
    nrhs = x.size // n if n else 0
    ints = (ctypes.c_int * 6)(n, ab.shape[0] - 1, nrhs, ab.shape[0], max(n, 1), 0)
    at = ctypes.addressof(ints)
    upper, a, b = ctypes.addressof(_UPPER), _address(ab), _address(x)
    _DPBTRS(upper, at, at + 4, at + 8, a, at + 12, b, at + 16, at + 20)
    if ints[5] < 0:
        raise ValueError(f"dpbtrs: argument {-ints[5]} is invalid")
    return x


class SolveFailure(RuntimeError):
    """A linear solve did not meet its residual contract."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class CoefficientField:
    """Per-fine-cell positive scalar coefficient on an nf x nf cell grid.

    ``values[iy, ix]`` belongs to the cell [ix*h, (ix+1)*h] x [iy*h, (iy+1)*h]
    (row-major from y=0 upward).  Values must be strictly positive and finite.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"coefficient field must be square 2D, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("coefficient field contains non-finite values")
        if np.any(values <= 0.0):
            bad = np.argwhere(values <= 0.0)[0]
            raise ValueError(
                f"coefficient field must be positive; values[{bad[0]}, {bad[1]}] = "
                f"{values[bad[0], bad[1]]}"
            )
        self.values = values

    @property
    def nf(self):
        return self.values.shape[0]


def _check_field(grid, field):
    if field.nf != grid.nf:
        raise ValueError(f"coefficient field is {field.nf}x{field.nf} but grid has nf={grid.nf}")


def _assemble(ref, cell_coeff, cell_vertices, ndof):
    """Sum per-cell scaled copies of a 4x4 reference matrix into a CSR matrix."""
    rows = np.repeat(cell_vertices, 4, axis=1).ravel()
    cols = np.tile(cell_vertices, (1, 4)).ravel()
    data = (cell_coeff[:, None, None] * ref[None, :, :]).ravel()
    mat = sparse.coo_matrix((data, (rows, cols)), shape=(ndof, ndof))
    return mat.tocsr()


def assemble_stiffness(grid, field):
    """Global stiffness of the coefficient-weighted Dirichlet form."""
    _check_field(grid, field)
    return _assemble(
        Q1_STIFFNESS, field.values.ravel(), grid.cell_vertex_table(), grid.n_vertices
    )


class PatchMatrices:
    """One Q1 form assembled over the own cells of every patch of a
    mesh.Neighborhoods layout: the coarse neighborhoods, or (width 1) the
    coarse elements.

    All patches are translates of the layout that mesh.Neighborhoods holds
    once, so their matrices share one CSR pattern (``indptr``, ``indices``);
    row i of the (N, nnz) ``data`` holds patch i's values.  The pattern is
    the sorted unique (row, column) keys of the patch cells' element terms,
    and ``data`` is the transpose of one sparse product, the (nnz, cells)
    assembly operator, whose entry (e, c) is cell c's reference term in
    stored entry e, times the (cells, N) coefficients.  Each stored entry
    sums its at most four element terms in ascending cell order, as the
    COO -> CSR conversion of an assembly over the patch's cells alone does,
    so ``matrix(i)`` is bitwise equal to that assembly.
    """

    def __init__(self, neighborhoods, ref, coeff):
        n, cell_vertices = neighborhoods.vertices.shape[1], neighborhoods.cell_vertices
        keys = np.repeat(cell_vertices, 4, axis=1) * n + np.tile(cell_vertices, (1, 4))
        keys, entry = np.unique(keys.ravel(), return_inverse=True)
        rows, cols = np.divmod(keys, n)
        # the assembly operator: W[e, c] is cell c's reference term in stored
        # entry e; scipy sums each row of W @ coeff.T in ascending cell order
        cells = np.repeat(np.arange(len(cell_vertices)), 16)
        W = sparse.csr_matrix((np.tile(ref.ravel(), len(cell_vertices)), (entry, cells)))
        self.data = (W @ coeff.T).T  # column-major: the product is not copied
        self.neighborhoods = neighborhoods
        self.shape = (n, n)
        # int32 and read-only: every matrix(i) shares them without a conversion
        self.indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
        self.indices = cols.astype(np.int32)
        for pattern in (self.indptr, self.indices):
            pattern.setflags(write=False)
        # index maps, computed once: each stored entry's row (a) and column (b)
        # position in the interior and column position (c) in the rim, -1
        # outside; then per block the stored entries it takes and where they go
        interior, rim = neighborhoods.interior, neighborhoods.rim
        in_interior, in_rim = np.full(n, -1), np.full(n, -1)
        in_interior[interior], in_rim[rim] = np.arange(len(interior)), np.arange(len(rim))
        a, b, c = in_interior[rows], in_interior[cols], in_rim[cols]
        self._dense = {}
        for block, col, width in (("interior", b, len(interior)), ("rim", c, len(rim))):
            take = np.flatnonzero((a >= 0) & (col >= 0))
            self._dense[block] = (take, a[take] * width + col[take], (len(interior), width))
        # the upper triangle of the [interior][:, interior] block, in band storage
        self._band_data = np.flatnonzero((a >= 0) & (a <= b))
        a, b = a[self._band_data], b[self._band_data]
        self._band_u = int((b - a).max())
        self._band_col, self._band_row = b, self._band_u + a - b

    def matrix(self, i):
        """Patch i's matrix, CSR over the patch-local vertex order."""
        return sparse.csr_matrix((self.data[i], self.indices, self.indptr), shape=self.shape)

    def dense_block(self, cols, i=slice(None)):
        """Dense block [interior][:, cols] of patch i, for ``cols`` "interior"
        or "rim"; by default of every patch at once, stacked (N, m, ·)."""
        take, put, shape = self._dense[cols]
        values = self.data[i, take]
        block = np.zeros(values.shape[:-1] + (shape[0] * shape[1],))
        block[..., put] = values
        return block.reshape(values.shape[:-1] + shape)

    def interior_band(self):
        """Upper band storage of the block-diagonal stack of every
        neighborhood's [interior][:, interior] block, in neighborhood order.

        Entry (a, b) of block i, a <= b, is at ab[u + a - b, i * m + b] for m
        interior vertices and the half-bandwidth u of the block's pattern
        (u = 2r: the 9-point stencil on the (2r-1)^2 interior).  Returned
        Fortran-ordered, (u + 1, N * m), as LAPACK's banded routines take it.
        """
        n_blocks, m = len(self.data), len(self.neighborhoods.interior)
        ab = np.zeros((n_blocks, m, self._band_u + 1))
        ab[:, self._band_col, self._band_row] = self.data[:, self._band_data]
        return ab.reshape(n_blocks * m, -1).T


def patch_stiffness(field, neighborhoods):
    """Stiffness over the cells of each neighborhood only, on their grid.

    Each is the Neumann-type operator of the form restricted to the patch: it
    annihilates constants, unlike the principal submatrix of the global
    stiffness whose rim rows carry energy from cells outside the patch.
    """
    _check_field(neighborhoods.grid, field)
    return PatchMatrices(neighborhoods, Q1_STIFFNESS, field.values.ravel()[neighborhoods.cells])


def patch_weighted_mass(weight, neighborhoods):
    """Weighted mass over the cells of each neighborhood only, on their grid."""
    _check_field(neighborhoods.grid, weight)
    coeff = weight.values.ravel()[neighborhoods.cells] * neighborhoods.grid.h**2
    return PatchMatrices(neighborhoods, Q1_MASS, coeff)


def assemble_load(grid, density):
    """Load vector of a piecewise-constant source: b_i = sum_cells density * int(phi_i).

    ``density`` is an (nf, nf) array over fine cells, same layout as
    CoefficientField values.
    """
    density = np.asarray(density, dtype=float)
    if density.shape != (grid.nf, grid.nf):
        raise ValueError(f"density must be ({grid.nf}, {grid.nf}), got {density.shape}")
    b = np.zeros(grid.n_vertices)
    per_vertex = np.repeat(density.ravel() * grid.h**2 / 4.0, 4)
    np.add.at(b, grid.cell_vertex_table().ravel(), per_vertex)
    return b


def _refine(correct, A_ld, b, x, rtol, steps, label):
    """Iterative refinement of A x = b with residuals in extended precision.

    ``A_ld`` is the matrix in ``np.longdouble``, ``x`` the start iterate (in
    longdouble) and ``correct`` maps a float64 residual to the float64
    correction, typically a solve with an existing factorization.  Up to
    ``steps`` residuals are checked against ``||b - A x|| <= rtol * ||b||``;
    the first iterate that meets it is returned rounded to float64.  The
    contract holds for that extended-precision iterate, not for the rounded
    result: at contrast 1e6 the rounding alone can leave a residual above
    rtol.  Raises SolveFailure, with ``label`` and the achieved relative
    residual, if no iterate meets it.
    """
    norm_b = np.linalg.norm(b)
    b_ld = b.astype(np.longdouble)
    for _ in range(steps):
        resid = b_ld - A_ld @ x
        achieved = float(np.linalg.norm(resid.astype(float)))
        if achieved <= rtol * norm_b:
            return x.astype(float)
        x = x + correct(np.asarray(resid, dtype=float))
    raise SolveFailure(
        f"{label} stalled at relative residual {achieved / norm_b:.3e} "
        f"(contract {rtol:.1e})",
        achieved=achieved / norm_b,
    )


def _banded_cholesky(M):
    """Banded Cholesky of D^-1/2 M D^-1/2, D = diag(M): (solve, pivots, info).

    M is a symmetric CSC matrix in the order it is to be factored, without
    pivoting.  The scaled upper band is gathered into band storage, entry
    (row, col) at ab[u + row - col, col] for the half-bandwidth u of M's
    pattern, and factored with ``dpbtrf`` (called directly for its ``info``:
    0, or the order of the first leading minor that is not positive definite,
    whose earlier columns are factored).  ``pivots`` are the factor's squared
    diagonal over those columns; ``solve(b, rtol, steps, label)`` (for info
    0) solves M x = b with ``_pbtrs``, refined by ``_refine`` against M in
    longdouble.
    """
    scale = np.sqrt(M.diagonal())
    inv = 1.0 / scale
    cols = np.repeat(np.arange(M.shape[1]), np.diff(M.indptr))
    upper = M.indices <= cols
    rows, cols = M.indices[upper], cols[upper]
    u = int((cols - rows).max())
    ab = np.zeros((u + 1, M.shape[1]), order="F")
    ab[u + rows - cols, cols] = M.data[upper] * inv[rows] * inv[cols]
    factor, info = scipy.linalg.lapack.dpbtrf(ab, overwrite_ab=1)
    done = info - 1 if info > 0 else M.shape[1]
    M_ld = M.astype(np.longdouble)

    def scaled_solve(rhs):
        return _pbtrs(factor, rhs / scale)

    def solve(b, rtol, steps, label):
        x = scaled_solve(b).astype(np.longdouble) / scale
        return _refine(lambda resid: scaled_solve(resid) / scale, M_ld, b, x, rtol, steps, label)

    return solve, factor[u, :done] ** 2, info


def solve_dirichlet(A, b, fixed):
    """Solve A u = b with u = 0 on the ``fixed`` dofs.

    Eliminates fixed rows/columns (keeping the free block symmetric), factors
    the diagonally scaled free block in natural vertex order with one banded
    Cholesky (with the grid's boundary vertices fixed, its half-bandwidth is
    nf), and applies iterative refinement in extended precision until an
    iterate satisfies ``||A_ff u_f - b_f|| <= FINE_RTOL * ||b_f||``: at high
    contrast the float64 evaluation noise of A @ u alone can exceed the
    contract.  The returned u is that iterate rounded to float64, whose own
    residual may miss FINE_RTOL (1.3e-9 relative at nc=10, contrast 1e6).
    Raises SolveFailure with the achieved residual if no iterate meets the
    contract, and without one if the free block is not positive definite.
    """
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("load vector contains non-finite values")
    free = np.setdiff1d(np.arange(n), np.asarray(fixed, dtype=int))
    solve, _, info = _banded_cholesky(A[free][:, free].tocsc())
    if info != 0:
        raise SolveFailure(
            f"Dirichlet solve: free block is not positive definite "
            f"(LAPACK dpbtrf info {info})"
        )
    u = np.zeros(n)
    u[free] = solve(b[free], FINE_RTOL, 6, "Dirichlet solve")
    return u


def energy_norm(A, v):
    """sqrt(v' A v), clamped at zero against roundoff."""
    return float(np.sqrt(max(float(v @ (A @ v)), 0.0)))
