"""Fine-scale Q1 finite element kernel: assembly, Dirichlet solves, norms.

The coefficient is constant on each fine cell, so element integration is
exact: the element stiffness is ``kappa_cell * Q1_STIFFNESS`` (scale free in
2D) and the element mass is ``weight_cell * h**2 * Q1_MASS``.
"""

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

__all__ = [
    "CoefficientField",
    "SolveFailure",
    "assemble_stiffness",
    "assemble_weighted_mass",
    "patch_stiffness",
    "patch_weighted_mass",
    "assemble_load",
    "solve_dirichlet",
    "local_operator",
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

    @classmethod
    def constant(cls, nf, value=1.0):
        return cls(np.full((nf, nf), float(value)))


def _check_field(grid, field):
    if field.nf != grid.nf:
        raise ValueError(
            f"coefficient field is {field.nf}x{field.nf} but grid has nf={grid.nf}"
        )


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


def assemble_weighted_mass(grid, weight):
    """Global mass matrix weighted by a per-cell coefficient."""
    _check_field(grid, weight)
    coeff = weight.values.ravel() * grid.h**2
    return _assemble(Q1_MASS, coeff, grid.cell_vertex_table(), grid.n_vertices)


def patch_stiffness(grid, field, neighborhoods, i):
    """Stiffness assembled over the cells of neighborhood i only.

    This is the Neumann-type operator of the form restricted to the patch: it
    annihilates constants, unlike the principal submatrix of the global
    stiffness whose rim rows carry energy from cells outside the patch.
    """
    _check_field(grid, field)
    coeff = field.values.ravel()[neighborhoods.cells[i]]
    n = neighborhoods.vertices.shape[1]
    return _assemble(Q1_STIFFNESS, coeff, neighborhoods.cell_vertices, n)


def patch_weighted_mass(grid, weight, neighborhoods, i):
    """Weighted mass assembled over the cells of neighborhood i only."""
    _check_field(grid, weight)
    coeff = weight.values.ravel()[neighborhoods.cells[i]] * grid.h**2
    n = neighborhoods.vertices.shape[1]
    return _assemble(Q1_MASS, coeff, neighborhoods.cell_vertices, n)


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
    the first that meets it returns x as float64.  Raises SolveFailure, with
    ``label`` and the achieved relative residual, if none does.
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


def solve_dirichlet(A, b, fixed, rtol=1e-10):
    """Solve A u = b with u = 0 on the ``fixed`` dofs.

    Eliminates fixed rows/columns (keeping the free block symmetric), solves by
    sparse LU, and applies iterative refinement until the free-dof residual
    satisfies ``||A_ff u_f - b_f|| <= rtol * ||b_f||``.  Residuals are
    accumulated in extended precision: at high contrast the float64 evaluation
    noise of A @ u alone can exceed the contract.  Raises SolveFailure with the
    achieved residual if the contract cannot be met.
    """
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("load vector contains non-finite values")
    free = np.setdiff1d(np.arange(n), np.asarray(fixed, dtype=int))
    u = np.zeros(n)
    b_f = b[free]
    if np.linalg.norm(b_f) == 0.0:
        return u
    A_ff = A[free][:, free].tocsc()
    lu = spla.splu(A_ff)
    x = lu.solve(b_f).astype(np.longdouble)
    u[free] = _refine(lu.solve, A_ff.astype(np.longdouble), b_f, x, rtol, 6, "Dirichlet solve")
    return u


def local_operator(A, neighborhoods, i):
    """Principal submatrix of A on neighborhood i's interior fine vertices.

    This is the discrete H^1_0(omega) operator, exact because the stencil of
    an interior vertex never leaves the patch.
    """
    idx = neighborhoods.interior_vertices[i]
    return A[idx][:, idx]


def energy_norm(A, v):
    """sqrt(v' A v), clamped at zero against roundoff."""
    return float(np.sqrt(max(float(v @ (A @ v)), 0.0)))
