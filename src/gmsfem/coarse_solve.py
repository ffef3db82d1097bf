"""Coarse coupling of the multiscale basis and primal/dual coarse solves.

Every coarse system takes one path, a sparse direct factorization with
diagonal pivots and refinement in extended precision (see CoarseSystem).
"""

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .fine_fem import _refine

__all__ = [
    "CoarseSystem",
    "CoarseSolution",
    "RankDeficientBasis",
    "assemble_coarse",
    "solve_primal",
    "solve_dual",
    "truncate_solution",
]

COARSE_RTOL = 1e-12


class RankDeficientBasis(RuntimeError):
    """The coarse stiffness is not SPD; carries the most collinear column pair."""

    def __init__(self, message, columns=None):
        super().__init__(message)
        self.columns = columns


class CoarseSolution:
    """Coefficients over the coarse dofs plus the fine-grid representation."""

    def __init__(self, coefficients, fine, space):
        self.coefficients = coefficients
        self.fine = fine
        self.space = space

    def component_coefficients(self, i):
        """Coefficient slice of neighborhood i."""
        return self.coefficients[self.space.column_slice(i)]


class CoarseSystem:
    """Galerkin system on the span of an offline space's basis columns.

    Holds R (basis matrix), the sparse A_c = R' A R and the primal load R' b.
    The first solve factors the unit-diagonal matrix D^-1/2 A_c D^-1/2 with
    SuperLU, ordered by minimum degree on its symmetric pattern and pivoting
    on the diagonal only, so the factor is the LDL' of an SPD matrix.  A
    factorization that is exactly singular, would pivot off the diagonal, or
    has a pivot at most dim * eps means A_c is not SPD and raises
    RankDeficientBasis.  Each solve is refined with residuals in extended
    precision to a relative residual of 1e-12.
    """

    def __init__(self, space, A, b):
        self.space = space
        self.R = space.basis_matrix()
        self.matrix = (self.R.T @ (A @ self.R)).tocsc()
        self.dim = space.total_dofs
        self.load = self.R.T @ b
        diag = self.matrix.diagonal()
        if np.any(diag <= 0):
            raise RankDeficientBasis("coarse stiffness has a nonpositive diagonal entry")
        self._scale = np.sqrt(diag)
        self._factor = None
        self._matrix_ld = None

    @property
    def dense(self):
        """Always False: no coarse system is solved dense.

        Kept because the benchmark's tracer (``perfbench/tracing.py``) reads
        it to split its dense/CG system counts.
        """
        return False

    def _factorize(self):
        d = sparse.diags(1.0 / self._scale)
        scaled = (d @ self.matrix @ d).tocsc()
        try:
            factor = spla.splu(
                scaled,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError:  # SuperLU: factor is exactly singular
            factor = None
        if (
            factor is None
            or np.any(factor.perm_r != factor.perm_c)
            or factor.U.diagonal().min() <= self.dim * np.finfo(float).eps
        ):
            # report the pair of columns with the largest normalized inner product
            upper = sparse.triu(scaled, k=1, format="coo")
            k = int(np.argmax(np.abs(upper.data)))
            p, q = int(upper.row[k]), int(upper.col[k])
            raise RankDeficientBasis(
                f"coarse stiffness is not SPD; most collinear columns {p} and {q} "
                f"(normalized inner product {upper.data[k]:.6f})",
                columns=(p, q),
            )
        return factor

    def solve(self, rhs):
        """Solve A_c c = rhs to 1e-12 relative residual; attach R c.

        Refinement residuals are accumulated in extended precision so the
        contract stays verifiable at high contrast, where float64 evaluation
        noise of A_c @ c alone can exceed it.
        """
        rhs = np.asarray(rhs, dtype=float)
        if np.linalg.norm(rhs) == 0.0:
            return CoarseSolution(np.zeros(self.dim), np.zeros(self.R.shape[0]), self.space)
        if self._factor is None:
            self._factor = self._factorize()
            self._matrix_ld = self.matrix.astype(np.longdouble)
        c = self._factor.solve(rhs / self._scale).astype(np.longdouble) / self._scale
        c = _refine(
            lambda resid: self._factor.solve(resid / self._scale) / self._scale,
            self._matrix_ld,
            rhs,
            c,
            COARSE_RTOL,
            10,
            f"coarse solve (dim {self.dim})",
        )
        return CoarseSolution(c, self.R @ c, self.space)


def assemble_coarse(space, A, b):
    """Couple the basis into the global form: A_c = R' A R, b_c = R' b."""
    return CoarseSystem(space, A, b)


def solve_primal(system):
    """Multiscale solution of the primal problem in the system's space."""
    return system.solve(system.load)


def solve_dual(system, g_load):
    """Multiscale dual solution; same matrix (symmetric form), goal load.

    ``g_load`` is the fine-grid load vector of the goal functional.
    """
    return system.solve(system.R.T @ np.asarray(g_load, dtype=float))


def truncate_solution(sol, counts):
    """Project a solution onto the per-neighborhood leading ``counts`` columns.

    Idempotent by construction: coefficients beyond the kept prefix are zeroed
    and the fine representation recomputed.
    """
    space = sol.space
    counts = np.asarray(counts, dtype=int)
    coeffs = sol.coefficients.copy()
    for i in range(space.n_neighborhoods):
        sl = space.column_slice(i)
        keep = min(int(counts[i]), int(space.counts[i]))
        coeffs[sl.start + keep : sl.stop] = 0.0
    return CoarseSolution(coeffs, space.basis_matrix() @ coeffs, space)
