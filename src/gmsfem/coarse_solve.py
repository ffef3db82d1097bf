"""Coarse coupling of the multiscale basis and primal/dual coarse solves.

Every coarse system takes one path, a banded Cholesky factorization in
candidate numbering with refinement in extended precision (see CoarseSystem).
Its matrix comes from the problem's GalerkinStore, which holds no source.
"""

import numpy as np
import scipy.sparse as sparse

from . import workers
from .fine_fem import _banded_cholesky

__all__ = [
    "CoarseSystem",
    "CoarseSolution",
    "GalerkinStore",
    "RankDeficientBasis",
    "assemble_coarse",
    "solve_primal",
    "solve_dual",
]

COARSE_RTOL = 1e-12


class RankDeficientBasis(RuntimeError):
    """The coarse stiffness is not SPD; carries the column whose pivot failed
    and the earlier column with the largest scaled coupling to it.  Where the
    dependency spans more than two columns, that pair need not be collinear."""

    def __init__(self, message, columns=None):
        super().__init__(message)
        self.columns = columns


class CoarseSolution:
    """Coefficients over the coarse dofs plus the fine-grid representation."""

    def __init__(self, coefficients, fine, space):
        self.coefficients = coefficients
        self.fine = fine
        self.space = space


class CoarseSystem:
    """Galerkin system on the span of an offline space's basis columns.

    Holds R, the basis matrix its space gathers from the candidates
    (``space.basis_columns(space.counts)``, CSC, gathered once the
    factorization has succeeded), the sparse A_c = R' A R (CSC, sorted row
    indices) as selected from a GalerkinStore, and the fine source b.
    Its columns are in candidate numbering i * L + k, where neighborhood i
    couples only with its at most 8 neighbors, so A_c is banded without any
    reordering.  The constructor factors the unit-diagonal D^-1/2 A_c D^-1/2
    with fine_fem's ``_banded_cholesky``, without pivoting, and keeps the
    refined solve it returns.  Pivot j is the squared energy distance of
    basis function j, scaled to unit energy, from the span of the ones
    numbered before it, so a factor that fails, or has a pivot at most
    dim * eps, means A_c is not SPD and the constructor raises
    RankDeficientBasis naming column j.  Each solve is refined with
    residuals in extended precision to a relative residual of 1e-12.
    """

    def __init__(self, space, matrix, source):
        self.space = space
        self.matrix = matrix
        self.dim = space.total_dofs
        self.source = source
        if np.any(self.matrix.diagonal() <= 0):
            raise RankDeficientBasis("coarse stiffness has a nonpositive diagonal entry")
        self._solve = self._factorize()
        self.R = space.basis_columns(space.counts)

    @property
    def load(self):
        """R' b, formed when read, as solve_dual forms R' g."""
        return self.R.T @ np.asarray(self.source, dtype=float)

    @property
    def dense(self):
        """Always False: no coarse system is solved dense.

        Kept because the benchmark's tracer (``perfbench/tracing.py``) reads
        it to split its dense/CG system counts.
        """
        return False

    def _factorize(self):
        """The refined solve of _banded_cholesky, or RankDeficientBasis."""
        solve, pivots, info = _banded_cholesky(self.matrix)
        # info > 0: the leading minor of order info failed, and ``pivots``
        # covers only the columns before it
        small = np.flatnonzero(pivots <= self.dim * np.finfo(float).eps)
        if info > 0 or small.size:
            j = int(small[0]) if small.size else len(pivots)
            # the earlier column with the largest scaled entry in column j
            M, inv = self.matrix, 1 / np.sqrt(self.matrix.diagonal())
            lo, hi = M.indptr[j], M.indptr[j + 1]
            earlier = M.indices[lo:hi] < j
            rows = M.indices[lo:hi][earlier]
            scaled = M.data[lo:hi][earlier] * inv[rows] * inv[j]
            k = int(np.argmax(np.abs(scaled)))
            p = int(rows[k])
            raise RankDeficientBasis(
                f"coarse stiffness is not SPD at column {j}; the earlier column with "
                f"the largest scaled coupling to it is {p} ({scaled[k]:.6f})",
                columns=(p, j),
            )
        return solve

    def solve(self, rhs):
        """Solve A_c c = rhs to 1e-12 relative residual; attach R c.

        Refinement residuals are accumulated in extended precision so the
        contract stays verifiable at high contrast, where float64 evaluation
        noise of A_c @ c alone can exceed it.
        """
        rhs = np.asarray(rhs, dtype=float)
        c = self._solve(rhs, COARSE_RTOL, 10, f"coarse solve (dim {self.dim})")
        return CoarseSolution(c, self.R @ c, self.space)


class GalerkinStore:
    """Grow-only Galerkin data of one problem; every coarse system is a
    selection from it.

    Every offline space of a problem is a mask on one fixed N x L candidate
    grid, so its R'AR is a row/column selection of one matrix that only
    grows; candidates are numbered by OfflineSpace.candidate_numbers.  The
    store holds the leading ``have[i]`` candidates of every neighborhood,
    each computed once, when a requested space first needs it: its column
    of A R, in the order they were computed (``number`` maps that position
    to its candidate number), and its row and column of the coupling
    G = R'AR.  It holds no source, so it serves every source.  Nor does it
    hold a basis matrix: the candidate array of its space, read through the
    space's row map, is the one copy of the basis, and each growth and each
    CoarseSystem gathers the columns it needs from it
    (OfflineSpace.basis_columns).  G is a T x T matrix in
    candidate numbering, T = N * L, whose rows and columns are empty where a
    candidate is not yet held, so a growth only fills empty rows and
    columns, and a space's matrix is its candidates' rows and columns in
    ascending number, which come out sorted.  That order keeps each
    neighborhood's columns next to its neighbors', so CoarseSystem factors
    the selection as a band without reordering.  The full candidate set is
    never formed.

    Entry (p, q) of G is the sum over fine vertices v, in ascending order, of
    R[v, p] * (A R)[v, q], exactly as the sparse product of a space's own
    basis matrix forms it, so each selection is bitwise equal to that
    one-shot R'AR.  Both halves of G come from such products: R'AR is not
    bitwise symmetric, so neither is filled in by transposing the other.
    A basis column stores only its patch interior, so the rim zeros of chi_i
    add no term to these sums; its column of A R still covers the whole patch.
    """

    def __init__(self, space, A):
        self.space = space
        self.A = A
        self.have = np.zeros(space.n_neighborhoods, dtype=int)
        self.number = np.empty(0, dtype=int)
        self.AR = sparse.csc_matrix((space.grid.n_vertices, 0))
        self.G = sparse.csc_matrix((space.n_neighborhoods * space.n_candidates,) * 2)

    def _grow(self, counts):
        """Compute the candidates of ``counts`` that the store does not hold."""
        need = np.maximum(self.have, counts)
        if np.array_equal(need, self.have):
            return
        new = self.space.candidate_numbers(need, self.have)
        R_new = self.space.basis_columns(need, self.have)

        def here():
            # R_new' A reads only R_new's rows of A; A is bitwise symmetric,
            # so its transpose, indices sorted, is bitwise (A R_new).tocsc().
            # Then G[p, q] for every held p and new q, rows in candidate order
            AR_new = R_new.T @ self.A
            AR_new.sort_indices()
            AR_new = AR_new.T
            return AR_new, (self.space.basis_columns(need).T @ AR_new).tocoo()

        # the helper thread forms G[p, q] for new p and old q at (q, p), the
        # short half, while this thread gathers every held column (workers.split)
        (AR_new, upper), lower = workers.split(here, lambda: (self.AR.T @ R_new).tocoo())
        self.have = need
        self.number = np.concatenate([self.number, new])
        self.AR = sparse.hstack([self.AR, AR_new], format="csc")
        # the new entries lie in rows or columns of new candidates, where G is
        # empty, and sparse products store no exact zeros: the sum is exact
        rows = np.concatenate([self.space.candidate_numbers(need)[upper.row], new[lower.col]])
        cols = np.concatenate([new[upper.col], self.number[lower.row]])
        data = np.concatenate([upper.data, lower.data])
        self.G = self.G + sparse.csc_matrix((data, (rows, cols)), shape=self.G.shape)

    def system(self, space, source):
        """The CoarseSystem of ``space`` and ``source``, grown to its counts.

        ``space`` must share the store's candidate array and row map, the
        whole offline stage the store was grown from."""
        if space.candidates is not self.space.candidates or space.row is not self.space.row:
            raise ValueError("space was not built from this store's candidates and row map")
        self._grow(space.counts)
        numbers = space.candidate_numbers(space.counts)
        matrix = self.G[:, numbers][numbers, :]
        return CoarseSystem(space, matrix, source)


def assemble_coarse(space, A, b, store=None):
    """Couple the basis into the global form: A_c = R' A R, b_c = R' b.

    ``store`` is a GalerkinStore of A, for any b, to select from and grow;
    without one the system is selected from a fresh store.  The system is
    factored in this call, so a dependent basis raises RankDeficientBasis.
    """
    if store is None:
        store = GalerkinStore(space, A)
    elif store.A is not A:
        raise ValueError("the store holds another stiffness")
    return store.system(space, b)


def solve_primal(system):
    """Multiscale solution of the primal problem in the system's space."""
    return system.solve(system.load)


def solve_dual(system, g_load):
    """Multiscale dual solution; same matrix (symmetric form), goal load.

    ``g_load`` is the fine-grid load vector of the goal functional.
    """
    return system.solve(system.R.T @ np.asarray(g_load, dtype=float))

