"""Offline multiscale space: partition of unity, snapshots, local spectra, basis.

The offline pipeline per neighborhood omega_i is

  1. coefficient-harmonic partition of unity chi_i with hat traces on coarse
     element edges, solved on all coarse elements at once with the blocks of
     their patch stiffness, which fine_fem.PatchMatrices gathers over the
     width-1 layout of mesh.Neighborhoods (compute_partition_of_unity),
  2. the spectral weight kappa * sum_i H^2 |grad chi_i|^2 feeding the local
     mass matrix (compute_spectral_weight),
  3. harmonic snapshots, one per vertex of the patch rim, solved with the
     neighborhood's block of the one stacked banded Cholesky factor of all
     zero-trace operators that the exact dual norms share, (2r+1) * N * m
     doubles for N neighborhoods of m interior vertices (compute_snapshots);
     their right-hand sides are gathered from the patch stiffnesses, which
     fine_fem assembles for all N patches at once as (N, nnz) values on one
     CSR pattern (fine_fem.PatchMatrices),
  4. the generalized eigenproblem A_off Psi = lambda S_off Psi in snapshot
     coordinates with all eigenpairs retained (local_spectral_decomposition),
  5. basis candidates chi_i * (snapshots @ Psi_k), ordered by ascending
     eigenvalue (build_basis).  chi_i vanishes on the patch rim, so only
     the m = (2r-1)^2 patch interior values of each candidate are stored,
     as one contiguous row.
     Each neighborhood fills its block of the candidate array, its
     eigenvalue row and its jitter as soon as its eigensolve returns; its
     snapshots and eigenvectors are then dropped, so the offline stage
     holds at most one snapshot block per worker (workers.fill_queued),
     and the space is these three arrays.  All patches are translates of
     one block, whose layout mesh.Neighborhoods holds once (its rim has
     L = 8r vertices), so candidate k of neighborhood i is entry (i, k) of
     one N x L grid, and an OfflineSpace is the mask k < counts[i] on it.
     Enrichment and extension only ever stop a count at a cluster boundary:
     eigenvalues whose relative gap is at most CLUSTER_TOL are one cluster,
     and LAPACK returns an arbitrary basis of a tied eigenspace, so a count
     that splits a cluster would not be a well-defined space (homogeneous
     patches tie lambda_2 = lambda_3 by symmetry).
"""

import copy
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from . import mesh, workers
from .csvout import write_csv
from .fine_fem import CoefficientField, _check_field, patch_stiffness

__all__ = [
    "OfflineFailure",
    "PartitionOfUnity",
    "NeighborhoodSpectrum",
    "OfflineSpace",
    "compute_partition_of_unity",
    "compute_spectral_weight",
    "compute_snapshots",
    "local_spectral_decomposition",
    "build_basis",
    "enrich",
    "dump_spectra",
]

# Tolerance for the pointwise bounds 0 <= chi <= 1 and the sum-to-one check.
POU_TOL = 1e-8
# Neighboring eigenvalues with lambda_{k+1} - lambda_k <= CLUSTER_TOL *
# max(|lambda_k|, |lambda_{k+1}|) are one cluster.  Symmetric ties come out of
# LAPACK with relative gaps near 1e-13; distinct eigenvalues of the benchmark
# media are at least 1e-4 apart.
CLUSTER_TOL = 1e-8


class OfflineFailure(RuntimeError):
    """A neighborhood's local spectral problem could not be solved."""


class PartitionOfUnity:
    """Coefficient-harmonic partition functions, one per interior coarse vertex.

    ``patches[i]`` holds the nodal values of chi_i over its neighborhood patch
    (row-major patch-local order, at the fine vertex ids
    ``neighborhoods.vertices[i]``); chi_i vanishes on the patch rim and
    outside.  The grid is that of the neighborhoods.
    """

    def __init__(self, neighborhoods, patches):
        self.grid = neighborhoods.grid
        self.neighborhoods = neighborhoods
        self.patches = patches

    def sum_values(self):
        """Nodal values of sum_i chi_i over the whole fine grid."""
        out = np.zeros(self.grid.n_vertices)
        np.add.at(out, self.neighborhoods.vertices, self.patches)
        return out

    def covered_vertex_ids(self):
        """Fine vertices where the interior-vertex partition sums to one.

        That is the closed block [H, 1-H]^2: closer to the outer boundary the
        missing boundary-vertex hats leave a deficit.
        """
        grid = self.grid
        n = grid.nf + 1
        idx = np.arange(grid.r, grid.nf - grid.r + 1)
        ix, iy = np.meshgrid(idx, idx)
        return (iy * n + ix).ravel()


def _element_hat_values(r):
    """Bilinear corner hats on the (r+1)^2 subgrid of one coarse element.

    Column c is the hat of corner (a, b) with c = a + 2*b; its trace on the
    element edges is the linear edge data of the partition functions.
    """
    t = np.arange(r + 1) / r
    xi = np.tile(t, r + 1)
    eta = np.repeat(t, r + 1)
    return np.column_stack(
        [(1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta]
    )


def compute_partition_of_unity(grid, field):
    """Solve the element-wise harmonic problems defining the partition functions.

    On each coarse element the four corner functions satisfy the discrete
    zero-source equation with the hat trace as Dirichlet data, all solved at
    once with the [interior][:, interior] and [interior][:, rim] blocks of
    the patch stiffness over the coarse elements (patches one coarse cell
    wide); the pieces are stitched over each interior vertex's four elements.
    Pointwise bounds outside [0 - tol, 1 + tol] are warned about, not fatal.
    The result's ``neighborhoods`` are the problem's one coarse-neighborhood
    layout (mesh.all_neighborhoods), which the rest of the offline stage uses.
    """
    nc, r = grid.nc, grid.r
    p, m = 2 * r + 1, r + 1
    # element (ex, ey) is patch ey * nc + ex, its (r+1)^2 vertices row-major
    elements = patch_stiffness(field, mesh.Neighborhoods(grid, width=1))
    interior, rim = elements.neighborhoods.interior, elements.neighborhoods.rim
    hats = _element_hat_values(r)
    A_ii, A_ib = elements.dense_block("interior"), elements.dense_block("rim")
    sol = np.repeat(hats[None], nc * nc, axis=0)
    sol[:, interior] = np.linalg.solve(A_ii, -A_ib @ hats[rim])

    # Neighborhood (ci, cj) is corner (1 - a, 1 - b) of its element
    # (ci - 1 + a, cj - 1 + b), which covers the patch block at offset (a*r, b*r).
    # Blocks overlap only on element edges, where both carry the hat trace.
    cj, ci = np.divmod(np.arange(grid.n_interior_coarse), nc - 1)
    patches = np.zeros((grid.n_interior_coarse, p, p))
    for b in (0, 1):
        for a in (0, 1):
            pieces = sol[(cj + b) * nc + ci + a, :, (1 - a) + 2 * (1 - b)]
            patches[:, b * r : b * r + m, a * r : a * r + m] = pieces.reshape(-1, m, m)
    patches = patches.reshape(-1, p * p)

    low, high = patches.min(), patches.max()
    if low < -POU_TOL or high > 1.0 + POU_TOL:
        warnings.warn(
            f"partition function values leave [0, 1]: min {low:.3e}, max {high:.3e}",
            RuntimeWarning,
        )
    return PartitionOfUnity(mesh.all_neighborhoods(grid), patches)


def compute_spectral_weight(field, pu):
    """Per-cell weight kappa * sum_i H^2 |grad chi_i|^2 for the local mass
    matrices, on the grid of ``pu``.  Gradients of the Q1 interpolant are
    evaluated at cell midpoints (one-point rule), consistent with
    cellwise-constant coefficients."""
    grid = pu.grid
    _check_field(grid, field)
    nf, h = grid.nf, grid.h
    p = 2 * grid.r + 1
    v = pu.patches.reshape(-1, p, p)
    gx = ((v[:, :-1, 1:] + v[:, 1:, 1:]) - (v[:, :-1, :-1] + v[:, 1:, :-1])) / (2 * h)
    gy = ((v[:, 1:, :-1] + v[:, 1:, 1:]) - (v[:, :-1, :-1] + v[:, :-1, 1:])) / (2 * h)
    cells = pu.neighborhoods.cells
    sumsq = np.zeros(nf * nf)
    np.add.at(sumsq, cells, (gx**2 + gy**2).reshape(cells.shape))
    return CoefficientField(field.values * grid.H**2 * sumsq.reshape(nf, nf))


def compute_snapshots(patch_A, i, zero_trace):
    """Harmonic snapshots of neighborhood i, one column per rim vertex.

    Column j solves the zero-source problem of neighborhood i's patch
    stiffness (``patch_A`` is the PatchMatrices of fine_fem.patch_stiffness)
    with nodal data 1 at the j-th vertex of the shared patch rim
    ``neighborhoods.rim`` (ascending id order) and 0 at the others.  The
    interior block of the patch stiffness is the neighborhood's zero-trace
    operator, and ``zero_trace`` is the exact-mode
    indicators.ResidualNormCache built from ``patch_A``: its ``solve(i, ...)``
    uses the neighborhood's slice of the stacked banded Cholesky factor, so
    the offline stage factors nothing itself.  The right-hand sides are the
    interior-rim block of the patch stiffness, gathered from its stored
    values through one index map that all patches share.  Returned as a
    dense (patch_size, L) array in patch-local ordering.
    """
    neighborhoods = patch_A.neighborhoods
    interior, rim = neighborhoods.interior, neighborhoods.rim
    snapshots = np.zeros((patch_A.shape[0], len(rim)))
    snapshots[rim, np.arange(len(rim))] = 1.0
    snapshots[interior] = zero_trace.solve(i, -patch_A.dense_block("rim", i))
    return snapshots


class NeighborhoodSpectrum:
    """All eigenpairs of one neighborhood's spectral problem, ascending.

    ``eigenvectors`` are S_off-orthonormal and live in snapshot coordinates;
    fine-grid representatives are ``snapshots @ eigenvectors``.  ``jitter`` is
    the diagonal shift added to S_off if it was numerically indefinite.
    local_spectral_decomposition returns one; OfflineSpace.spectra builds
    them from its arrays, with ``snapshots`` and ``eigenvectors`` None.
    """

    def __init__(self, vertex_id, snapshots, eigenvalues, eigenvectors, jitter=0.0):
        self.vertex_id = vertex_id
        self.snapshots = snapshots
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self.jitter = jitter

    @property
    def n_snapshots(self):
        return len(self.eigenvalues)


def local_spectral_decomposition(vertex_id, patch_A, patch_S, snapshots):
    """Solve the symmetric-definite pencil in snapshot coordinates.

    ``patch_A`` and ``patch_S`` must be assembled over the neighborhood's own
    cells (``matrix(vertex_id)`` of fine_fem.patch_stiffness and
    patch_weighted_mass) so that the stiffness side annihilates constants and
    the smallest eigenvalue is zero up to roundoff.  S_off is shifted by
    ``jitter`` = 1e-12 * tr(S_off) / L when its smallest eigenvalue lies below
    that floor, which one Cholesky factorization of S_off - floor * I
    decides.  A pencil LAPACK cannot solve, or one that is not finite,
    raises OfflineFailure.
    """
    A_off = snapshots.T @ (patch_A @ snapshots)
    S_off = snapshots.T @ (patch_S @ snapshots)
    A_off = 0.5 * (A_off + A_off.T)
    S_off = 0.5 * (S_off + S_off.T)

    L = S_off.shape[0]
    floor = 1e-12 * np.trace(S_off) / L
    potrf, sygvd = scipy.linalg.get_lapack_funcs(("potrf", "sygvd"), (S_off,))
    jitter = 0.0
    # the Cholesky factorization of S_off - floor * I fails iff lambda_min(S_off) < floor
    if potrf(S_off - floor * np.eye(L), lower=True, overwrite_a=True, clean=False)[1] != 0:
        jitter = floor
    mass = S_off + jitter * np.eye(L) if jitter else S_off
    # the LAPACK driver and arguments scipy.linalg.eigh(A_off, mass) takes
    eigenvalues, eigenvectors, info = sygvd(A_off, mass, itype=1, jobz="V", uplo="L")
    if info != 0 or not np.isfinite(eigenvalues).all():
        if not (np.isfinite(A_off).all() and np.isfinite(S_off).all()):
            raise OfflineFailure(f"neighborhood {vertex_id}: local spectral problem is not finite")
        smallest = scipy.linalg.eigvalsh(S_off)[0]
        raise OfflineFailure(
            f"neighborhood {vertex_id}: local mass matrix numerically "
            f"indefinite (smallest Ritz value {smallest:.3e})"
        )
    return NeighborhoodSpectrum(vertex_id, snapshots, eigenvalues, eigenvectors, jitter)


class OfflineSpace:
    """Global multiscale space: the mask k < counts[i] on the N x L candidate grid.

    ``candidates[i, k]`` is candidate k of neighborhood i (chi_i times an
    eigenvector representative) on the patch interior, one contiguous row of
    the (N, L, m) array: it holds the m rows ``neighborhoods.interior``, at
    the fine vertex ids ``neighborhoods.interior_vertices[i]``, and leaves
    out the rim, where chi_i vanishes.  ``eigenvalues[i, k]`` is its
    eigenvalue, ``jitter[i]`` neighborhood i's mass shift, and
    ``cluster_ends[i, c]`` the smallest count >= c that does not split a
    cluster of tied eigenvalues (see CLUSTER_TOL).  The three arrays are
    kept as given (build_basis passes those its fill writes), and every
    basis matrix is a gather of the candidate rows (basis_columns).  Global
    columns are the selected candidates in ascending number i * L + k, so
    enrichment keeps earlier columns as a prefix within every neighborhood.
    Instances are immutable; with_counts, enrich and extended return new ones
    sharing the grid's arrays.  The grid and the neighborhoods are those of
    the partition of unity ``pu``.
    """

    def __init__(self, pu, eigenvalues, jitter, candidates, counts):
        self.grid = pu.grid
        self.neighborhoods = neighborhoods = pu.neighborhoods
        self.pu = pu
        self.n_neighborhoods = N = len(neighborhoods)
        self.n_candidates = L = len(neighborhoods.rim)
        m = len(neighborhoods.interior)
        shapes = {"eigenvalues": (N, L), "jitter": (N,), "candidates": (N, L, m)}
        for name, array in zip(shapes, (eigenvalues, jitter, candidates)):
            if np.shape(array) != shapes[name]:
                raise ValueError(f"{name} must have shape {shapes[name]}, got {np.shape(array)}")
        self.eigenvalues = lam = np.asarray(eigenvalues)
        self.jitter = np.asarray(jitter)
        self.candidates = np.asarray(candidates)
        tied = np.diff(lam, axis=1) <= CLUSTER_TOL * np.maximum(abs(lam[:, :-1]), abs(lam[:, 1:]))
        # count c splits a cluster iff lambda_c and lambda_{c+1} are tied
        ends = np.where(np.pad(tied, ((0, 0), (1, 1))), L, np.arange(L + 1))
        self.cluster_ends = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1]
        self._select(counts)

    @property
    def spectra(self):
        """One NeighborhoodSpectrum per neighborhood, built from the arrays:
        vertex id, eigenvalues and jitter, with ``snapshots`` and
        ``eigenvectors`` None.  The program does not read it; it stays only
        for the benchmark's checks (perfbench/checks.py)."""
        return [
            NeighborhoodSpectrum(i, None, lam, None, float(jitter))
            for i, (lam, jitter) in enumerate(zip(self.eigenvalues, self.jitter))
        ]

    def _select(self, counts):
        counts, n = np.asarray(counts), self.n_neighborhoods
        if counts.dtype.kind not in "iu":
            raise ValueError(f"basis counts must be integers, got dtype {counts.dtype}")
        if counts.shape != (n,):
            raise ValueError(f"basis counts must be N = {n} integers, got shape {counts.shape}")
        if np.any(counts < 1) or np.any(counts > self.n_candidates):
            raise ValueError("basis counts must satisfy 1 <= l_i <= L")
        self.counts = counts.astype(int)
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)])
        self.total_dofs = int(self.offsets[-1])

    @property
    def saturated(self):
        """Mask of neighborhoods whose snapshot spectrum is fully used."""
        return self.counts >= self.n_candidates

    def candidate_numbers(self, stop, start=0):
        """Numbers i * L + k of the candidates start[i] <= k < stop[i], ascending."""
        k = np.arange(self.n_candidates)
        return np.flatnonzero((k >= np.reshape(start, (-1, 1))) & (k < np.reshape(stop, (-1, 1))))

    def basis_columns(self, stop, start=0):
        """Sparse CSC matrix of the candidates start[i] <= k < stop[i] of every
        neighborhood, one column each in ascending candidate number.

        Each column is a gather of one candidate row and stores the interior
        vertices of its patch in ascending order; the rim, where chi_i
        vanishes, is left out.  The row indices and ``indptr`` are int32, so
        scipy takes them as they are.
        """
        i, k = np.divmod(self.candidate_numbers(stop, start), self.n_candidates)
        indptr = np.arange(len(i) + 1, dtype=np.int32) * self.candidates.shape[2]
        # take: twice as fast as fancy indexing on these int32 rows
        rows = self.neighborhoods.interior_vertices.take(i, axis=0)
        return sparse.csc_matrix(
            (self.candidates[i, k].ravel(), rows.ravel(), indptr),
            shape=(self.grid.n_vertices, len(i)),
        )

    def with_counts(self, counts):
        space = copy.copy(self)
        space._select(counts)
        return space

    def _whole_clusters(self, counts):
        """``counts`` (clipped at L) rounded up to the ends of their clusters."""
        counts = np.minimum(counts, self.n_candidates)
        return self.cluster_ends[np.arange(self.n_neighborhoods), counts]

    def extended(self, m):
        """Space with at least m extra eigenfunctions per neighborhood
        (clipped at L).

        Each count is rounded up to the end of its cluster of tied
        eigenvalues, so the extended space does not depend on the basis
        LAPACK picked inside a degenerate eigenspace.
        """
        if mesh._check_integer("extension width", m) < 0:
            raise ValueError("extension width must be >= 0")
        return self.with_counts(self._whole_clusters(self.counts + m))


def build_basis(pu, spectrum):
    """Assemble the offline space chi_i * psi_k^off, one function per neighborhood.

    ``spectrum(i)`` computes neighborhood i's spectrum, with its snapshots
    and eigenvectors, for each i in range(N).  Each result fills its
    block of the candidate array, row k the patch interior values of
    chi_i * (snapshots @ eigenvectors[:, k]), its eigenvalue row and its
    jitter, and is then dropped; the space is built from these three arrays.

    The neighborhoods are independent, so workers.fill_queued fills them on
    one worker per CPU into shared arrays; the outputs and any error are
    bitwise those of a serial fill, which ``taskset -c 0`` gives.
    """
    neighborhoods = pu.neighborhoods
    interior, L = neighborhoods.interior, len(neighborhoods.rim)
    N, m = len(neighborhoods), len(interior)
    candidates, eigenvalues, jitter = workers.shared_arrays((N, L, m), (N, L), (N,))

    def fill(i):
        result = spectrum(i)
        if len(result.eigenvalues) != L:
            raise ValueError(
                f"neighborhood {i} has {len(result.eigenvalues)} eigenvalues, not L = {L}"
            )
        representatives = result.snapshots[interior] @ result.eigenvectors
        np.multiply(pu.patches[i][None, interior], representatives.T, out=candidates[i])
        eigenvalues[i] = result.eigenvalues
        jitter[i] = result.jitter

    workers.fill_queued(N, fill)
    return OfflineSpace(pu, eigenvalues, jitter, candidates, np.ones(N, dtype=int))


def enrich(space, marked, s=1):
    """Append the next s eigenfunctions to each marked neighborhood, completing
    the cluster of tied eigenvalues the last of them belongs to.

    A marked neighborhood gains s functions when l_i + s ends a cluster and
    more otherwise (homogeneous patches tie lambda_2 = lambda_3, so s=1 takes
    l_i from 1 to 3 there); the result never depends on the basis LAPACK
    returned for a degenerate eigenspace.  Saturated neighborhoods
    (l_i = L) are skipped; the new space's ``saturated`` mask reports them.
    Unmarked neighborhoods are unchanged.  A marked id that is not an integer
    in [0, N), and a boolean mask in place of the ids, raise a ValueError.
    """
    if mesh._check_integer("enrichment width s", s) < 1:
        raise ValueError("enrichment width s must be >= 1")
    ids = np.asarray(marked).ravel()
    if ids.dtype == bool:
        raise ValueError("marked must be neighborhood ids, not a boolean mask")
    bad = (ids < 0) | (ids >= space.n_neighborhoods) | (ids != np.floor(ids))
    if bad.any():
        raise ValueError(f"marked id {ids[bad][0]} names no neighborhood of the space")
    ids = ids.astype(int)
    counts = space.counts.copy()
    counts[ids] = space._whole_clusters(counts + s)[ids]
    return space.with_counts(counts)


def dump_spectra(space, path):
    """Write the eigenvalues of ``space`` as CSV (vertex_id, k, lambda_k)."""
    rows = ((i, k, lam) for i, row in enumerate(space.eigenvalues) for k, lam in enumerate(row, 1))
    write_csv(path, ["vertex_id", "k", "lambda"], rows)
