"""Offline multiscale space: partition of unity, snapshots, local spectra, basis.

The offline pipeline per neighborhood omega_i is

  1. coefficient-harmonic partition of unity chi_i with hat traces on coarse
     element edges (compute_partition_of_unity),
  2. the spectral weight kappa * sum_i H^2 |grad chi_i|^2 feeding the local
     mass matrix (compute_spectral_weight),
  3. harmonic snapshots, one per fine boundary vertex, solved with the
     neighborhood's block of the one stacked banded Cholesky factor of all
     zero-trace operators that the exact dual norms share, (2r+1) * N * m
     doubles for N neighborhoods of m interior vertices (compute_snapshots),
  4. the generalized eigenproblem A_off Psi = lambda S_off Psi in snapshot
     coordinates with all eigenpairs retained (local_spectral_decomposition),
  5. basis candidates chi_i * (snapshots @ Psi_k), ordered by ascending
     eigenvalue (build_basis); an OfflineSpace selects a per-neighborhood
     prefix of them.  Enrichment and extension only ever stop a prefix at a
     cluster boundary: eigenvalues whose relative gap is at most CLUSTER_TOL
     are one cluster, and LAPACK returns an arbitrary basis of a tied
     eigenspace, so a prefix that splits a cluster would not be a
     well-defined space (homogeneous patches tie lambda_2 = lambda_3 by
     symmetry).
"""

import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from .csvout import write_csv
from .fine_fem import CoefficientField, Q1_STIFFNESS, _assemble
from .mesh import all_neighborhoods

__all__ = [
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


class PartitionOfUnity:
    """Coefficient-harmonic partition functions, one per interior coarse vertex.

    ``patches[i]`` holds the nodal values of chi_i over its neighborhood patch
    (row-major patch-local order); chi_i vanishes on the patch rim and outside.
    """

    def __init__(self, grid, neighborhoods, patches):
        self.grid = grid
        self.neighborhoods = neighborhoods
        self.patches = patches

    def global_function(self, i):
        """chi_i scattered into a full fine-grid nodal vector."""
        out = np.zeros(self.grid.n_vertices)
        out[self.neighborhoods[i].fine_vertices_all] = self.patches[i]
        return out

    def sum_values(self):
        """Nodal values of sum_i chi_i over the whole fine grid."""
        out = np.zeros(self.grid.n_vertices)
        for neigh, patch in zip(self.neighborhoods, self.patches):
            out[neigh.fine_vertices_all] += patch
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


def compute_partition_of_unity(grid, field, neighborhoods=None):
    """Solve the element-wise harmonic problems defining the partition functions.

    On each coarse element the four corner functions satisfy the discrete
    zero-source equation with the hat trace as Dirichlet data; the pieces are
    stitched over each interior vertex's four elements.  Pointwise bounds
    outside [0 - tol, 1 + tol] are warned about, not fatal.
    """
    if neighborhoods is None:
        neighborhoods = all_neighborhoods(grid)
    nc, r = grid.nc, grid.r
    p = 2 * r + 1
    patches = np.zeros((grid.n_interior_coarse, p * p))

    # Element-local subgrid layout: (r+1)^2 vertices, r^2 cells, row-major.
    m = r + 1
    lx = np.tile(np.arange(r), r)
    ly = np.repeat(np.arange(r), r)
    v00 = ly * m + lx
    cell_verts = np.column_stack([v00, v00 + 1, v00 + m + 1, v00 + m])
    on_rim = np.zeros(m * m, dtype=bool)
    gi = np.tile(np.arange(m), m)
    gj = np.repeat(np.arange(m), m)
    on_rim[(gi == 0) | (gi == r) | (gj == 0) | (gj == r)] = True
    interior = np.flatnonzero(~on_rim)
    rim = np.flatnonzero(on_rim)
    hats = _element_hat_values(r)

    for ey in range(nc):
        for ex in range(nc):
            kappa = field.values[ey * r : (ey + 1) * r, ex * r : (ex + 1) * r].ravel()
            A_el = _assemble(Q1_STIFFNESS, kappa, cell_verts, m * m)
            A_ii = A_el[interior][:, interior].toarray()
            A_ib = A_el[interior][:, rim].toarray()
            sol = hats.copy()
            sol[interior] = np.linalg.solve(A_ii, -A_ib @ hats[rim])

            for b in (0, 1):
                for a in (0, 1):
                    ci, cj = ex + a, ey + b
                    if not (1 <= ci <= nc - 1 and 1 <= cj <= nc - 1):
                        continue
                    vid = grid.interior_vertex_id(ci, cj)
                    ox = (1 - a) * r  # element offset inside the vertex's patch
                    oy = (1 - b) * r
                    block = sol[:, a + 2 * b].reshape(m, m)
                    patch = patches[vid].reshape(p, p)
                    patch[oy : oy + m, ox : ox + m] = block

    low, high = patches.min(), patches.max()
    if low < -POU_TOL or high > 1.0 + POU_TOL:
        warnings.warn(
            f"partition function values leave [0, 1]: min {low:.3e}, max {high:.3e}",
            RuntimeWarning,
        )
    return PartitionOfUnity(grid, list(neighborhoods), patches)


def compute_spectral_weight(grid, field, pu):
    """Per-cell weight kappa * sum_i H^2 |grad chi_i|^2 for the local mass matrices.

    Gradients of the Q1 interpolant are evaluated at cell midpoints (one-point
    rule), consistent with cellwise-constant coefficients.
    """
    nf, h = grid.nf, grid.h
    sumsq = np.zeros((nf, nf))
    for neigh, patch in zip(pu.neighborhoods, pu.patches):
        p = neigh.patch_width
        v = patch.reshape(p, p)
        gx = ((v[:-1, 1:] + v[1:, 1:]) - (v[:-1, :-1] + v[1:, :-1])) / (2 * h)
        gy = ((v[1:, :-1] + v[1:, 1:]) - (v[:-1, :-1] + v[:-1, 1:])) / (2 * h)
        x0, y0 = neigh.origin
        sumsq[y0 : y0 + p - 1, x0 : x0 + p - 1] += gx**2 + gy**2
    return CoefficientField(field.values * grid.H**2 * sumsq)


def compute_snapshots(neigh, patch_matrix, solve):
    """Harmonic snapshots of one neighborhood, one column per boundary vertex.

    Column j solves the zero-source problem of ``patch_matrix`` (the patch
    stiffness, see fine_fem.patch_stiffness) with nodal data 1 at the j-th
    fine boundary vertex (ascending id order) and 0 at the others.  The
    interior block of ``patch_matrix`` is the neighborhood's zero-trace
    operator, and ``solve`` maps a block of right-hand sides to its solutions
    with that operator; build_problem passes the neighborhood's slice of the
    stacked banded Cholesky factor (indicators.ResidualNormCache.solve), so
    the offline stage factors nothing itself.  Returned as a dense
    (patch_size, L_i) array in patch-local ordering.
    """
    interior = neigh.interior_local
    rim = neigh.boundary_local
    A_ib = patch_matrix[interior][:, rim].toarray()
    snapshots = np.zeros((len(neigh.fine_vertices_all), len(rim)))
    snapshots[rim, np.arange(len(rim))] = 1.0
    snapshots[interior] = solve(-A_ib)
    return snapshots


class NeighborhoodSpectrum:
    """All eigenpairs of one neighborhood's spectral problem, ascending.

    ``eigenvectors`` are S_off-orthonormal and live in snapshot coordinates;
    fine-grid representatives are ``snapshots @ eigenvectors``.  ``jitter`` is
    the diagonal shift added to S_off if it was numerically indefinite.
    """

    def __init__(self, vertex_id, snapshots, eigenvalues, eigenvectors, jitter=0.0):
        self.vertex_id = vertex_id
        self.snapshots = snapshots
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self.jitter = jitter
        lam = np.asarray(eigenvalues)
        tied = np.diff(lam) <= CLUSTER_TOL * np.maximum(np.abs(lam[:-1]), np.abs(lam[1:]))
        # count c splits a cluster iff lambda_c and lambda_{c+1} are tied
        ends = np.flatnonzero(np.concatenate([[True], ~tied, [True]]))
        self._cluster_ends = ends[np.searchsorted(ends, np.arange(len(lam) + 1))]

    @property
    def n_snapshots(self):
        return len(self.eigenvalues)

    def cluster_end(self, count):
        """Smallest count >= ``count`` that does not split a cluster of tied
        eigenvalues (see CLUSTER_TOL); L_i is always a cluster end."""
        return int(self._cluster_ends[count])


def local_spectral_decomposition(neigh, patch_A, patch_S, snapshots):
    """Solve the symmetric-definite pencil in snapshot coordinates.

    ``patch_A`` and ``patch_S`` must be assembled over the neighborhood's own
    cells (patch_stiffness / patch_weighted_mass) so that the stiffness side
    annihilates constants and the smallest eigenvalue is zero up to roundoff.
    """
    A_off = snapshots.T @ (patch_A @ snapshots)
    S_off = snapshots.T @ (patch_S @ snapshots)
    A_off = 0.5 * (A_off + A_off.T)
    S_off = 0.5 * (S_off + S_off.T)

    L = S_off.shape[0]
    floor = 1e-12 * np.trace(S_off) / L
    jitter = 0.0
    smallest = scipy.linalg.eigvalsh(S_off)[0]
    if smallest < floor:
        jitter = floor
        S_off = S_off + jitter * np.eye(L)
    try:
        eigenvalues, eigenvectors = scipy.linalg.eigh(A_off, S_off)
    except scipy.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"neighborhood {neigh.vertex_id}: local mass matrix numerically "
            f"indefinite (smallest Ritz value {smallest:.3e})"
        ) from exc
    return NeighborhoodSpectrum(neigh.vertex_id, snapshots, eigenvalues, eigenvectors, jitter)


class OfflineSpace:
    """Global multiscale space: per-neighborhood prefixes of basis candidates.

    ``candidates[i]`` holds all L_i modulated eigenfunctions of neighborhood i
    as patch-local columns (chi_i times the eigenvector representatives);
    ``counts[i]`` selects the leading block.  Global columns are laid out
    neighborhood-major, so enrichment keeps earlier columns as a prefix within
    every neighborhood.  Instances are immutable; enrichment returns new ones
    sharing the candidate arrays.
    """

    def __init__(self, grid, neighborhoods, pu, spectra, candidates, counts):
        counts = np.asarray(counts, dtype=int).copy()
        limits = np.array([s.n_snapshots for s in spectra])
        if np.any(counts < 1) or np.any(counts > limits):
            raise ValueError("basis counts must satisfy 1 <= l_i <= L_i")
        self.grid = grid
        self.neighborhoods = neighborhoods
        self.pu = pu
        self.spectra = spectra
        self.candidates = candidates
        self.counts = counts
        self.max_counts = limits
        self.offsets = np.concatenate([[0], np.cumsum(counts)])
        self.total_dofs = int(self.offsets[-1])
        self._basis = None

    @property
    def n_neighborhoods(self):
        return len(self.neighborhoods)

    @property
    def saturated(self):
        """Mask of neighborhoods whose snapshot spectrum is fully used."""
        return self.counts >= self.max_counts

    def column_slice(self, i):
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def basis_columns(self, start, stop):
        """Sparse CSC matrix of the candidates start[i] <= k < stop[i] of every
        neighborhood, one column each in neighborhood-major order.

        Each column stores its whole patch, in ascending vertex order and
        including the zeros of chi_i on the patch rim.
        """
        rows, data, heights = [], [], []
        for i in np.flatnonzero(stop > start):
            block = self.candidates[i][:, start[i] : stop[i]]
            verts = self.neighborhoods[i].fine_vertices_all
            rows.append(np.tile(verts, block.shape[1]))
            data.append(block.ravel(order="F"))
            heights.append(np.full(block.shape[1], len(verts)))
        heights = np.concatenate(heights)
        return sparse.csc_matrix(
            (np.concatenate(data), np.concatenate(rows), np.concatenate([[0], np.cumsum(heights)])),
            shape=(self.grid.n_vertices, len(heights)),
        )

    def basis_matrix(self):
        """Sparse (n_fine_vertices x total_dofs) CSC matrix of basis columns."""
        if self._basis is None:
            self._basis = self.basis_columns(np.zeros_like(self.counts), self.counts)
        return self._basis

    def basis_column(self, i, k):
        """Basis function k of neighborhood i as a full fine-grid vector."""
        out = np.zeros(self.grid.n_vertices)
        out[self.neighborhoods[i].fine_vertices_all] = self.candidates[i][:, k]
        return out

    def with_counts(self, counts):
        return OfflineSpace(
            self.grid, self.neighborhoods, self.pu, self.spectra, self.candidates, counts
        )

    def _whole_clusters(self, counts):
        """``counts`` (clipped at L_i) rounded up to the ends of their clusters."""
        counts = np.minimum(counts, self.max_counts)
        return np.array([s.cluster_end(c) for s, c in zip(self.spectra, counts)])

    def extended(self, m):
        """Space with at least m extra eigenfunctions per neighborhood
        (clipped at L_i).

        Each count is rounded up to the end of its cluster of tied
        eigenvalues, so the extended space does not depend on the basis
        LAPACK picked inside a degenerate eigenspace.
        """
        if m < 0:
            raise ValueError("extension width must be >= 0")
        return self.with_counts(self._whole_clusters(self.counts + m))


def build_basis(pu, spectra, counts):
    """Assemble the offline space chi_i * psi_k^off for the given counts."""
    candidates = [
        pu.patches[i][:, None] * (spectrum.snapshots @ spectrum.eigenvectors)
        for i, spectrum in enumerate(spectra)
    ]
    return OfflineSpace(pu.grid, pu.neighborhoods, pu, spectra, candidates, counts)


def enrich(space, marked, s=1):
    """Append the next s eigenfunctions to each marked neighborhood, completing
    the cluster of tied eigenvalues the last of them belongs to.

    A marked neighborhood gains s functions when l_i + s ends a cluster and
    more otherwise (homogeneous patches tie lambda_2 = lambda_3, so s=1 takes
    l_i from 1 to 3 there); the result never depends on the basis LAPACK
    returned for a degenerate eigenspace.  Saturated neighborhoods
    (l_i = L_i) are skipped; the new space's ``saturated`` mask reports them.
    Unmarked neighborhoods are unchanged.
    """
    if s < 1:
        raise ValueError("enrichment width s must be >= 1")
    counts = space.counts.copy()
    marked = np.asarray(marked, dtype=int)
    if marked.size:
        counts[marked] = space._whole_clusters(counts + s)[marked]
    return space.with_counts(counts)


def dump_spectra(spectra, path):
    """Write per-neighborhood eigenvalues as CSV (vertex_id, k, lambda_k)."""
    rows = ((sp.vertex_id, k, lam) for sp in spectra for k, lam in enumerate(sp.eigenvalues, 1))
    write_csv(path, ["vertex_id", "k", "lambda"], rows)
