"""Per-neighborhood error indicators for the three enrichment strategies.

All three indicators start from the fine-grid residual rho = b - A u of a
coarse solution:

  standard   eta_i^2 = ||R_i^u||^2 / lambda_{l_i+1}
  goal_h1    eta_i^2 = ||R_i^z|| * ||R_i^u|| / lambda_{l_i+1}
  goal_dwr   eta_i^2 = | rho . (P_i(z_enrich) - pi(P_i(z_enrich))) |

where ||.|| is the dual norm over the zero-trace space of the neighborhood
and lambda_{l_i+1} the first eigenvalue whose eigenvector is excluded from
the current space.  The local residual R_i is rho restricted to the
neighborhood's interior fine vertices, exact by locality: the stencil of an
interior patch vertex never reaches outside the patch.  Each family computes
its raw eta_i^2 only; IndicatorReport zeroes saturated neighborhoods.

The zero-trace operator of a neighborhood is the interior block of its
patch stiffness, and both dual-norm modes take it from the batched patch
stiffness (fine_fem.PatchMatrices), never from the global stiffness.  The
exact dual norms share one LAPACK banded Cholesky factor of the
block-diagonal stack of all zero-trace operators, made once per problem and
(2r+1) * N * m doubles for N neighborhoods of m = (2r-1)^2 interior vertices
(about 22 MB at nc=20, r=10).  One banded solve of the stacked interior
restrictions of an iteration's residuals, made in cache-sized chunks of
neighborhoods, gives every neighborhood's norms, and the factor's column
block of one neighborhood also solves its offline snapshots.  A
problem has one dual-norm mode, chosen in adapt.build_problem, whose
snapshot mode keeps the snapshots' interior rows and drops that factor.
"""

import numpy as np
import scipy.linalg

from .csvout import write_csv

__all__ = [
    "DUAL_NORM_MODES",
    "IndicatorReport",
    "ResidualNormCache",
    "fine_residual",
    "eta_standard",
    "eta_goal_h1",
    "eta_dwr",
    "dump_indicators",
]

DUAL_NORM_MODES = ("exact", "snapshot")
# Bytes of stacked factor per chunk of the exact-mode solve: a chunk of about
# 1 MiB (17 neighborhoods at r=10) stays in cache for all its right-hand sides.
_CHUNK_BYTES = 1 << 20


class IndicatorReport:
    """Per-neighborhood eta_i^2 of one strategy on ``space``, the OfflineSpace
    they were computed on.  Of ``space`` it keeps no reference, only two
    arrays of N values: ``counts``, its l_i (the space's own array), and
    ``lambda_next``, its weights lambda_{l_i+1} (NaN where saturated), so a
    kept report pins none of its problem's offline arrays.  eta_i^2 is
    zeroed where ``space`` is saturated, whatever the raw value; ``signed``
    holds the pre-absolute DWR pairings."""

    def __init__(self, strategy, space, eta_sq, signed=None):
        eta_sq = np.where(space.saturated, 0.0, np.asarray(eta_sq, dtype=float))
        if not np.all(np.isfinite(eta_sq)) or np.any(eta_sq < 0):
            raise ValueError("indicator values must be finite and nonnegative")
        self.strategy = strategy
        self.counts = space.counts
        self.lambda_next = _lambda_weights(space)
        self.eta_sq = eta_sq
        self.signed = signed

    @property
    def total(self):
        return float(self.eta_sq.sum())


def fine_residual(A, load, u):
    """Global fine-grid residual b - A u of the nodal vector ``u``."""
    return load - A @ u


class ResidualNormCache:
    """Dual norms ||R_i||_{V_i*} of local residuals, with per-neighborhood data
    computed once.

    Built from ``patch_A``, the PatchMatrices of fine_fem.patch_stiffness,
    whose interior blocks are the zero-trace operators; no reference to it
    is kept.  Each mode has one formula, ``_norms``: ``norm(i, .)`` is its
    entry i, bitwise the entry of ``norms`` that the loop marks on.

    Without ``zero_trace_parts`` the cache is in exact mode (``mode`` reads
    'exact'), and returns ||w||_a of the solution of a(w, v) = R(v) on the
    zero-trace space.  With the interiors numbered row-major one after
    another, the block-diagonal stack of the zero-trace operators is banded
    with half-bandwidth u = 2r; ``patch_A.interior_band()`` gathers it, and
    one LAPACK banded Cholesky factors all N blocks at once.  The factor is
    kept in upper band storage, (u+1) * N * m doubles for m interior vertices
    per patch (about 22 MB at nc=20, r=10).  The Cholesky factor of a
    block-diagonal matrix is block-diagonal, so the columns of block i are
    neighborhood i's own banded factor: ``solve(i, rhs)`` solves with it
    for the offline snapshots (ms_space.compute_snapshots), and ``norms``
    solves with the whole stack, chunk by chunk, for all its residuals.

    Given ``zero_trace_parts`` it is in snapshot mode, and solves that
    problem in the span of the zero-trace parts T_i of the snapshots, which
    can only give a smaller value (subspace inequality), with each gram
    T_i' A_i T_i of the interior block A_i (``patch_A.interior_block(i)``)
    pseudo-inverted once at lstsq's default cutoff L * eps.
    ``zero_trace_parts`` is the (N, m, L) stack of the T_i, the interior
    rows of the snapshot blocks (ms_space.compute_snapshots); in snapshot
    mode build_problem's ``spectrum`` closure copies each block into it as
    it is solved during the offline pass, and it is kept as given.
    """

    def __init__(self, patch_A, zero_trace_parts=None):
        self.mode = "exact" if zero_trace_parts is None else "snapshot"
        neighborhoods = patch_A.neighborhoods
        # intp: numpy converts an int32 index array at every gather
        self._stacked = neighborhoods.interior_vertices.ravel().astype(np.intp)
        self._block = neighborhoods.interior_vertices.shape[1]
        if zero_trace_parts is None:
            self._factor = scipy.linalg.cholesky_banded(patch_A.interior_band(), overwrite_ab=True)
            (self._pbtrs,) = scipy.linalg.get_lapack_funcs(("pbtrs",), (self._factor,))
            return
        self._T = np.asarray(zero_trace_parts)
        if self._T.shape != neighborhoods.interior_vertices.shape + (len(neighborhoods.rim),):
            raise ValueError(f"zero-trace parts must be (N, m, L), got shape {self._T.shape}")
        grams = np.stack([T.T @ (patch_A.interior_block(i) @ T) for i, T in enumerate(self._T)])
        grams = 0.5 * (grams + grams.swapaxes(1, 2))
        self._pinv = np.linalg.pinv(grams, rcond=grams.shape[-1] * np.finfo(float).eps)

    def solve(self, i, rhs):
        """Solve neighborhood i's zero-trace system for one or more right-hand
        sides (exact mode only)."""
        if self.mode != "exact":
            raise ValueError("only an exact-mode cache can solve; this one is in snapshot mode")
        m = self._block
        return self._pbtrs(self._factor[:, i * m : (i + 1) * m], rhs)[0]

    def norm(self, i, rho):
        """Dual norm of the local residual ``rho`` over neighborhood i, entry i
        of ``norms`` of a residual that is zero outside its interior.  The
        loop calls ``norms``; this form is kept for the tests and for the
        benchmark's tracer (``perfbench/tracing.py``), which wraps it by name.
        """
        local = np.zeros((1, len(self._stacked)))
        local[0, i * self._block : (i + 1) * self._block] = rho
        return float(self._norms(local)[i, 0])

    def norms(self, rho):
        """Dual norms of the global residual ``rho`` over every neighborhood:
        (N,) for an (n,) residual, (N, k) for the k residuals in the columns
        of an (n, k) one, each column as its own (n,) call gives it."""
        local = np.reshape(rho, (len(rho), -1)).T.take(self._stacked, axis=1)  # C-ordered
        out = self._norms(local)
        return out if np.ndim(rho) > 1 else out[:, 0]

    def _norms(self, local):
        """(N, k) norms of the C-ordered (k, N * m) interior restrictions."""
        k = len(local)
        if self.mode == "exact":
            # local and the solution are both C-ordered (k, N * m), so each
            # neighborhood's products are summed along one contiguous row
            squares = (local * self._stacked_solve(local.T).T).reshape(k, -1, self._block).sum(2)
        else:
            rhs = local.reshape(k, -1, 1, self._block) @ self._T
            squares = (rhs * (rhs @ self._pinv.swapaxes(1, 2))).sum((2, 3))  # rhs_i pinv_i rhs_i'
        return np.sqrt(np.maximum(squares, 0.0)).T

    def _stacked_solve(self, b):
        """Solve the stacked zero-trace system for the (N * m, k) ``b`` with
        the whole factor, in chunks of whole neighborhoods of about
        _CHUNK_BYTES of factor each.

        Each chunk's dpbtrs call starts u columns early, in the previous
        neighborhood's tail, where the factor couples nothing to the chunk.
        So every column's inner products keep the length u they have in one
        call over the whole stack, and each chunk is bitwise that call's.
        """
        u = self._factor.shape[0] - 1
        size = self._block * max(1, _CHUNK_BYTES // self._factor[:, : self._block].nbytes)
        x = np.empty_like(b, order="F")
        for start in range(0, len(b), size):
            lo, stop = max(start - u, 0), start + size
            # the factor was checked when it was made; a non-finite rho gives
            # non-finite norms, which IndicatorReport rejects
            x[start:stop] = self._pbtrs(self._factor[:, lo:stop], b[lo:stop])[0][start - lo :]
        return x


def _lambda_weights(space):
    """First excluded eigenvalue per neighborhood; NaN where saturated."""
    live = ~space.saturated
    lam = np.full(space.n_neighborhoods, np.nan)
    lam[live] = space.eigenvalues[live, space.counts[live]]
    return lam


def _inverse_weights(space):
    # 1 / lambda_{l_i+1}, NaN where saturated (IndicatorReport zeroes it there).
    # The floor guards against a nonpositive lambda from roundoff at extreme
    # contrast; it is far below any physically meaningful eigenvalue.
    return 1.0 / np.maximum(_lambda_weights(space), 1e-14 * space.eigenvalues[:, -1])


def eta_standard(space, primal_norms):
    """Residual-based indicator driving energy-error reduction."""
    eta_sq = np.asarray(primal_norms, dtype=float) ** 2 * _inverse_weights(space)
    return IndicatorReport("standard", space, eta_sq)


def eta_goal_h1(space, primal_norms, dual_norms):
    """Product indicator of primal and dual residual norms (same space)."""
    primal_norms = np.asarray(primal_norms, dtype=float)
    dual_norms = np.asarray(dual_norms, dtype=float)
    eta_sq = primal_norms * dual_norms * _inverse_weights(space)
    return IndicatorReport("goal_h1", space, eta_sq)


def eta_dwr(space, residual, z_enrich):
    """Pair the primal residual with the enriched-dual excess per neighborhood.

    ``residual`` is the global fine residual vector of the current primal
    solution; ``z_enrich`` the dual solution in the extended space.  The
    indicator is the absolute pairing; the signed values are kept on the
    report for the global sum identity.  Each pairing is a dot product over
    the whole patch: the excess, held on the patch interior (see
    ms_space.OfflineSpace), is scattered into a zeroed patch vector first,
    since a dot over the interior rows alone sums in another order and
    changes the bits of the pairing.  The excess is the (m, l_e - l_i)
    matrix of the added candidate rows, copied to C order, times their
    coefficients: one dot product per interior vertex over the added
    candidates.  The product with the rows as stored (coefficients on the
    left) sums in another order and changes those bits too.
    """
    enriched = z_enrich.space
    if np.all(enriched.counts <= space.counts):
        raise ValueError("DWR indicator needs an enriched dual space (m >= 1)")
    neighborhoods = space.neighborhoods
    # a Python loop: the added bands have ragged widths, and each pairing is
    # summed in the order that fixes goal_dwr's marking
    signed = np.zeros(space.n_neighborhoods)
    excess = np.zeros(neighborhoods.vertices.shape[1])
    for i in range(space.n_neighborhoods):
        l_i = int(space.counts[i])
        l_e = int(enriched.counts[i])
        if l_e <= l_i:
            continue
        start = int(enriched.offsets[i])
        coeffs = z_enrich.coefficients[start + l_i : start + l_e]
        added = np.ascontiguousarray(enriched.candidates[i, l_i:l_e].T)
        excess[neighborhoods.interior] = added @ coeffs
        signed[i] = float(residual[neighborhoods.vertices[i]] @ excess)
    return IndicatorReport("goal_dwr", space, np.abs(signed), signed=signed)


def dump_indicators(reports, path):
    """Write indicator reports as CSV (iteration, vertex_id, strategy, eta_sq,
    lambda_next, l_i); a report's iteration is its position in ``reports``,
    which adapt_loop fills with one report per iteration."""
    rows = (
        (iteration, i, report.strategy, *values)
        for iteration, report in enumerate(reports)
        for i, values in enumerate(zip(report.eta_sq, report.lambda_next, report.counts))
    )
    write_csv(path, ["iteration", "vertex_id", "strategy", "eta_sq", "lambda_next", "l_i"], rows)
