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
interior patch vertex never reaches outside the patch.
"""

import numpy as np
import scipy.sparse.linalg as spla

from .fine_fem import local_operator

__all__ = [
    "IndicatorReport",
    "ResidualNormCache",
    "fine_residual",
    "eta_standard",
    "eta_goal_h1",
    "eta_dwr",
    "dump_indicators",
]


class IndicatorReport:
    """Per-neighborhood eta_i^2 values for one strategy and iteration.

    ``lambda_next`` records the eigenvalue weights (NaN where saturated),
    ``signed`` the pre-absolute pairings for the DWR strategy.  Saturated
    neighborhoods carry eta_i^2 = 0.
    """

    def __init__(self, strategy, eta_sq, lambda_next, counts, saturated, iteration=0, signed=None):
        eta_sq = np.asarray(eta_sq, dtype=float)
        if not np.all(np.isfinite(eta_sq)) or np.any(eta_sq < 0):
            raise ValueError("indicator values must be finite and nonnegative")
        self.strategy = strategy
        self.eta_sq = eta_sq
        self.lambda_next = np.asarray(lambda_next, dtype=float)
        self.counts = np.asarray(counts, dtype=int)
        self.saturated = np.asarray(saturated, dtype=bool)
        self.iteration = iteration
        self.signed = signed

    @property
    def total(self):
        return float(self.eta_sq.sum())


def fine_residual(A, load, u):
    """Global fine-grid residual b - A u for a coarse solution or nodal vector."""
    fine = getattr(u, "fine", u)
    return load - A @ fine


class ResidualNormCache:
    """Dual norms ||R_i||_{V_i*} of local residuals, with per-neighborhood data
    computed once.

    mode='exact' factors the zero-trace operator of each neighborhood once,
    keeps the SuperLU factors in ``factors`` (the offline stage solves its
    harmonic snapshots with them too, see ms_space.compute_snapshots) and
    returns ||w||_a of the solution of a(w, v) = R(v) on the zero-trace space;
    mode='snapshot' solves that problem in the span of the zero-trace parts of
    the snapshots from precomputed Galerkin data, which can only give a
    smaller value (subspace inequality).
    """

    def __init__(self, neighborhoods, A, mode="exact", spectra=None):
        if mode not in ("exact", "snapshot"):
            raise ValueError(f"mode must be 'exact' or 'snapshot', got {mode!r}")
        if mode == "snapshot" and spectra is None:
            raise ValueError("snapshot mode needs the neighborhood spectra")
        self.mode = mode
        self._interior = [neigh.fine_vertices_interior for neigh in neighborhoods]
        self.factors = []
        self._galerkin = []
        for i, neigh in enumerate(neighborhoods):
            A_zt = local_operator(neigh, A)
            if mode == "exact":
                self.factors.append(spla.splu(A_zt.tocsc()))
            else:
                T = spectra[i].snapshots[neigh.interior_local]
                gram = T.T @ (A_zt @ T)
                self._galerkin.append((T, 0.5 * (gram + gram.T)))

    def norm(self, i, rho):
        """Dual norm of the residual vector ``rho`` over neighborhood i."""
        if self.mode == "exact":
            w = self.factors[i].solve(rho)
            return float(np.sqrt(max(float(rho @ w), 0.0)))
        T, gram = self._galerkin[i]
        rhs = T.T @ rho
        y, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        return float(np.sqrt(max(float(rhs @ y), 0.0)))

    def norms(self, rho):
        """Dual norm of the global residual ``rho`` over every neighborhood."""
        return [self.norm(i, rho[interior]) for i, interior in enumerate(self._interior)]


def _lambda_weights(space):
    """First excluded eigenvalue per neighborhood; NaN where saturated."""
    lam = np.full(space.n_neighborhoods, np.nan)
    for i, spectrum in enumerate(space.spectra):
        if space.counts[i] < spectrum.n_snapshots:
            lam[i] = spectrum.eigenvalues[space.counts[i]]
    return lam


def _inverse_weights(space, lam):
    # Guard against a nonpositive lambda from roundoff at extreme contrast;
    # the floor is far below any physically meaningful eigenvalue.
    out = np.zeros_like(lam)
    live = ~np.isnan(lam)
    floors = np.array([1e-14 * spectrum.eigenvalues[-1] for spectrum in space.spectra])
    out[live] = 1.0 / np.maximum(lam[live], floors[live])
    return out


def eta_standard(space, primal_norms, iteration=0):
    """Residual-based indicator driving energy-error reduction."""
    primal_norms = np.asarray(primal_norms, dtype=float)
    lam = _lambda_weights(space)
    eta_sq = primal_norms**2 * _inverse_weights(space, lam)
    eta_sq[space.saturated] = 0.0
    return IndicatorReport("standard", eta_sq, lam, space.counts, space.saturated, iteration)


def eta_goal_h1(space, primal_norms, dual_norms, iteration=0):
    """Product indicator of primal and dual residual norms (same space)."""
    primal_norms = np.asarray(primal_norms, dtype=float)
    dual_norms = np.asarray(dual_norms, dtype=float)
    lam = _lambda_weights(space)
    eta_sq = primal_norms * dual_norms * _inverse_weights(space, lam)
    eta_sq[space.saturated] = 0.0
    return IndicatorReport("goal_h1", eta_sq, lam, space.counts, space.saturated, iteration)


def eta_dwr(space, residual, z_enrich, iteration=0):
    """Pair the primal residual with the enriched-dual excess per neighborhood.

    ``residual`` is the global fine residual vector of the current primal
    solution; ``z_enrich`` the dual solution in the extended space.  The
    indicator is the absolute pairing; the signed values are kept on the
    report for the global sum identity.
    """
    enriched = z_enrich.space
    if np.all(enriched.counts <= space.counts):
        raise ValueError("DWR indicator needs an enriched dual space (m >= 1)")
    signed = np.zeros(space.n_neighborhoods)
    for i, neigh in enumerate(space.neighborhoods):
        l_i = int(space.counts[i])
        l_e = int(enriched.counts[i])
        if l_e <= l_i:
            continue
        coeffs = z_enrich.component_coefficients(i)[l_i:l_e]
        excess = enriched.candidates[i][:, l_i:l_e] @ coeffs
        signed[i] = float(residual[neigh.fine_vertices_all] @ excess)
    lam = _lambda_weights(space)
    eta_sq = np.abs(signed)
    eta_sq[space.saturated] = 0.0
    return IndicatorReport(
        "goal_dwr", eta_sq, lam, space.counts, space.saturated, iteration, signed=signed
    )


def dump_indicators(reports, path):
    """Write indicator reports as CSV (iteration, vertex_id, strategy, eta_sq,
    lambda_next, l_i)."""
    with open(path, "w") as fh:
        fh.write("iteration,vertex_id,strategy,eta_sq,lambda_next,l_i\n")
        for report in reports:
            for i, eta in enumerate(report.eta_sq):
                fh.write(
                    f"{report.iteration},{i},{report.strategy},{float(eta)!r},"
                    f"{float(report.lambda_next[i])!r},{report.counts[i]}\n"
                )
