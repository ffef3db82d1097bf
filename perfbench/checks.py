"""Output checks of a benchmark run, with the bounds the acceptance suite uses.

Each check returns a list of problems (empty when it passes), so a failed
check names what it saw instead of stopping the run.
"""

import hashlib

import numpy as np

# Criterion 7: energy error non-increasing, relative to the initial error.
ENERGY_RISE_TOL = 1e-12
# Criterion 3: eigenvalues ascending and the constant mode at zero.
EIG_ORDER_TOL = 1e-10
EIG_ZERO_TOL = 1e-8
# Criterion 2: partition of unity sums to one on covered vertices.
POU_TOL = 1e-8


def check_trace(trace, cfg):
    """Energy error non-increasing; dofs strictly increasing; the stop reason
    agrees with the trace."""
    problems = []
    energy = trace.column("energy_error")
    dofs = trace.column("dofs")
    if len(energy) == 0:
        return [f"{trace.strategy}: empty trace"]
    rises = np.flatnonzero(np.diff(energy) > ENERGY_RISE_TOL * energy[0])
    if rises.size:
        k = int(rises[0])
        problems.append(
            f"{trace.strategy}: energy error rises at iteration {k + 1} "
            f"({float(energy[k])!r} -> {float(energy[k + 1])!r})"
        )
    stalls = np.flatnonzero(np.diff(dofs) <= 0)
    if stalls.size:
        k = int(stalls[0])
        problems.append(
            f"{trace.strategy}: dofs not increasing at iteration {k + 1} ({dofs[k]} -> {dofs[k + 1]})"
        )
    if trace.stop_reason == "dof cap reached" and dofs[-1] < cfg.dof_cap:
        problems.append(f"{trace.strategy}: stopped at the dof cap with {dofs[-1]} dofs")
    elif trace.stop_reason == "max iterations" and len(dofs) != cfg.max_iterations:
        problems.append(f"{trace.strategy}: 'max iterations' after {len(dofs)} iterations")
    return problems


def check_problem(problem):
    """Per-neighborhood spectra (criterion 3) and partition of unity (criterion 2)."""
    problems = []
    for spectrum in problem.space.spectra:
        lam = spectrum.eigenvalues
        if np.any(np.diff(lam) < -EIG_ORDER_TOL * lam[-1]):
            problems.append(f"neighborhood {spectrum.vertex_id}: eigenvalues not ascending")
        if lam[0] > EIG_ZERO_TOL * lam[-1]:
            problems.append(
                f"neighborhood {spectrum.vertex_id}: lambda_1/lambda_max = {lam[0] / lam[-1]:.3e}"
            )
    pu = problem.space.pu
    deviation = float(np.abs(pu.sum_values()[pu.covered_vertex_ids()] - 1.0).max())
    if deviation > POU_TOL:
        problems.append(f"partition of unity sum deviates from 1 by {deviation:.3e}")
    return problems


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_digests(found, expected):
    """Run labels whose trace-CSV digest differs from the expected one."""
    return sorted(label for label, value in found.items() if label in expected and expected[label] != value)
