"""Stress slice: small adaptive problems, each run to a named outcome.

``run_slice(cases)`` builds the problem of each case and runs every
strategy on it.  A run's outcome is its stop reason, or the name of the
failure it ended in: ``OfflineFailure`` or ``SolveFailure`` from
build_problem, ``RankDeficientBasis`` or ``SolveFailure`` as the cause of
adapt_loop's AdaptFailure.  Any other exception is ``unnamed``.
tests/test_adapt.py runs a 24-run slice of it in tier 1.

Run as a script, ``PYTHONPATH=src python tests/stress.py`` runs CI_SLICE and
prints one table of the outcomes by strategy and by contrast.  It exits
non-zero if a run ends in an unnamed exception, or if a finished run's
energy error rises by more than ENERGY_RISE_TOL times its initial value.
No failure count is asserted, and no case is added to the slice or dropped
from it to change an outcome.  The 720 runs took 65 and 73 s (two runs) at 1
BLAS thread on a 2-vCPU VM (Python 3.11, numpy 2.4, scipy 1.17).
"""

import itertools
import sys
import time
from collections import Counter, namedtuple

import numpy as np

from gmsfem import adapt, cli, coarse_solve, fine_fem, indicators, mesh, ms_space

# Enrichment cannot raise the Galerkin energy error, so a rise is round-off:
# the tier-1 slice peaks at 1.29e-9 of the initial error, CI_SLICE's seed-0
# exact runs at 5.5e-9.
ENERGY_RISE_TOL = 1e-8

UNNAMED = "unnamed"

Case = namedtuple("Case", "nc r kind contrast seed dual_norm_mode")
# energy is the energy-error column of a finished run, error the repr of an
# unnamed exception
Run = namedtuple("Run", "case strategy outcome energy error", defaults=(None, None))

CFG = adapt.MarkingConfig(rule="full_sort", max_iterations=40, dof_cap=10**5)

CI_SLICE = [
    Case(*values)
    for values in itertools.product(
        (4, 5, 6), (4, 5), cli.FIELD_KINDS, (1e2, 1e4, 1e6, 1e8), (0, 1, 2),
        indicators.DUAL_NORM_MODES,
    )
    if values[0] * values[1] >= 20
]


def run_slice(cases):
    """One Run per (case, strategy), in that order."""
    runs = []
    for case in cases:
        grid = mesh.GridHierarchy(case.nc, case.r)
        f_density = cli.box_fraction(grid, cli.K1_BOX) - cli.box_fraction(grid, cli.K2_BOX)
        g_density = cli.box_fraction(grid, cli.K2_BOX)
        field = cli.generate_field(case.kind, case.contrast, grid.nf, case.seed)
        try:
            problem = adapt.build_problem(
                grid, field, f_density, g_density, dual_norm_mode=case.dual_norm_mode
            )
        except Exception as exc:
            named = (ms_space.OfflineFailure, fine_fem.SolveFailure)
            runs += [_failure(case, strategy, exc, named) for strategy in adapt.STRATEGIES]
            continue
        for strategy in adapt.STRATEGIES:
            try:
                trace = adapt.adapt_loop(problem, strategy, CFG)
            except adapt.AdaptFailure as exc:
                named = (coarse_solve.RankDeficientBasis, fine_fem.SolveFailure)
                runs.append(_failure(case, strategy, exc.__cause__, named))
            except Exception as exc:
                runs.append(_failure(case, strategy, exc, ()))
            else:
                runs.append(Run(case, strategy, trace.stop_reason, trace.column("energy_error")))
    return runs


def _failure(case, strategy, exc, named):
    """The Run that ended in ``exc``: its class name if ``exc`` is one of
    the classes ``named``, else unnamed."""
    if isinstance(exc, named):
        return Run(case, strategy, type(exc).__name__)
    return Run(case, strategy, UNNAMED, error=repr(exc))


def energy_rise(run):
    """The largest rise of a finished run's energy error over its initial value."""
    return np.diff(run.energy).max(initial=0.0) / run.energy[0]


def outcome_table(runs):
    """Run counts per outcome, by strategy and by contrast."""
    contrasts = [f"{c:g}" for c in sorted({run.case.contrast for run in runs})]
    columns = [*adapt.STRATEGIES, *contrasts]
    counts = Counter()
    for run in runs:
        counts[run.outcome, run.strategy] += 1
        counts[run.outcome, f"{run.case.contrast:g}"] += 1
    outcomes = sorted({run.outcome for run in runs})
    width = max(len(name) for name in ["outcome", *outcomes])
    lines = [f"{'outcome':<{width}}" + "".join(f"{c:>10}" for c in columns)]
    for name in outcomes:
        lines.append(f"{name:<{width}}" + "".join(f"{counts[name, c]:>10}" for c in columns))
    return "\n".join(lines)


def main():
    start = time.perf_counter()
    runs = run_slice(CI_SLICE)
    elapsed = time.perf_counter() - start
    finished = [run for run in runs if run.energy is not None]
    print(outcome_table(runs))
    peak = max((energy_rise(run) for run in finished), default=0.0)
    print(f"\n{len(runs)} runs in {elapsed:.1f} s; largest energy-error rise {peak:.2e} "
          f"of the initial error (tolerance {ENERGY_RISE_TOL:g})")
    faults = 0
    for run in runs:
        if run.outcome == UNNAMED:
            fault = f"unnamed {run.error}"
        elif run.energy is not None and energy_rise(run) > ENERGY_RISE_TOL:
            fault = f"energy error rises by {energy_rise(run):.2e} of its initial value"
        else:
            continue
        faults += 1
        print(f"FAULT {run.case} {run.strategy}: {fault}")
    return 1 if faults else 0

if __name__ == "__main__":
    sys.exit(main())
