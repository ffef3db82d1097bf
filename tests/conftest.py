import contextlib
import os

import numpy as np
import pytest

from gmsfem import adapt, cli, coarse_solve, fine_fem, indicators, mesh, ms_space, workers


@pytest.fixture(scope="session")
def grid44():
    return mesh.GridHierarchy(4, 4)


@pytest.fixture(scope="session")
def unit_field44(grid44):
    return fine_fem.CoefficientField(np.ones((grid44.nf, grid44.nf)))


@pytest.fixture(scope="session")
def unit_offline44(grid44, unit_field44):
    """Full offline data for the small unit-coefficient grid."""
    return _offline(grid44, unit_field44)


@workers.one_blas_thread()
def _offline(grid, field):
    """The offline data of ``field`` with the snapshots and eigenvectors
    that build_problem does not keep, computed at one BLAS thread, as
    build_problem computes them, so that they are bitwise its own.  Every
    neighborhood is solved.  ``same[i]`` is the lowest neighborhood whose
    spectral inputs (patch stiffness and mass rows, chi_i and exact factor
    block) have neighborhood i's bytes, found by comparing them whole."""
    pu = ms_space.compute_partition_of_unity(grid, field)
    neighborhoods = pu.neighborhoods
    patch_A = fine_fem.patch_stiffness(field, neighborhoods)
    exact_norms = indicators.ResidualNormCache(patch_A)
    weight = ms_space.compute_spectral_weight(field, pu)
    patch_S = fine_fem.patch_weighted_mass(weight, neighborhoods)
    inputs = [
        b"".join(a.tobytes() for a in (A, S, chi, exact_norms.factor_block(i)))
        for i, (A, S, chi) in enumerate(zip(patch_A.data, patch_S.data, pu.patches))
    ]
    spectra = []
    for i in range(len(neighborhoods)):
        snaps = ms_space.compute_snapshots(patch_A, i, exact_norms)
        spectra.append(
            ms_space.local_spectral_decomposition(i, patch_A.matrix(i), patch_S.matrix(i), snaps)
        )
    return {
        "grid": grid,
        "field": field,
        "neighborhoods": neighborhoods,
        "pu": pu,
        "weight": weight,
        "spectra": spectra,
        "same": np.array([inputs.index(row) for row in inputs]),
    }


@contextlib.contextmanager
def cpu_affinity(count):
    """Run the block pinned to the first ``count`` CPUs of this process's
    affinity mask, which sets how many workers adapt.build_problem forks,
    and with the BLAS pools shut (workers.one_blas_thread), as build_problem
    runs; the mask and the BLAS thread counts are restored afterwards.
    Skips the test if fewer CPUs are available, or if more than one is
    asked for and the process still runs other threads."""
    if not hasattr(os, "sched_setaffinity"):
        if count > 1:
            pytest.skip("os.sched_setaffinity is not available on this platform")
        yield  # build_problem forks no worker where it cannot read the mask
        return
    saved = os.sched_getaffinity(0)
    if len(saved) < count:
        pytest.skip(f"needs {count} CPUs in the affinity mask, found {len(saved)}")
    with workers.one_blas_thread():
        if count > 1 and workers.worker_cpus() is None:
            pytest.skip("the process runs other threads, so build_problem forks no worker")
        os.sched_setaffinity(0, sorted(saved)[:count])
        try:
            yield
        finally:
            os.sched_setaffinity(0, saved)


def identity_map_space(space, candidates):
    """``space`` over ``candidates``, an (N, L, m) array with one block per
    neighborhood (the identity row map), so that an edit of block i changes
    neighborhood i alone; ``space.candidates[space.row]`` is such a copy of
    its own."""
    return ms_space.OfflineSpace(
        space.pu,
        space.eigenvalues,
        space.jitter,
        candidates,
        np.arange(space.n_neighborhoods),
        space.counts,
    )


def assemble_weighted_mass(grid, weight):
    """Global mass matrix weighted by a per-cell coefficient: a COO assembly
    over every fine cell, the oracle of the library's mass assemblies."""
    fine_fem._check_field(grid, weight)
    coeff = weight.values.ravel() * grid.h**2
    return fine_fem._assemble(fine_fem.Q1_MASS, coeff, grid.cell_vertex_table(), grid.n_vertices)


def vertex_coordinates(grid):
    """(n_vertices, 2) array of fine vertex coordinates, in vertex id order."""
    n = grid.nf + 1
    iy, ix = np.divmod(np.arange(n * n), n)
    return np.column_stack([ix * grid.h, iy * grid.h])


def interior_vertex_position(grid, vertex_id):
    """Coarse coordinates (ci, cj) of interior coarse vertex ``vertex_id``."""
    cj, ci = divmod(int(vertex_id), grid.nc - 1)
    return ci + 1, cj + 1


def global_function(pu, i):
    """Partition function chi_i scattered into a full fine-grid nodal vector."""
    out = np.zeros(pu.grid.n_vertices)
    out[pu.neighborhoods.vertices[i]] = pu.patches[i]
    return out


def truncate_solution(sol, counts):
    """Project a coarse solution onto the per-neighborhood leading ``counts``
    columns: coefficients beyond the kept prefix are zeroed and the fine
    representation recomputed (the pi(z) of the DWR sum identity)."""
    space = sol.space
    i, k = np.divmod(space.candidate_numbers(space.counts), space.n_candidates)
    coeffs = np.where(k < np.asarray(counts, dtype=int)[i], sol.coefficients, 0.0)
    return coarse_solve.CoarseSolution(coeffs, space.basis_columns(space.counts) @ coeffs, space)


def benchmark_densities(grid):
    f_density = cli.box_fraction(grid, cli.K1_BOX) - cli.box_fraction(grid, cli.K2_BOX)
    g_density = cli.box_fraction(grid, cli.K2_BOX)
    return f_density, g_density


@pytest.fixture(scope="session")
def channel_field():
    """The benchmark channel medium at contrast 1e4 on the nf=100 grid."""
    return cli.generate_field("channel", 1e4, 100, seed=7)


def _channel_problem(field, dual_norm_mode):
    grid = mesh.GridHierarchy(10, 10)
    f_density, g_density = benchmark_densities(grid)
    return adapt.build_problem(grid, field, f_density, g_density, dual_norm_mode=dual_norm_mode)


@pytest.fixture(scope="session")
def channel_problem(channel_field):
    """channel_field's problem on the nc=10, r=10 grids."""
    return _channel_problem(channel_field, "exact")


@pytest.fixture(scope="session")
def channel_problem_snapshot(channel_field):
    """channel_problem built with snapshot dual norms."""
    return _channel_problem(channel_field, "snapshot")


@pytest.fixture(scope="session")
def channel_offline(channel_problem, channel_field):
    """channel_problem's offline data recomputed (_offline)."""
    return _offline(channel_problem.space.grid, channel_field)


@pytest.fixture(scope="session")
def small_problem(grid44, unit_field44):
    f_density, g_density = benchmark_densities(grid44)
    return adapt.build_problem(grid44, unit_field44, f_density, g_density)


def poisson_center_value(terms=120):
    """Series value of the center of the unit-square Poisson problem -Lap(u)=1.

    Independent oracle: u(1/2,1/2) = (16/pi^4) * sum over odd m,n of
    sin(m pi/2) sin(n pi/2) / (m n (m^2 + n^2)).
    """
    total = 0.0
    for m in range(1, 2 * terms, 2):
        sm = (-1.0) ** ((m - 1) // 2)
        for n in range(1, 2 * terms, 2):
            sn = (-1.0) ** ((n - 1) // 2)
            total += sm * sn / (m * n * (m * m + n * n))
    return 16.0 / np.pi**4 * total
