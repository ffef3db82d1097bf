import gc
import importlib
import os
import pkgutil
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import gmsfem
from gmsfem import adapt, cli, coarse_solve, fine_fem, indicators, mesh, ms_space, workers
from gmsfem.adapt import MarkingConfig

import stress
from conftest import _offline, benchmark_densities, cpu_affinity, identity_map_space


def _oracle_full_sort(eta_sq, theta):
    """Brute-force prefix enumeration over the descending (eta, id) order."""
    order = sorted(range(len(eta_sq)), key=lambda i: (-eta_sq[i], i))
    total = sum(eta_sq)
    if total <= 0:
        return []
    running = 0.0
    chosen = []
    for i in order:
        chosen.append(i)
        running += eta_sq[i]
        if running >= theta * total:
            return sorted(chosen)
    return sorted(chosen)


def test_marking_config_validation():
    with pytest.raises(ValueError):
        MarkingConfig(theta=0.0)
    with pytest.raises(ValueError):
        MarkingConfig(theta=1.0)
    with pytest.raises(ValueError):
        MarkingConfig(s=0)
    with pytest.raises(ValueError, match="unknown marking rule 'largest'"):
        MarkingConfig(rule="largest")
    with pytest.raises(ValueError):
        MarkingConfig(max_iterations=0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("goal_tol", float("nan"), "goal_tol must be finite and >= 0, got nan"),
        ("goal_tol", float("inf"), "goal_tol must be finite and >= 0, got inf"),
        ("goal_tol", -1.0, "goal_tol must be finite and >= 0, got -1.0"),
        ("dof_cap", 0, "dof_cap must be >= 1, got 0"),
        ("dof_cap", -5, "dof_cap must be >= 1, got -5"),
        ("s", 1.5, "s must be an integer, got 1.5"),
        ("m_enrich", 1.5, "m_enrich must be an integer, got 1.5"),
        ("max_iterations", 2.5, "max_iterations must be an integer, got 2.5"),
        ("dof_cap", 2000.5, "dof_cap must be an integer, got 2000.5"),
        ("s", True, "s must be an integer, got True"),
        ("max_iterations", True, "max_iterations must be an integer, got True"),
        ("theta", "0.5", "theta must be a real number, got '0.5'"),
        ("goal_tol", "1e-3", "goal_tol must be a real number, got '1e-3'"),
        ("theta", True, "theta must be a real number, got True"),
        ("goal_tol", True, "goal_tol must be a real number, got True"),
    ],
    ids=[
        "goal_tol-nan",
        "goal_tol-inf",
        "goal_tol-negative",
        "dof_cap-0",
        "dof_cap-negative",
        "s-fraction",
        "m_enrich-fraction",
        "max_iterations-fraction",
        "dof_cap-fraction",
        "s-bool",
        "max_iterations-bool",
        "theta-string",
        "goal_tol-string",
        "theta-bool",
        "goal_tol-bool",
    ],
)
def test_marking_config_rejects_bad_stop_values(field, value, message):
    with pytest.raises(ValueError) as excinfo:
        MarkingConfig(**{field: value})
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "count, message",
    [
        (0, "initial_count must be >= 1, got 0"),
        (1.5, "initial_count must be an integer, got 1.5"),
        (True, "initial_count must be an integer, got True"),
    ],
    ids=["0", "1.5", "True"],
)
def test_marking_config_rejects_bad_initial_count(count, message):
    with pytest.raises(ValueError) as excinfo:
        MarkingConfig(initial_count=count)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("count", [2, 3])
def test_initial_count_takes_whole_clusters(small_problem, count):
    # the unit medium's fully symmetric centre patch ties lambda_2 = lambda_3,
    # so a count of 2 is rounded up to 3 there
    cfg = MarkingConfig(max_iterations=1, initial_count=count)
    trace = adapt.adapt_loop(small_problem, "standard", cfg)
    counts = trace.reports[0].counts
    space = small_problem.space
    ends = space.cluster_ends[np.arange(space.n_neighborhoods), min(count, space.n_candidates)]
    assert np.array_equal(counts, ends)
    assert np.all(counts >= count)
    assert (counts > count).any() == (count == 2)
    assert trace.rows[0].dofs == counts.sum()


def test_one_problem_runs_from_two_starts(tmp_path, monkeypatch, grid44, unit_field44):
    # the start is a setting of the run: one offline stage serves both, and
    # the 3-run, on a store the 1-run has grown, writes the bytes of a 3-run
    # on a problem of its own
    calls = []
    build_basis = ms_space.build_basis

    def counted(*args):
        calls.append(args)
        return build_basis(*args)

    monkeypatch.setattr(ms_space, "build_basis", counted)
    densities = benchmark_densities(grid44)
    problem = adapt.build_problem(grid44, unit_field44, *densities)
    narrow = adapt.adapt_loop(problem, "standard", MarkingConfig(max_iterations=4))
    cfg = MarkingConfig(max_iterations=4, initial_count=3)
    wide = adapt.adapt_loop(problem, "standard", cfg)
    assert len(calls) == 1
    assert np.all(problem.space.counts == 1)
    assert wide.rows[0].dofs == problem.space.cluster_ends[:, 3].sum()
    assert narrow.rows[0].dofs == problem.space.total_dofs
    adapt.write_trace_csv(wide, tmp_path / "shared.csv")
    fresh = adapt.build_problem(grid44, unit_field44, *densities)
    adapt.write_trace_csv(adapt.adapt_loop(fresh, "standard", cfg), tmp_path / "fresh.csv")
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_mark_worked_example():
    # (4,3,2,1) with theta=0.6: 4/10 < 0.6 but (4+3)/10 >= 0.6
    marked = adapt.mark([4.0, 3.0, 2.0, 1.0], MarkingConfig(theta=0.6))
    assert list(marked) == [0, 1]
    assert list(marked) == _oracle_full_sort([4.0, 3.0, 2.0, 1.0], 0.6)


def test_mark_tiny_theta_takes_single_largest():
    marked = adapt.mark([1.0, 5.0, 2.0], MarkingConfig(theta=1e-12))
    assert list(marked) == [1]


def test_mark_breaks_ties_by_vertex_id():
    marked = adapt.mark([2.0, 2.0, 2.0, 2.0], MarkingConfig(theta=0.45))
    assert list(marked) == [0, 1]


def test_mark_all_zero_returns_empty():
    for rule in ("full_sort", "binning"):
        marked = adapt.mark([0.0, 0.0, 0.0], MarkingConfig(rule=rule))
        assert len(marked) == 0


def test_mark_matches_prefix_oracle_on_random_vectors():
    rng = np.random.default_rng(100)
    for _ in range(300):
        n = int(rng.integers(1, 51))
        eta = rng.random(n) ** 2 * 10.0 ** rng.integers(-3, 4)
        theta = float(rng.uniform(0.05, 0.95))
        marked = adapt.mark(eta, MarkingConfig(theta=theta))
        assert list(marked) == _oracle_full_sort(list(eta), theta)


def test_mark_minimality():
    rng = np.random.default_rng(200)
    for _ in range(50):
        eta = rng.random(30)
        theta = float(rng.uniform(0.2, 0.8))
        marked = adapt.mark(eta, MarkingConfig(theta=theta))
        total = eta.sum()
        assert eta[marked].sum() >= theta * total
        # dropping the least important marked element must break the criterion
        weakest = marked[np.argmin(eta[marked])]
        reduced = eta[marked].sum() - eta[weakest]
        assert reduced < theta * total or np.isclose(reduced, theta * total)


def test_binning_satisfies_criterion_within_factor_two():
    rng = np.random.default_rng(300)
    for _ in range(300):
        n = int(rng.integers(2, 51))
        eta = rng.random(n) * 10.0 ** rng.integers(-2, 3)
        theta = float(rng.uniform(0.1, 0.9))
        full = adapt.mark(eta, MarkingConfig(theta=theta, rule="full_sort"))
        binned = adapt.mark(eta, MarkingConfig(theta=theta, rule="binning"))
        assert eta[binned].sum() >= theta * eta.sum() * (1 - 1e-12)
        assert len(binned) <= 2 * len(full)


def test_binning_is_deterministic():
    eta = np.array([5.0, 4.9, 4.8, 0.3, 0.2, 2.6, 2.5])
    cfg = MarkingConfig(theta=0.7, rule="binning")
    first = adapt.mark(eta, cfg)
    second = adapt.mark(eta, cfg)
    assert np.array_equal(first, second)


# ---------------------------------------------------------------------------
# the adaptive loop


def test_loop_energy_error_non_increasing(small_problem):
    cfg = MarkingConfig(max_iterations=8, dof_cap=10_000)
    trace = adapt.adapt_loop(small_problem, "standard", cfg)
    energy = trace.column("energy_error")
    assert len(energy) == 8
    assert np.all(np.diff(energy) <= 1e-12 * energy[0])


def test_loop_dofs_strictly_increase(small_problem):
    cfg = MarkingConfig(max_iterations=6, dof_cap=10_000)
    for strategy in adapt.STRATEGIES:
        trace = adapt.adapt_loop(small_problem, strategy, cfg)
        dofs = trace.column("dofs")
        assert np.all(np.diff(dofs) > 0)


def test_loop_is_deterministic(small_problem):
    cfg = MarkingConfig(max_iterations=5, dof_cap=10_000)
    a = adapt.adapt_loop(small_problem, "goal_h1", cfg)
    b = adapt.adapt_loop(small_problem, "goal_h1", cfg)
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.dofs, ra.energy_error, ra.goal_error, ra.sum_eta_sq, ra.marked_count) == (
            rb.dofs,
            rb.energy_error,
            rb.goal_error,
            rb.sum_eta_sq,
            rb.marked_count,
        )
    assert np.array_equal(a.final_counts, b.final_counts)


def _rotate_tied_eigenvectors(spectrum, angle):
    """The same spectrum with every tied eigenvector pair rotated in its plane.

    LAPACK returns an arbitrary orthonormal basis of a degenerate eigenspace,
    so this is an equally valid output of the eigensolver.
    """
    lam = spectrum.eigenvalues
    vectors = spectrum.eigenvectors.copy()
    c, s = np.cos(angle), np.sin(angle)
    for k in np.flatnonzero(np.diff(lam) <= 1e-10 * np.abs(lam[1:])):
        a, b = vectors[:, k].copy(), vectors[:, k + 1].copy()
        vectors[:, k] = c * a - s * b
        vectors[:, k + 1] = s * a + c * b
    return ms_space.NeighborhoodSpectrum(
        spectrum.vertex_id, spectrum.snapshots, lam, vectors, spectrum.jitter
    )


def test_trajectory_independent_of_tied_eigenvector_basis(channel_problem, channel_offline):
    space = channel_problem.space
    spectra = channel_offline["spectra"]
    rotated_spectra = [_rotate_tied_eigenvectors(s, 0.7) for s in spectra]
    moved = sum(
        not np.array_equal(r.eigenvectors, s.eigenvectors)
        for r, s in zip(rotated_spectra, spectra)
    )
    assert moved > 0  # the channel medium has homogeneous, symmetric patches
    rotated_space = ms_space.build_basis(
        space.pu, rotated_spectra.__getitem__, channel_offline["same"]
    ).with_counts(space.counts)
    rotated = adapt.ProblemSetup(
        channel_problem.stiffness,
        channel_problem.f_load,
        channel_problem.g_load,
        rotated_space,
        channel_problem.u_ref,
        channel_problem.dual_norms,
    )
    cfg = MarkingConfig(theta=0.5, s=1, m_enrich=2, max_iterations=12, dof_cap=100_000)
    for strategy in adapt.STRATEGIES:
        a = adapt.adapt_loop(channel_problem, strategy, cfg)
        b = adapt.adapt_loop(rotated, strategy, cfg)
        assert np.array_equal(a.column("dofs"), b.column("dofs")), strategy
        assert np.array_equal(a.column("marked_count"), b.column("marked_count")), strategy
        assert np.array_equal(a.final_counts, b.final_counts), strategy
        np.testing.assert_allclose(
            b.column("energy_error"), a.column("energy_error"), rtol=1e-10, err_msg=strategy
        )


def _record_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records the shape of each
    call's first argument; returns the list it appends to."""
    shapes = []
    original = getattr(owner, name)

    def recorded(first, *args, **kwargs):
        shapes.append(np.shape(first))
        return original(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return shapes


def test_one_zero_trace_factorization_per_problem(grid44, unit_field44, monkeypatch):
    # in both modes the offline snapshots solve with one stacked banded factor
    # of every zero-trace operator, which the exact dual norms keep and the
    # snapshot norms take their zero-trace parts from; the one other
    # factorization of a problem is the fine reference's, a banded Cholesky
    # of the free block, which one CPU makes in this process
    banded = _record_calls(monkeypatch, scipy.linalg, "cholesky_banded")
    pbtrf = _record_calls(monkeypatch, scipy.linalg.lapack, "dpbtrf")
    splu = _record_calls(monkeypatch, scipy.sparse.linalg, "splu")
    f_density, g_density = benchmark_densities(grid44)
    for mode in indicators.DUAL_NORM_MODES:
        banded.clear()
        pbtrf.clear()
        with cpu_affinity(1):
            problem = adapt.build_problem(
                grid44, unit_field44, f_density, g_density, dual_norm_mode=mode
            )
        assert problem.dual_norms.mode == mode
        interior = [len(ids) for ids in problem.space.neighborhoods.interior_vertices]
        assert [shape[1] for shape in banded] == [sum(interior)], mode
        # upper band of the free block in natural order: half-bandwidth nf
        assert pbtrf == [(grid44.nf + 1, (grid44.nf - 1) ** 2)], mode
    assert splu == []


def test_fine_reference_is_factored_beside_the_offline_stage(grid44, unit_field44, monkeypatch):
    # on two CPUs a child solves the fine reference, so this process makes
    # the stacked zero-trace factorization and no factorization of the free
    # block, and the child is reaped before build_problem returns
    banded = _record_calls(monkeypatch, scipy.linalg, "cholesky_banded")
    pbtrf = _record_calls(monkeypatch, scipy.linalg.lapack, "dpbtrf")
    f_density, g_density = benchmark_densities(grid44)
    with cpu_affinity(2):
        problem = adapt.build_problem(grid44, unit_field44, f_density, g_density)
    _assert_no_child_left()
    interior = [len(ids) for ids in problem.space.neighborhoods.interior_vertices]
    assert [shape[1] for shape in banded] == [sum(interior)]
    assert pbtrf == []
    with cpu_affinity(1):
        serial = adapt.build_problem(grid44, unit_field44, f_density, g_density)
    assert np.array_equal(problem.u_ref, serial.u_ref)


def test_traces_are_the_same_bytes_on_one_cpu_and_on_two(channel_problem, tmp_path, monkeypatch):
    # the 81 neighborhoods' stacked dual-norm solve is 5 chunks; on two CPUs
    # the helper thread solves the lower ones and forms the short product of
    # each growth, and every strategy's trace and indicators are the same
    # bytes as on one CPU
    threads = set()
    pbtrs = fine_fem._pbtrs

    def recorded(ab, b):
        threads.add(threading.get_ident())
        return pbtrs(ab, b)

    monkeypatch.setattr(fine_fem, "_pbtrs", recorded)
    cfg = MarkingConfig(max_iterations=8)
    for cpus in (2, 1):
        threads.clear()
        with cpu_affinity(cpus):
            for strategy in adapt.STRATEGIES:
                trace = adapt.adapt_loop(channel_problem, strategy, cfg)
                adapt.write_trace_csv(trace, tmp_path / f"trace-{strategy}-{cpus}.csv")
                indicators.dump_indicators(trace.reports, tmp_path / f"eta-{strategy}-{cpus}.csv")
        assert len(threads) == cpus
    for name in (f"{kind}-{strategy}" for kind in ("trace", "eta") for strategy in adapt.STRATEGIES):
        assert (tmp_path / f"{name}-1.csv").read_bytes() == (tmp_path / f"{name}-2.csv").read_bytes()


def test_build_problem_rejects_unknown_dual_norm_mode(grid44, unit_field44, monkeypatch):
    # the mode is checked before any offline work
    neighborhoods = _record_calls(monkeypatch, mesh, "all_neighborhoods")
    stiffness = _record_calls(monkeypatch, fine_fem, "assemble_stiffness")
    f_density, g_density = benchmark_densities(grid44)
    with pytest.raises(ValueError, match="unknown dual norm mode 'cheap'"):
        adapt.build_problem(grid44, unit_field44, f_density, g_density, dual_norm_mode="cheap")
    assert neighborhoods == [] and stiffness == []


def test_no_solve_takes_a_sparse_factorization(grid44, unit_field44, monkeypatch):
    # the fine reference and every coarse system, primal and dual, take the
    # banded Cholesky path, and no module of the package reaches
    # scipy.sparse.linalg
    splu = _record_calls(monkeypatch, scipy.sparse.linalg, "splu")
    f_density, g_density = benchmark_densities(grid44)
    problem = adapt.build_problem(grid44, unit_field44, f_density, g_density)
    for strategy in adapt.STRATEGIES:
        trace = adapt.adapt_loop(problem, strategy, MarkingConfig(max_iterations=3))
        assert len(trace.rows) == 3, strategy
    assert splu == []
    for info in pkgutil.iter_modules(gmsfem.__path__):
        module = importlib.import_module(f"gmsfem.{info.name}")
        assert not any(value is scipy.sparse.linalg for value in vars(module).values()), info.name
        assert "sparse.linalg" not in Path(module.__file__).read_text(), info.name


def test_problem_drops_the_patch_matrices(grid44, unit_field44, monkeypatch):
    # build_problem assembles the patch stiffness and weighted mass of all
    # neighborhoods in one call each, the snapshot dual norms included, and
    # holds neither afterwards
    made = []

    def recorded(original):
        def assemble(*args):
            patches = original(*args)
            made.append((weakref.ref(patches), weakref.ref(patches.data)))
            return patches

        return assemble

    for name in ("patch_stiffness", "patch_weighted_mass"):
        monkeypatch.setattr(fine_fem, name, recorded(getattr(fine_fem, name)))
    f_density, g_density = benchmark_densities(grid44)
    problem = adapt.build_problem(
        grid44, unit_field44, f_density, g_density, dual_norm_mode="snapshot"
    )
    assert problem.dual_norms.mode == "snapshot"
    gc.collect()
    assert len(made) == 2
    assert all(ref() is None for pair in made for ref in pair)


def test_problem_holds_no_snapshots_or_eigenvectors():
    # build_problem fills the candidates, and in snapshot mode the zero-trace
    # parts, one neighborhood at a time and drops each snapshot block; a
    # recomputation with every block kept is the oracle.  It multiplies the
    # interior rows only, as build_basis does: a GEMM kernel need not give a
    # row the same bits in a product over all patch rows (OpenBLAS's Haswell
    # kernels do not), and chi_i is zero on the rim, so the rim rows hold no
    # value of a candidate
    grid, field = _channel5()
    densities = benchmark_densities(grid)
    problem = adapt.build_problem(grid, field, *densities, dual_norm_mode="snapshot")
    spectra = problem.space.spectra
    assert all(s.snapshots is None and s.eigenvectors is None for s in spectra)

    data = _offline(grid, field)
    interior, rim = problem.space.neighborhoods.interior, problem.space.neighborhoods.rim
    pairs = list(zip(data["pu"].patches, data["spectra"]))
    expected = np.stack(
        [chi[interior, None] * (s.snapshots[interior] @ s.eigenvectors) for chi, s in pairs]
    )
    assert np.array_equal(problem.space.candidates, expected.transpose(0, 2, 1))
    assert all(np.all(chi[rim] == 0.0) for chi, _ in pairs)
    assert np.array_equal(problem.space.eigenvalues, [s.eigenvalues for s in data["spectra"]])

    cache = problem.dual_norms
    parts = np.stack([s.snapshots[interior] for s in data["spectra"]])
    assert np.array_equal(cache._T, parts)
    oracle = indicators.ResidualNormCache(
        fine_fem.patch_stiffness(field, problem.space.neighborhoods), zero_trace_parts=parts
    )
    assert np.array_equal(cache._pinv, oracle._pinv)


@pytest.mark.parametrize("mode, wide_arrays", [("exact", 1), ("snapshot", 2)])
def test_only_snapshot_mode_allocates_the_zero_trace_parts(mode, wide_arrays, monkeypatch):
    # the candidates are one shared (G, L, m) array of the G solved groups,
    # the snapshot dual norms' (N, m, L) zero-trace parts the other; exact
    # mode allocating the parts too would hold 79.5 MiB more at nc=20, r=10
    shapes = []
    allocate = workers.shared_arrays

    def recorded(*args, **kwargs):
        shapes.extend(args)
        return allocate(*args, **kwargs)

    monkeypatch.setattr(workers, "shared_arrays", recorded)
    space = _offline_problem(mode).space
    N, m = space.neighborhoods.interior_vertices.shape
    G, L = len(space.candidates), space.n_candidates
    assert shapes.count((G, L, m)) + shapes.count((N, m, L)) == wide_arrays
    assert shapes.count((G, L, m)) == 1


def _channel5():
    # the nc=5 channel medium of the offline-stage tests; N = 16
    grid = mesh.GridHierarchy(5, 4)
    return grid, cli.generate_field("channel", 1e4, grid.nf, seed=7)


def _offline_problem(dual_norm_mode="exact"):
    grid, field = _channel5()
    return adapt.build_problem(grid, field, *benchmark_densities(grid), dual_norm_mode=dual_norm_mode)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _log_eigensolves(monkeypatch, log, slow_here=0.0, slow_elsewhere=0.0):
    """Append (pid, neighborhood) of every eigensolve, in whichever process
    runs it, to the file ``log``; returns a function that reads the pairs
    logged since its last call.  Before each eigensolve this process sleeps
    ``slow_here`` seconds and a forked worker ``slow_elsewhere``."""
    here = os.getpid()
    solve = ms_space.local_spectral_decomposition
    log.touch()

    def logged(i, *args):
        with open(log, "a") as out:  # append mode: each line is one atomic write
            out.write(f"{os.getpid()} {i}\n")
        time.sleep(slow_here if os.getpid() == here else slow_elsewhere)
        return solve(i, *args)

    monkeypatch.setattr(ms_space, "local_spectral_decomposition", logged)
    read = 0

    def since():
        nonlocal read
        lines = log.read_text().splitlines()
        pairs = [tuple(map(int, line.split())) for line in lines[read:]]
        read = len(lines)
        return pairs

    return since


@pytest.mark.parametrize("mode", indicators.DUAL_NORM_MODES)
def test_offline_stage_is_bitwise_equal_on_one_and_two_cpus(mode, monkeypatch, tmp_path):
    # on two CPUs every worker draws neighborhoods from one queue and a child
    # solves the fine reference beside them; with this process's eigensolves
    # slowed, the forked worker takes most neighborhoods, not a fixed half
    since = _log_eigensolves(monkeypatch, tmp_path / "eigensolves", slow_here=0.02)
    problems = {}
    for cpus in (1, 2):
        with cpu_affinity(cpus):
            mask = os.sched_getaffinity(0)
            problems[cpus] = _offline_problem(mode)
            assert os.sched_getaffinity(0) == mask  # the workers' pinning is undone
        _assert_no_child_left()
        runs = since()
        N = problems[cpus].space.n_neighborhoods
        assert sorted(i for _, i in runs) == list(range(N))  # each solved once
        here = [i for pid, i in runs if pid == os.getpid()]
        if cpus == 1:
            assert here == list(range(N))
        else:
            assert here == sorted(here) and len(here) < N // 2
    one, two = problems[1], problems[2]
    assert np.array_equal(one.u_ref, two.u_ref)
    assert np.array_equal(one.space.candidates, two.space.candidates)
    assert np.array_equal(one.space.row, two.space.row)
    assert np.array_equal(one.space.eigenvalues, two.space.eigenvalues)
    assert [s.jitter for s in one.space.spectra] == [s.jitter for s in two.space.spectra]
    if mode == "snapshot":
        assert np.array_equal(one.dual_norms._T, two.dual_norms._T)


def test_offline_stage_pins_only_the_forked_children(monkeypatch, tmp_path):
    # every eigensolve this process runs sees the whole two-CPU mask it was
    # called with, and every one a forked worker runs sees that worker's
    # own CPU, the one after this process's first
    log = tmp_path / "masks"
    solve = ms_space.local_spectral_decomposition
    here = os.getpid()

    def recorded(i, *args):
        with open(log, "a") as out:  # append mode: each line is one atomic write
            out.write(" ".join(map(str, [os.getpid(), *sorted(os.sched_getaffinity(0))])) + "\n")
        time.sleep(0.0 if os.getpid() == here else 0.02)  # leave some neighborhoods here
        return solve(i, *args)

    monkeypatch.setattr(ms_space, "local_spectral_decomposition", recorded)
    with cpu_affinity(2):
        mask = os.sched_getaffinity(0)
        problem = _offline_problem()
        assert os.sched_getaffinity(0) == mask
    _assert_no_child_left()
    runs = [list(map(int, line.split())) for line in log.read_text().splitlines()]
    assert len(runs) == problem.space.n_neighborhoods
    assert {tuple(cpus) for pid, *cpus in runs if pid == here} == {tuple(sorted(mask))}
    assert {tuple(cpus) for pid, *cpus in runs if pid != here} == {(sorted(mask)[1],)}


def test_offline_stage_forks_no_worker_beside_other_threads(monkeypatch, tmp_path):
    since = _log_eigensolves(monkeypatch, tmp_path / "eigensolves")
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    with cpu_affinity(2):
        other.start()
        try:
            problem = _offline_problem()
        finally:
            release.set()
            other.join(timeout=10)
    assert not other.is_alive()
    assert since() == [(os.getpid(), i) for i in range(problem.space.n_neighborhoods)]


def _failure_message(cpus, kind):
    """The message of the ``kind`` error that building the nc=5 problem on
    ``cpus`` CPUs raises, checking that the affinity mask is restored and
    that no child is left."""
    with cpu_affinity(cpus):
        mask = os.sched_getaffinity(0)
        with pytest.raises(kind) as failure:
            _offline_problem()
        assert os.sched_getaffinity(0) == mask
    _assert_no_child_left()
    return str(failure.value)


def test_fault_ids_share_their_inputs_with_no_other_neighborhood():
    # the fault tests below inject at neighborhoods 3, 5 and 13 by id, which
    # reaches only a solved neighborhood: each of them must be a group of one
    same = _offline(*_channel5())["same"]
    assert [np.flatnonzero(same == same[v]).tolist() for v in (3, 5, 13)] == [[3], [5], [13]]


def _indefinite_mass_at(vertices, monkeypatch, delay_elsewhere=0.0):
    """Make the local mass of each neighborhood in ``vertices`` negative
    definite.  In a forked worker, the eigensolve of the first of them
    sleeps ``delay_elsewhere`` seconds before it fails."""
    here = os.getpid()
    solve = ms_space.local_spectral_decomposition

    def failing(i, patch_A, patch_S, snapshots):
        if i == vertices[0] and os.getpid() != here:
            time.sleep(delay_elsewhere)
        return solve(i, patch_A, -patch_S if i in vertices else patch_S, snapshots)

    monkeypatch.setattr(ms_space, "local_spectral_decomposition", failing)


@pytest.mark.parametrize(
    "vertices, slow_here, delay, first_ran_here",
    [
        ((13,), True, 0.0, {13: False}),
        ((13,), False, 0.0, {13: True}),
        ((5, 13), True, 1.0, {5: False, 13: True}),
    ],
    ids=["failure-in-child", "failure-here", "higher-failure-here-first"],
)
def test_offline_failure_raises_the_serial_error(
    vertices, slow_here, delay, first_ran_here, monkeypatch, tmp_path
):
    # N = 16 at nc=5.  With this process's eigensolves slowed the forked
    # worker draws neighborhood 13, and with the worker's slowed this process
    # does.  A neighborhood that fails in the child is solved again here, so
    # the error is the serial one.  In the last case the child is still on
    # neighborhood 5 when this process fails on 13, and the lower one's
    # error is raised, as in a serial run.
    _indefinite_mass_at(vertices, monkeypatch, delay)
    serial = _failure_message(1, ms_space.OfflineFailure)
    expected = f"neighborhood {vertices[0]}: local mass matrix numerically indefinite"
    assert serial.startswith(expected)
    slowed = {"slow_here" if slow_here else "slow_elsewhere": 0.05}
    since = _log_eigensolves(monkeypatch, tmp_path / "eigensolves", **slowed)
    assert _failure_message(2, ms_space.OfflineFailure) == serial
    runs = since()
    # on two CPUs: which process first ran each failing neighborhood, and
    # that the lowest ran again here
    ran_here = {v: [pid == os.getpid() for pid, i in runs if i == v] for v in vertices}
    assert {v: ran[0] for v, ran in ran_here.items()} == first_ran_here
    assert ran_here[vertices[0]][-1]


def test_failed_fine_reference_wins_over_an_offline_failure(monkeypatch):
    # a serial build solves the fine reference first; on two CPUs the child's
    # failure is solved again here once the offline stage has failed, and its
    # error is raised in place of the neighborhood's
    def stalled(A, b, fixed):
        time.sleep(0.2)  # fail after the offline stage does
        raise fine_fem.SolveFailure("Dirichlet solve stalled at relative residual 1.000e+00")

    monkeypatch.setattr(fine_fem, "solve_dirichlet", stalled)
    _indefinite_mass_at((3,), monkeypatch)
    for cpus in (1, 2):
        message = _failure_message(cpus, fine_fem.SolveFailure)
        assert message == "Dirichlet solve stalled at relative residual 1.000e+00", cpus


def _inclusions_grid_and_field():
    # the criterion-8 inclusions medium at nc=10: 31 of its 81 neighborhoods
    # have the spectral inputs of a lower one, byte for byte
    grid = mesh.GridHierarchy(10, 10)
    return grid, cli.generate_field("inclusions", 1e4, grid.nf, seed=7)


@pytest.fixture(scope="module")
def inclusions_offline():
    return _offline(*_inclusions_grid_and_field())


def _build(grid, field, dual_norm_mode="exact"):
    densities = benchmark_densities(grid)
    return adapt.build_problem(grid, field, *densities, dual_norm_mode=dual_norm_mode)


def _every_candidate(data):
    """The (N, L, m) candidates of _offline's data, one block per
    neighborhood, computed as build_basis computes them."""
    interior = data["neighborhoods"].interior
    candidates = [
        chi[interior, None] * (s.snapshots[interior] @ s.eigenvectors)
        for chi, s in zip(data["pu"].patches, data["spectra"])
    ]
    return np.stack(candidates).transpose(0, 2, 1)


def _assert_bytes_of_every_solve(problem, data):
    """The problem's candidates, read through its row map, eigenvalues,
    jitter and, in snapshot mode, zero-trace parts have the bytes of
    _offline's, which solves every neighborhood."""
    space, spectra = problem.space, data["spectra"]
    interior = space.neighborhoods.interior
    expected = {
        "candidates": (space.candidates[space.row], _every_candidate(data)),
        "eigenvalues": (space.eigenvalues, np.stack([s.eigenvalues for s in spectra])),
        "jitter": (space.jitter, np.array([s.jitter for s in spectra])),
    }
    if problem.dual_norms.mode == "snapshot":
        parts = np.stack([s.snapshots[interior] for s in spectra])
        expected["parts"] = (problem.dual_norms._T, parts)
    for name, (found, oracle) in expected.items():
        assert found.shape == oracle.shape and found.tobytes() == oracle.tobytes(), name


@pytest.mark.parametrize("mode", indicators.DUAL_NORM_MODES)
def test_repeated_inputs_are_solved_once_and_change_no_byte(
    mode, inclusions_offline, monkeypatch, tmp_path
):
    # one eigensolve per group of neighborhoods with byte-equal inputs, for
    # its lowest member, on every worker count; the candidates hold one block
    # per group, in the order of the lowest members, which the row map names
    same = inclusions_offline["same"]
    groups = np.flatnonzero(same == np.arange(len(same)))
    assert (len(same), len(groups)) == (81, 50)
    since = _log_eigensolves(monkeypatch, tmp_path / "eigensolves")
    for cpus in (1, 2):
        with cpu_affinity(cpus):
            problem = _build(*_inclusions_grid_and_field(), mode)
        _assert_no_child_left()
        assert sorted(i for _, i in since()) == groups.tolist(), cpus
        assert problem.space.candidates.shape[0] == 50
        assert np.array_equal(groups[problem.space.row], same)
        _assert_bytes_of_every_solve(problem, inclusions_offline)


@pytest.mark.parametrize("mode", indicators.DUAL_NORM_MODES)
def test_the_row_map_reads_the_bytes_of_every_solve(mode, inclusions_offline):
    # the basis of every candidate and a goal_dwr report read through the
    # row map are bitwise those of a space over the full (N, L, m) array of
    # _offline, which solves every neighborhood, under the identity map
    data = inclusions_offline
    full = _every_candidate(data)
    N, L, _ = full.shape
    oracle = ms_space.OfflineSpace(
        data["pu"],
        np.stack([s.eigenvalues for s in data["spectra"]]),
        np.array([s.jitter for s in data["spectra"]]),
        full,
        np.arange(N),
        np.ones(N, dtype=int),
    )
    for cpus in (1, 2):
        with cpu_affinity(cpus):
            problem = _build(*_inclusions_grid_and_field(), mode)
        _assert_no_child_left()
        assert len(problem.space.candidates) < N
        every = [s.basis_columns(np.full(N, L)) for s in (problem.space, oracle)]
        for name in ("indptr", "indices", "data"):
            assert getattr(every[0], name).tobytes() == getattr(every[1], name).tobytes()

        A, f_load, g_load = problem.stiffness, problem.f_load, problem.g_load
        reports = []
        for offline in (problem.space, oracle):
            space = offline.extended(1)
            u = coarse_solve.solve_primal(coarse_solve.assemble_coarse(space, A, f_load))
            enriched = space.extended(2)
            z = coarse_solve.solve_dual(coarse_solve.assemble_coarse(enriched, A, f_load), g_load)
            residual = indicators.fine_residual(A, f_load, u.fine)
            reports.append(indicators.eta_dwr(space, residual, z))
        mapped, own = reports
        assert mapped.eta_sq.tobytes() == own.eta_sq.tobytes(), cpus
        assert mapped.signed.tobytes() == own.signed.tobytes(), cpus
        assert np.any(mapped.signed != 0.0)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_group_raises_its_lowest_members_error(
    cpus, inclusions_offline, monkeypatch, tmp_path
):
    # every member of one group gets the same negated patch mass row, so the
    # members stay one group and each would fail; the lowest fails first, on
    # every worker count, and no other member is solved
    same = inclusions_offline["same"]
    first = same[same != np.arange(len(same))].min()
    members = np.flatnonzero(same == first)
    assemble = fine_fem.patch_weighted_mass

    def indefinite(weight, neighborhoods):
        patch_S = assemble(weight, neighborhoods)
        patch_S.data[members] = -patch_S.data[members]
        return patch_S

    monkeypatch.setattr(fine_fem, "patch_weighted_mass", indefinite)
    since = _log_eigensolves(monkeypatch, tmp_path / "eigensolves")
    with cpu_affinity(cpus):
        with pytest.raises(ms_space.OfflineFailure) as failure:
            _build(*_inclusions_grid_and_field())
    _assert_no_child_left()
    assert str(failure.value).startswith(
        f"neighborhood {first}: local mass matrix numerically indefinite"
    )
    solved = {i for _, i in since()}
    assert first in solved and solved.isdisjoint(members[1:])


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_field_without_repeats_solves_every_neighborhood_once(cpus, monkeypatch, tmp_path):
    grid = mesh.GridHierarchy(6, 4)
    values = np.exp(np.random.default_rng(3).normal(size=(grid.nf, grid.nf)))
    field = fine_fem.CoefficientField(values)
    since = _log_eigensolves(monkeypatch, tmp_path / "eigensolves")
    with cpu_affinity(cpus):
        problem = _build(grid, field)
    _assert_no_child_left()
    assert sorted(i for _, i in since()) == list(range(problem.space.n_neighborhoods))


def test_loop_frees_each_coarse_system_before_the_next(small_problem, monkeypatch):
    # a system holds its basis, its matrix and its band factor: no earlier
    # one may be alive when the next is built, in any strategy
    alive, seen = weakref.WeakSet(), []

    class Tracked(coarse_solve.CoarseSystem):
        def __init__(self, *args):
            seen.append(len(alive))
            alive.add(self)
            super().__init__(*args)

    monkeypatch.setattr(coarse_solve, "CoarseSystem", Tracked)
    cfg = MarkingConfig(max_iterations=3)
    for strategy in adapt.STRATEGIES:
        trace = adapt.adapt_loop(small_problem, strategy, cfg)
        assert len(trace.rows) == 3
    assert len(seen) == 3 + 3 + 2 * 3
    assert seen == [0] * len(seen)


def test_loop_stop_conditions(small_problem):
    initial_dofs = small_problem.space.total_dofs
    capped = adapt.adapt_loop(
        small_problem, "standard", MarkingConfig(max_iterations=9, dof_cap=initial_dofs)
    )
    assert len(capped.rows) == 1
    assert capped.stop_reason == "dof cap reached"

    tol = adapt.adapt_loop(
        small_problem, "standard", MarkingConfig(max_iterations=9, goal_tol=1.0)
    )
    assert len(tol.rows) == 1
    assert tol.stop_reason == "goal tolerance reached"

    out = adapt.adapt_loop(small_problem, "standard", MarkingConfig(max_iterations=3))
    assert out.stop_reason == "max iterations"


def test_loop_rejects_unknown_strategy(small_problem):
    with pytest.raises(ValueError):
        adapt.adapt_loop(small_problem, "uniform", MarkingConfig())


def test_loop_annotates_solver_failures(small_problem):
    space = small_problem.space.extended(1)
    candidates = space.candidates[space.row]
    candidates[2, 1] = candidates[2, 0]  # duplicated basis function
    broken_space = identity_map_space(space, candidates)
    broken = adapt.ProblemSetup(
        small_problem.stiffness,
        small_problem.f_load,
        small_problem.g_load,
        broken_space,
        small_problem.u_ref,
        small_problem.dual_norms,
    )
    with pytest.raises(adapt.AdaptFailure, match="standard iteration 0"):
        adapt.adapt_loop(broken, "standard", MarkingConfig(max_iterations=2))


def test_loop_dwr_requires_m(small_problem):
    with pytest.raises(ValueError):
        adapt.adapt_loop(small_problem, "goal_dwr", MarkingConfig(m_enrich=0, max_iterations=1))


def test_loop_snapshot_norm_mode_runs(grid44, unit_field44):
    f_density, g_density = benchmark_densities(grid44)
    problem = adapt.build_problem(
        grid44, unit_field44, f_density, g_density, dual_norm_mode="snapshot"
    )
    trace = adapt.adapt_loop(problem, "goal_h1", MarkingConfig(max_iterations=3))
    assert len(trace.rows) == 3
    assert np.all(np.diff(trace.column("energy_error")) <= 1e-12)


def test_loop_collects_reports(small_problem):
    # dump_indicators numbers the reports by position: one report per row
    for strategy in adapt.STRATEGIES:
        trace = adapt.adapt_loop(small_problem, strategy, MarkingConfig(max_iterations=4))
        reports, rows = trace.reports, trace.rows
        assert len(reports) == len(rows) == 4
        for report, row in zip(reports, rows):
            assert report.strategy == strategy
            assert report.counts.sum() == row.dofs
            assert report.total == row.sum_eta_sq
            assert (report.signed is not None) == (strategy == "goal_dwr")


@pytest.mark.parametrize("strategy", adapt.STRATEGIES)
def test_kept_trace_pins_no_problem(tmp_path, grid44, unit_field44, strategy):
    # a trace holds N values per iteration: once its problem is gone, the
    # candidate mapping is freed, and the trace still dumps the same bytes.
    # The problem is the test's own, since the shared fixtures stay alive.
    problem = adapt.build_problem(grid44, unit_field44, *benchmark_densities(grid44))
    trace = adapt.adapt_loop(problem, strategy, MarkingConfig(max_iterations=3))
    candidates = weakref.ref(problem.space.candidates)
    indicators.dump_indicators(trace.reports, tmp_path / "before.csv")
    del problem
    gc.collect()
    assert candidates() is None
    indicators.dump_indicators(trace.reports, tmp_path / "after.csv")
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()


def test_run_experiment_traces_pin_no_problem(tmp_path, monkeypatch):
    # the traces run_experiment returns outlive its problem's offline arrays
    made = []
    build_basis = ms_space.build_basis

    def recorded(*args):
        space = build_basis(*args)
        made.append(weakref.ref(space.candidates))
        return space

    monkeypatch.setattr(ms_space, "build_basis", recorded)
    config = cli.ExperimentConfig(nc=5, r=4, out_dir=str(tmp_path), max_iterations=3)
    traces = cli.run_experiment(config, verbose=False)
    gc.collect()
    assert len(made) == 1
    assert made[0]() is None
    assert sorted(traces) == sorted(adapt.STRATEGIES)
    assert all(len(trace.reports) == 3 for trace in traces.values())


def test_estimator_effectivity_stays_in_band(channel_problem):
    # upper-bound sanity: sum(eta^2) / ||u_h - u_ms||_V^2 should sit in a
    # bounded band across iterations; the constant is unknown, so excursions
    # are flagged for review rather than failed
    import warnings

    cfg = MarkingConfig(max_iterations=10)
    standard = adapt.adapt_loop(channel_problem, "standard", cfg)
    ratios = standard.column("sum_eta_sq") / standard.column("energy_error") ** 2
    assert np.all(np.isfinite(ratios))
    if ratios.min() < 1e-2 or ratios.max() > 1e4:
        warnings.warn(
            f"standard-indicator effectivity left [1e-2, 1e4]: "
            f"[{ratios.min():.3e}, {ratios.max():.3e}]",
            RuntimeWarning,
        )

    goal = adapt.adapt_loop(channel_problem, "goal_h1", cfg)
    goal_ratios = goal.column("goal_error") / goal.column("sum_eta_sq")
    assert np.all(np.isfinite(goal_ratios))


def test_dwr_trace_independent_of_store_history(tmp_path):
    # the Galerkin store of a problem is shared by its strategies: goal_dwr on
    # a store grown by standard and goal_h1 must trace exactly as on a fresh one
    grid = mesh.GridHierarchy(5, 4)
    field = cli.generate_field("channel", 1e3, grid.nf, seed=9)
    f_density, g_density = benchmark_densities(grid)
    cfg = MarkingConfig(max_iterations=8)
    paths = []
    for history in (("standard", "goal_h1"), ()):
        problem = adapt.build_problem(grid, field, f_density, g_density)
        for strategy in history:
            adapt.adapt_loop(problem, strategy, cfg)
        assert (problem.galerkin_store.have.sum() > 0) == bool(history)
        paths.append(tmp_path / f"dwr_{len(history)}.csv")
        adapt.write_trace_csv(adapt.adapt_loop(problem, "goal_dwr", cfg), paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _assert_unchanged(obj, attributes):
    """``vars(obj)`` holds the keys and the very objects of ``attributes``."""
    assert vars(obj).keys() == attributes.keys(), type(obj).__name__
    for name, value in attributes.items():
        assert vars(obj)[name] is value, (type(obj).__name__, name)


def test_online_objects_are_complete_at_construction(grid44, unit_field44):
    # a coarse system is factored, a grid holds its cell table and a problem
    # its Galerkin store and dual-norm cache, in either mode, from
    # construction on: using them changes no attribute
    grid = mesh.GridHierarchy(4, 4)
    attributes = dict(vars(grid))
    grid.cell_vertex_table()
    _assert_unchanged(grid, attributes)

    problem = adapt.build_problem(grid44, unit_field44, *benchmark_densities(grid44))
    system = coarse_solve.assemble_coarse(problem.space, problem.stiffness, problem.f_load)
    attributes = dict(vars(system))
    coarse_solve.solve_primal(system)
    coarse_solve.solve_dual(system, problem.g_load)
    _assert_unchanged(system, attributes)

    snapshot = adapt.build_problem(
        grid44, unit_field44, *benchmark_densities(grid44), dual_norm_mode="snapshot"
    )
    for problem in (problem, snapshot):
        store = problem.galerkin_store
        attributes = dict(vars(problem))
        for strategy in adapt.STRATEGIES:
            adapt.adapt_loop(problem, strategy, MarkingConfig(max_iterations=3))
            assert problem.galerkin_store is store, strategy
        _assert_unchanged(problem, attributes)


def test_trace_csv_schema_and_determinism(tmp_path, small_problem):
    cfg = MarkingConfig(max_iterations=4)
    trace = adapt.adapt_loop(small_problem, "standard", cfg)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    adapt.write_trace_csv(trace, p1)
    adapt.write_trace_csv(adapt.adapt_loop(small_problem, "standard", cfg), p2)
    text = p1.read_text()
    assert text.splitlines()[0] == (
        "strategy,iteration,dofs,energy_error,goal_error,sum_eta_sq,marked_count"
    )
    assert len(text.splitlines()) == 5
    assert text == p2.read_text()  # byte-identical across repeated runs


def test_stress_slice_ends_in_named_outcomes():
    # a fixed slice of small problems (tests/stress.py): every run finishes
    # or ends in a named solver failure; no count is asserted, and the slice
    # is not tuned to change an outcome
    cases = [
        stress.Case(nc, 5, kind, contrast, 0, "exact")
        for nc in (4, 5)
        for kind in ("channel", "inclusions")
        for contrast in (1e2, 1e8)
    ]
    runs = stress.run_slice(cases)
    assert len(runs) == 24
    assert [run for run in runs if run.outcome == stress.UNNAMED] == []
    for run in runs:
        if run.energy is not None:
            # the energy error rises by at most ENERGY_RISE_TOL = 1e-8 of its
            # initial value (round-off; this slice peaks at 1.29e-9)
            rise = np.diff(run.energy).max(initial=0.0)
            assert rise <= stress.ENERGY_RISE_TOL * run.energy[0], run
    print(stress.outcome_table(runs))