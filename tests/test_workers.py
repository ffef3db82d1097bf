import ast
import contextlib
import importlib
import os
import pkgutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import gmsfem
from gmsfem import adapt, fine_fem, indicators, workers
from gmsfem.adapt import AdaptFailure, MarkingConfig

from conftest import cpu_affinity


@pytest.mark.parametrize("n", [16, 5000])
def test_fill_queued_runs_every_id_once(n):
    # above 1024 ids the queue holds chunk starts (5 ids a chunk at n=5000);
    # every id runs exactly once, here or in the forked worker
    runs, pids = workers.shared_arrays((n,), (n,))
    here = os.getpid()

    def fill(i):
        runs[i] += 1
        pids[i] = os.getpid()
        time.sleep(1e-4 if os.getpid() == here else 0.0)

    with cpu_affinity(2):
        workers.fill_queued(n, fill)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert np.all(runs == 1)
    assert here in pids and len(set(pids)) == 2


def test_worker_cpus_right_after_a_thread_ends():
    # /proc/self/task can still list a thread that join() has returned from;
    # one thread at a time, each cycle must still leave the process free to fork
    with cpu_affinity(2):
        for _ in range(200):
            thread = threading.Thread(target=lambda: None)
            thread.start()
            thread.join()
            assert workers.worker_cpus() is not None


def _calls(node, name):
    """The calls of ``name`` (as written, e.g. "os.fork") under ``node``."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call) and ast.unparse(n.func) == name]


def test_only_workers_forks_and_only_its_children_pin(small_problem):
    # _forked is the one place that forks, and the one call that changes an
    # affinity mask is _pin, which pins the calling thread only: its callers
    # are _forked's child branch and the helper thread, so no caller's mask
    # changes, also not across an adapt_loop that runs a helper
    for info in pkgutil.iter_modules(gmsfem.__path__):
        if info.name != "workers":
            source = Path(importlib.import_module(f"gmsfem.{info.name}").__file__).read_text()
            for name in ("os.fork", "sched_setaffinity"):
                assert name not in source, (info.name, name)
    source = Path(workers.__file__).read_text()
    assert source.count("sched_setaffinity") == 1
    tree = ast.parse(source)
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert len(_calls(functions["_pin"], "os.sched_setaffinity")) == 1
    forked = functions["_forked"]
    branches = [n for n in ast.walk(forked) if isinstance(n, ast.If)]
    child = next(n for n in branches if ast.unparse(n.test) == "pid == 0")
    assert len(_calls(child, "_pin")) == len(_calls(functions["_serve"], "_pin")) == 1
    assert len(_calls(tree, "_pin")) == 2
    assert len(_calls(tree, "os.fork")) == len(_calls(forked, "os.fork")) == 1
    with cpu_affinity(2):
        mask = os.sched_getaffinity(0)
        adapt.adapt_loop(small_problem, "goal_h1", MarkingConfig(max_iterations=3))
        assert os.sched_getaffinity(0) == mask


def test_shared_arrays_read_as_zeros_before_any_write():
    a, b = workers.shared_arrays((3, 4), (5,))
    (flags,) = workers.shared_arrays((7,), dtype=bool)
    assert a.shape == (3, 4) and b.shape == (5,) and flags.dtype == bool
    assert not a.any() and not b.any() and not flags.any()
    assert not np.shares_memory(a, b)


def _assert_clean(mask):
    """No child of this process is left, and its affinity mask is ``mask``."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == mask


def _slow_elsewhere(seconds, then=None):
    """A function that sleeps ``seconds`` in any process but this one, and
    then returns ``then()`` (None if not given)."""
    here = os.getpid()

    def run(*args):
        if os.getpid() != here:
            time.sleep(seconds)
        return None if then is None else then()

    return run


@contextlib.contextmanager
def _interrupt_after(seconds):
    """Raise KeyboardInterrupt in this process ``seconds`` into the block."""

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_fill_queued_of_no_ids_returns_at_once():
    calls = []
    with cpu_affinity(2):
        workers.fill_queued(0, calls.append)
    assert calls == []


def test_interrupt_in_fill_queued_draw_kills_every_child():
    # the forked worker sleeps on each id it draws; this process's first
    # draw raises, and the worker must not be waited for
    here = os.getpid()

    def fill(i):
        if os.getpid() == here:
            raise KeyboardInterrupt
        time.sleep(30)

    with cpu_affinity(2):
        mask = os.sched_getaffinity(0)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            workers.fill_queued(2, fill)
        assert time.perf_counter() - start < 10
        _assert_clean(mask)


def test_interrupt_while_fill_queued_waits_kills_the_child():
    # the forked worker sleeps on the first id it draws; this process waits
    # for it to start, draws every other id, and is interrupted in the wait
    n = 16
    here = os.getpid()
    (started,) = workers.shared_arrays((1,), dtype=bool)
    ran_here = []

    def fill(i):
        if os.getpid() != here:
            started[0] = True
            time.sleep(30)
        deadline = time.perf_counter() + 5
        while not started[0] and time.perf_counter() < deadline:
            time.sleep(1e-3)
        ran_here.append(i)

    with cpu_affinity(2):
        mask = os.sched_getaffinity(0)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt), _interrupt_after(1.0):
            workers.fill_queued(n, fill)
        assert time.perf_counter() - start < 10
        _assert_clean(mask)
    assert started[0] and len(ran_here) == n - 1  # this process's draw was over


def test_interrupt_in_beside_body_kills_the_child():
    with cpu_affinity(2):
        mask = os.sched_getaffinity(0)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            with workers.Beside(_slow_elsewhere(30, lambda: np.ones(3)), 3):
                raise KeyboardInterrupt
        assert time.perf_counter() - start < 10
        _assert_clean(mask)


def test_interrupt_while_beside_waits_kills_the_child():
    with cpu_affinity(2):
        mask = os.sched_getaffinity(0)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt), _interrupt_after(0.5):
            with workers.Beside(_slow_elsewhere(30, lambda: np.ones(3)), 3):
                pass
        assert time.perf_counter() - start < 10
        _assert_clean(mask)


def _failing_fork():
    raise OSError("fork refused")


def test_fill_queued_runs_every_id_here_when_no_child_forks(monkeypatch):
    n = 16
    runs, pids = workers.shared_arrays((n,), (n,))

    def fill(i):
        runs[i] += 1
        pids[i] = os.getpid()

    monkeypatch.setattr(os, "fork", _failing_fork)
    with cpu_affinity(2):
        mask = os.sched_getaffinity(0)
        workers.fill_queued(n, fill)
        _assert_clean(mask)
    assert np.all(runs == 1) and np.all(pids == os.getpid())


def test_beside_computes_here_when_no_child_forks(monkeypatch):
    monkeypatch.setattr(os, "fork", _failing_fork)
    with cpu_affinity(2):
        mask = os.sched_getaffinity(0)
        with workers.Beside(lambda: np.arange(4.0), 4) as beside:
            pass
        _assert_clean(mask)
    assert np.array_equal(beside.result, np.arange(4.0))


@pytest.mark.parametrize("cpus", [1, 2])
def test_beside_result_is_read_after_the_block(cpus):
    with cpu_affinity(cpus):
        mask = os.sched_getaffinity(0)
        with workers.Beside(_slow_elsewhere(0.1, lambda: np.arange(5.0)), 5) as beside:
            pass
        _assert_clean(mask)
    assert np.array_equal(beside.result, np.arange(5.0))


def _compute_error():
    raise ValueError("compute failed")


@pytest.mark.parametrize("cpus", [1, 2])
def test_beside_compute_error_replaces_the_body_error(cpus):
    # as in a serial run, which computes before the body
    with cpu_affinity(cpus):
        mask = os.sched_getaffinity(0)
        with pytest.raises(ValueError, match="compute failed"):
            with workers.Beside(_slow_elsewhere(0.1, _compute_error), 2):
                raise RuntimeError("body failed")
        _assert_clean(mask)


@pytest.mark.parametrize("cpus", [1, 2])
def test_beside_body_error_propagates_when_compute_succeeds(cpus):
    with cpu_affinity(cpus):
        mask = os.sched_getaffinity(0)
        with pytest.raises(RuntimeError, match="body failed"):
            with workers.Beside(_slow_elsewhere(0.1, lambda: np.zeros(2)), 2):
                raise RuntimeError("body failed")
        _assert_clean(mask)


_BLAS_PROBE = """
import os
import numpy as np
from gmsfem import adapt, workers  # loads numpy's and scipy's OpenBLAS

def state():
    return [get() for get, _, _ in workers._openblas()], len(os.listdir("/proc/self/task"))

print(state())
with workers.one_blas_thread():
    print(state())
print(state())
try:
    with workers.one_blas_thread():
        raise KeyError("body failed")
except KeyError:
    pass
print(state())
a = np.ones((400, 400))
a @ a
print(state())
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_one_blas_thread_shuts_the_pools_and_restores_the_counts(threads):
    # in a fresh process, since OpenBLAS sizes its pool when it loads; unpinned,
    # since OpenBLAS starts no more threads than the affinity mask has CPUs
    if not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs /proc/self/task and two CPUs in the affinity mask")
    src = str(Path(gmsfem.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    before, inside, returned, raised, reused = map(ast.literal_eval, result.stdout.splitlines())
    counts, tasks = before
    if not counts:
        pytest.skip("numpy and scipy bundle no OpenBLAS this knows")
    assert counts == [threads] * len(counts)
    assert inside == ([1] * len(counts), 1)
    assert returned[0] == raised[0] == counts
    if threads == 1:
        assert tasks == returned[1] == raised[1] == reused[1] == 1
    else:
        assert tasks == 1 + len(counts)  # one pool thread per library beside this one
        assert reused[1] > 1  # a threaded call after the block runs a pool again


def _fails(message):
    def run():
        raise ValueError(message)

    return run


@pytest.mark.parametrize("cpus", [1, 2])
def test_split_returns_both_results_and_the_error_a_serial_run_meets_first(cpus):
    # there() runs on the helper, pinned to the last CPU, where there is one,
    # and after here() on this thread where there is none; an error of
    # there() reaches the caller, and where both fail, here()'s wins
    ran = []

    def here():
        ran.append(("here", threading.get_ident()))
        return "mine"

    def there():
        ran.append(("there", threading.get_ident(), frozenset(os.sched_getaffinity(0))))
        return "theirs"

    with cpu_affinity(cpus):
        mask = os.sched_getaffinity(0)
        with workers.helper_thread():
            assert workers.split(here, there) == ("mine", "theirs")
            with pytest.raises(ValueError, match="there failed"):
                workers.split(here, _fails("there failed"))
            with pytest.raises(ValueError, match="here failed"):
                workers.split(_fails("here failed"), _fails("there failed"))
            # a split on the helper itself has no helper: it runs serially there
            nested = workers.split(lambda: 1, lambda: workers.split(lambda: 2, lambda: 3))
            assert nested == (1, (2, 3))
        assert os.sched_getaffinity(0) == mask
    this = threading.get_ident()
    if cpus == 1:
        assert ran == [("here", this), ("there", this, frozenset(mask)), ("here", this)]
    else:
        (there_ran,) = [entry for entry in ran if entry[0] == "there"]
        assert there_ran[1] != this and there_ran[2] == {max(mask)}


@pytest.mark.parametrize("fails", [False, True])
def test_adapt_loop_joins_its_helper_thread_when_it_returns_or_raises(
    channel_problem, monkeypatch, fails
):
    # the helper solves the upper chunks of the 5-chunk dual-norm stack pinned
    # to the last CPU of the mask, and is gone when adapt_loop is left, so the
    # process may fork again
    solved = []
    pbtrs = fine_fem._pbtrs

    def recorded(ab, b):
        solved.append((threading.get_ident(), frozenset(os.sched_getaffinity(0))))
        return pbtrs(ab, b)

    def fail(space, primal_norms):
        raise fine_fem.SolveFailure("indicator failed")

    monkeypatch.setattr(fine_fem, "_pbtrs", recorded)
    if fails:
        monkeypatch.setattr(indicators, "eta_standard", fail)
    with cpu_affinity(2):
        mask = os.sched_getaffinity(0)
        threads = threading.active_count()
        with pytest.raises(AdaptFailure) if fails else contextlib.nullcontext():
            adapt.adapt_loop(channel_problem, "standard", MarkingConfig(max_iterations=3))
        assert threading.active_count() == threads
        assert workers.worker_cpus() is not None
        assert os.sched_getaffinity(0) == mask
    elsewhere = {cpus for ident, cpus in solved if ident != threading.get_ident()}
    assert elsewhere == {frozenset({max(mask)})}


def test_interrupt_in_split_waits_for_the_helper_job_and_ends_the_thread():
    # the job the helper runs is not cut off: the interrupt is raised once it
    # has ended, and the block's exit still joins the thread
    ended = []

    def there():
        time.sleep(0.2)
        ended.append(True)

    def here():
        raise KeyboardInterrupt

    with cpu_affinity(2):
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt), workers.helper_thread():
            workers.split(here, there)
        assert ended == [True]
        assert threading.active_count() == threads


def test_split_hands_every_result_back_under_fast_thread_switching():
    # 2000 hand-offs with the interpreter switching threads every microsecond:
    # each split returns its own two results, and the halves written by the
    # two threads into one array never overwrite each other
    out = np.zeros((2000, 2))

    def half(k, side):
        def run():
            out[k, side] = k + side
            return (k, side)

        return run

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with cpu_affinity(2), workers.helper_thread():
            start = time.perf_counter()
            results = [workers.split(half(k, 0), half(k, 1)) for k in range(len(out))]
            assert time.perf_counter() - start < 60
    finally:
        sys.setswitchinterval(previous)
    assert results == [((k, 0), (k, 1)) for k in range(len(out))]
    assert np.array_equal(out, np.arange(len(out))[:, None] + np.arange(2))
