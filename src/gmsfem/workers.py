"""Forked workers of the offline stage, one per CPU of the affinity mask, and
the online loop's helper thread on the last of those CPUs.

A process forks workers only where that is safe and can help (worker_cpus):
the platform has os.fork and os.sched_getaffinity, the process runs one
thread, and its affinity mask holds more than one CPU.  Forking a process
with threads can deadlock on a lock another thread holds, and a
multi-threaded BLAS pool (which OpenBLAS starts at import when it may use
more than one thread) would compete with the workers for the same CPUs;
one_blas_thread shuts numpy's and scipy's pools for a block, so a process
at the default thread count forks as one at OPENBLAS_NUM_THREADS=1 does.
Elsewhere every call here runs its work in this process, in serial order.

- fill_queued runs fill(i) for every i in range(n) on one worker per CPU,
  this process included, each drawing ids from one queue, so a worker whose
  CPU is busy with other work simply takes fewer.
- Beside runs one computation in a child on the last CPU while the body of
  a ``with`` block runs here.
- helper_thread runs its ``with`` block beside a ThreadPoolExecutor of one
  thread, pinned to the last CPU, and split(here, there) submits there() to
  it while here() runs on the calling thread.  The split work releases the
  GIL in its LAPACK and array kernels, so the two halves overlap; each
  caller gives the helper the shorter half, whose results are small, and
  keeps the longer one, which allocates most.  Without
  a helper (worker_cpus gives None, or the caller is not the thread that
  started it) split runs here() and then there(), in this thread.

Workers write their results only into anonymous shared mappings
(shared_arrays) made before the fork, so nothing is sent back.  Each forked
child, and the helper thread, is pinned to its own CPU (left to the
scheduler, a forked child often ran on its parent's CPU while another CPU
idled) by one call, _pin, which sets the mask of the calling thread only;
the caller's mask is never changed.  fill_queued and Beside share one child
lifecycle (_forked): a child exits through os._exit, so it never returns
into the caller or flushes inherited buffers, and no child outlives the
call or block that forked it.  They share one failure rule too: each
finished piece of work is flagged in a shared mapping, and once every child
is reaped this process reruns the unflagged work in ascending order, so a
failure is always the one a serial run raises.
"""

import concurrent.futures
import contextlib
import ctypes
import mmap
import os
import select
import signal
import sys
import threading
import time
import types

import numpy as np

__all__ = [
    "worker_cpus",
    "one_blas_thread",
    "shared_arrays",
    "fill_queued",
    "Beside",
    "helper_thread",
    "split",
]

# Bytes per entry of fill_queued's queue: a little-endian uint32 id.
_TOKEN = 4


def _single_threaded():
    """Whether this process runs one OS thread (read from /proc/self/task).
    A thread that join() has returned from can still be listed for a moment,
    so while Python counts one thread the list is read up to 50 times."""
    for _ in range(50):
        try:
            tasks = len(os.listdir("/proc/self/task"))
        except OSError:
            return False
        if tasks == 1 or threading.active_count() > 1:
            return tasks == 1
        time.sleep(1e-4)
    return False


def worker_cpus():
    """The CPUs of this process's affinity mask, ascending, if it may fork
    workers onto them (see the module docstring); None otherwise, and on a
    mask of one CPU."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and _single_threaded()):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return cpus if len(cpus) > 1 else None


def _pin(cpu):
    """Pin the calling thread, and only it, to ``cpu``."""
    os.sched_setaffinity(0, [cpu])


def _openblas():
    """(get, set, shutdown) thread functions of each OpenBLAS that numpy and
    scipy bundle in their own ``<package>.libs`` directories and that this
    process has loaded; none elsewhere."""
    found = []
    if not hasattr(os, "RTLD_NOLOAD"):
        return found
    for package in ("numpy", "scipy"):
        if package not in sys.modules:
            continue
        site = os.path.dirname(os.path.dirname(sys.modules[package].__file__))
        libs = os.path.join(site, package + ".libs")
        names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
        for name in (name for name in names if name.startswith("libscipy_openblas")):
            symbol = "scipy_openblas_{}_num_threads" + ("64_" if "openblas64_" in name else "")
            try:
                lib = ctypes.CDLL(os.path.join(libs, name), mode=os.RTLD_NOLOAD)
                get, set_threads = (getattr(lib, symbol.format(op)) for op in ("get", "set"))
                shutdown = lib.blas_thread_shutdown_
            except (OSError, AttributeError):
                continue  # not loaded, or not an OpenBLAS this knows
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            found.append((get, set_threads, shutdown))
    return found


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's and scipy's OpenBLAS at one thread and
    their thread pools shut.

    A library that reports more than one thread is set to one and its pool
    is shut (blas_thread_shutdown_), so its threads end and worker_cpus lets
    this process fork; at one thread no BLAS call restarts the pool.  Every
    result is then that of a run at OPENBLAS_NUM_THREADS=1.  The counts are
    restored when the block is left, whether it returns or raises, and a
    later threaded call restarts the pool.  A library already at one thread
    is only read, and where no known OpenBLAS is loaded this does nothing.
    Also usable as a decorator.
    """
    saved = []
    for get, set_threads, shutdown in _openblas():
        count = get()
        if count > 1:
            set_threads(1)
            shutdown()
            saved.append((set_threads, count))
    try:
        yield
    finally:
        for set_threads, count in saved:
            set_threads(count)


def shared_arrays(*shapes, dtype=float):
    """Arrays of the given shapes in one anonymous shared mapping, which
    forked children write into.

    The mapping reads as zeros.  No page is touched here: each becomes
    resident when a worker first writes it, so a child forked earlier does
    not find the whole mapping resident beside its own memory.
    """
    sizes = [int(np.prod(shape)) for shape in shapes]
    whole = np.frombuffer(mmap.mmap(-1, np.dtype(dtype).itemsize * sum(sizes)), dtype=dtype)
    pieces = np.split(whole, np.cumsum(sizes)[:-1])
    return [piece.reshape(shape) for piece, shape in zip(pieces, shapes)]


def _queue(n):
    """(read end, chunk): a pipe holding the starts of the chunks of range(n),
    ascending, ``chunk`` ids each.

    At most select.PIPE_BUF bytes are written, which an empty pipe takes
    whole without a reader (one id a chunk for n up to 1024 on Linux).  The
    write end is closed, so a read of an empty queue returns b"" at once.
    Linux serializes reads of one pipe, so each read of _TOKEN bytes takes
    exactly one start.
    """
    chunk = -(-n * _TOKEN // select.PIPE_BUF)
    read, write = os.pipe()
    try:
        os.write(write, np.arange(0, n, chunk, dtype="<u4").tobytes())
    except BaseException:
        os.close(read)
        raise
    finally:
        os.close(write)
    return read, chunk


def _draw(queue, chunk, n, fill, done):
    """Run fill over the ids drawn from ``queue`` until it is empty, setting
    done[i] after each success.

    On the first failure the queue is emptied and the failure dropped: every
    id left in the queue is above the failed one, so none of them can be
    the failure a serial run raises, and the other workers stop after their
    current chunk.  The caller runs every id not done again.
    """
    while token := os.read(queue, _TOKEN):
        start = int.from_bytes(token, "little")
        for i in range(start, min(start + chunk, n)):
            try:
                fill(i)
            except Exception:
                while os.read(queue, select.PIPE_BUF):
                    pass
                return
            done[i] = True


def _reap(children):
    """Wait for each child in ``children``, dropping it once reaped."""
    while children:
        os.waitpid(children[-1], 0)
        children.pop()


@contextlib.contextmanager
def _forked(cpus, work):
    """Run ``work()`` in one child per CPU of ``cpus``, pinned to it, beside
    the block; a CPU whose fork fails gets no child.

    A child ends through os._exit, whatever ``work`` does.  Every child is
    reaped before the block is left: waited for if the block returns or
    raises an Exception, killed first if it is interrupted, also while this
    process waits.
    """
    children = []
    try:
        for cpu in cpus:
            try:
                pid = os.fork()
            except OSError:
                continue  # the caller reruns the work it leaves undone
            if pid == 0:
                try:
                    _pin(cpu)
                    work()
                finally:
                    os._exit(0)
            children.append(pid)
        try:
            yield
        except Exception:
            _reap(children)
            raise
        _reap(children)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _reap(children)


def fill_queued(n, fill):
    """Run ``fill(i)`` for every i in range(n), where i writes only its own
    part of memory shared with this process.

    Where worker_cpus gives CPUs, one child is forked per CPU after the
    first, at most n workers in all, and this process works too, unpinned:
    the first CPU is the one no child is pinned to.  Every worker draws ids
    from one queue, in ascending order, and flags each id it finishes.  Once
    every child is reaped this process runs the unflagged ids in ascending
    order, which elsewhere is all of them: the error raised is that of the
    lowest failing id, as in a serial run.
    """
    cpus = worker_cpus()
    if cpus is None or n < 2:
        done = np.zeros(n, dtype=bool)
    else:
        (done,) = shared_arrays((n,), dtype=bool)
        queue, chunk = _queue(n)
        try:
            with _forked(cpus[1:n], lambda: _draw(queue, chunk, n, fill, done)):
                _draw(queue, chunk, n, fill, done)
        finally:
            os.close(queue)
    for i in np.flatnonzero(~done):
        fill(int(i))


@contextlib.contextmanager
def Beside(compute, shape):
    """Context manager that runs ``compute()``, which returns an array of
    ``shape``, beside its block; the ``result`` of the object it gives holds
    that array once the block is left.

    Where worker_cpus gives CPUs, ``compute`` runs in a child on the last
    CPU, which writes its result into a shared mapping and flags it.
    Elsewhere ``compute`` runs here on entry, before the block, as in a
    serial run.  If the child did not flag its result, ``compute`` runs here
    once the child is reaped, and its error replaces any Exception of the
    block, as in that serial run.
    """
    beside = types.SimpleNamespace(result=None)
    cpus = worker_cpus()
    if cpus is None:
        beside.result = compute()
        yield beside
        return
    (out,) = shared_arrays(shape)
    (done,) = shared_arrays((1,), dtype=bool)

    def work():
        out[...] = compute()
        done[0] = True

    try:
        with _forked(cpus[-1:], work):
            yield beside
    except Exception:
        if not done[0]:
            work()
        raise
    if not done[0]:
        work()
    beside.result = out


_helper = None  # (pool, owner) of the running helper_thread block, if it started one


@contextlib.contextmanager
def helper_thread():
    """Run the block with a helper thread pinned to the last CPU of the
    affinity mask, which split hands work to.

    The thread is the one worker of a ThreadPoolExecutor, started and
    pinned on entry.  Where worker_cpus gives None (one CPU, no affinity
    calls, or a process that runs other threads, such as one inside another
    helper_thread block), no thread is started and split runs its work
    serially.  The thread is joined once its current job has ended, before
    the block is left, whether it returns, raises or is interrupted, so the
    process again runs one thread and may fork.
    """
    global _helper
    cpus = worker_cpus()
    if cpus is None:
        yield
        return
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        with contextlib.suppress(OSError):  # unpinned, the results are the same
            pool.submit(_pin, cpus[-1]).result()
        _helper = (pool, threading.get_ident())
        try:
            yield
        finally:
            _helper = None


def split(here, there):
    """(here(), there()): ``there`` runs on the helper thread while ``here``
    runs on this one, and this returns once both have ended.

    Without a helper started by this thread, ``here`` runs and then
    ``there``, here, as in a serial run (a split on the helper itself would
    otherwise wait on its own pool).  Either way, where both raise, the
    error of ``here``, which the serial order meets first, is raised.
    """
    pool, owner = _helper or (None, None)
    if owner != threading.get_ident():
        return here(), there()
    theirs = pool.submit(there)
    try:
        mine = here()
    finally:
        theirs.exception()  # waits for there() to end; its error is raised below
    return mine, theirs.result()
