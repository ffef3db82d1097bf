import os
import time

import numpy as np
import pytest

from gmsfem import workers

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


def test_shared_arrays_read_as_zeros_before_any_write():
    a, b = workers.shared_arrays((3, 4), (5,))
    (flags,) = workers.shared_arrays((7,), dtype=bool)
    assert a.shape == (3, 4) and b.shape == (5,) and flags.dtype == bool
    assert not a.any() and not b.any() and not flags.any()
    assert not np.shares_memory(a, b)
