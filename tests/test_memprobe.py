import os
import sys

import pytest

import memprobe

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="memprobe reads /proc"
)

# 48 MiB of private pages and 24 MiB of pages of a shared mapping, all
# written, held for 0.3 s, then exit status 3
_HOLD = """
import mmap, sys, time
private = bytearray(48 << 20)
shared = mmap.mmap(-1, 24 << 20)
for offset in range(0, 24 << 20, 4096):
    shared[offset] = 1
time.sleep(0.3)
sys.exit(3)
"""


def test_probe_reads_private_and_shared_peaks():
    result = memprobe.probe([sys.executable, "-c", _HOLD])
    assert result["status"] == 3
    assert result["samples"] > 10
    assert 48 <= result["rss_anon_mb"] < 48 + 64
    assert 24 <= result["rss_shmem_mb"] < 24 + 16
    # Shmem in /proc/meminfo counts the whole machine, so its rise is not
    # checked here: another process may free shared memory meanwhile
    assert set(result) == {"rss_anon_mb", "rss_shmem_mb", "shmem_rise_mb", "samples", "status"}


def test_main_prints_one_json_line_and_passes_the_status_on(capsys):
    assert memprobe.main([sys.executable, "-c", "raise SystemExit(5)"]) == 5
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith('{"rss_anon_mb": ') and last.endswith('"status": 5}')
