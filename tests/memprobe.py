"""Peak memory of one command, sampled from outside it.

    python tests/memprobe.py COMMAND [ARG ...]

Starts COMMAND (no shell) and, from this process, reads the command's
``/proc/<pid>/status`` and the machine's ``/proc/meminfo`` every 2 ms until
it exits.  The last line of standard output is one JSON object:

- ``rss_anon_mb``: the peak of the command's RssAnon, its private memory;
- ``rss_shmem_mb``: the peak of its RssShmem, the pages of shared mappings
  (the offline stage's candidate array among them) it has mapped;
- ``shmem_rise_mb``: the peak of ``Shmem`` in ``/proc/meminfo`` less its
  value just before the start, so it shows whether a shared mapping itself
  grew or shrank, whichever process maps its pages;
- ``samples`` and ``status``, the command's exit status (negative: the
  signal that ended it), which is also this script's (128 + the signal).

MB are MiB, as ``ru_maxrss / 1024`` reads.  ``Shmem`` counts the whole
machine, so the rise is exact only when nothing else makes or frees shared
memory meanwhile.  Only the command's own process is sampled, not the
workers it forks.  Linux only.
"""

import json
import subprocess
import sys
import time

INTERVAL_S = 0.002


def _fields(path, names):
    """The kB values of ``names`` in a /proc file of "Name: value kB" lines;
    a missing name (an exited process has no RssAnon) reads 0."""
    values = dict.fromkeys(names, 0)
    with open(path) as lines:
        for line in lines:
            name, _, rest = line.partition(":")
            if name in values:
                values[name] = int(rest.split()[0])
    return values


def probe(command):
    """Run ``command`` to its end and return its peaks as a dict (see the
    module docstring)."""
    base = _fields("/proc/meminfo", ["Shmem"])["Shmem"]
    peaks = {"RssAnon": 0, "RssShmem": 0, "Shmem": base}
    samples = 0
    proc = subprocess.Popen(command)
    status_path = f"/proc/{proc.pid}/status"
    while proc.poll() is None:
        try:
            sample = _fields(status_path, ["RssAnon", "RssShmem"])
        except FileNotFoundError:
            break
        sample.update(_fields("/proc/meminfo", ["Shmem"]))
        for name, value in sample.items():
            peaks[name] = max(peaks[name], value)
        samples += 1
        time.sleep(INTERVAL_S)
    status = proc.wait()
    return {
        "rss_anon_mb": round(peaks["RssAnon"] / 1024, 1),
        "rss_shmem_mb": round(peaks["RssShmem"] / 1024, 1),
        "shmem_rise_mb": round((peaks["Shmem"] - base) / 1024, 1),
        "samples": samples,
        "status": status,
    }


def main(argv=None):
    command = sys.argv[1:] if argv is None else argv
    if not command:
        raise SystemExit("usage: python tests/memprobe.py COMMAND [ARG ...]")
    result = probe(command)
    print(json.dumps(result), flush=True)
    status = result["status"]
    return status if status >= 0 else 128 - status


if __name__ == "__main__":
    sys.exit(main())
