"""Host-speed probe: a fixed pure-Python loop that imports nothing from
``repro``.

Timed before and after every run, once in this process alone and once in
as many processes at once as the workloads keep busy.  When the host
slows down, the probe and every timing metric rise together while a
traced run's exact counts stay equal, which tells host drift apart from
a change to the program.  The side-by-side probe also shows contention
between the host's cores that a single process does not feel.

``python3 perfbench/probe.py REPEATS`` prints one process's probe.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time


def _work() -> int:
    table = {}
    x = 0
    for _ in range(200_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 1023
        table[key] = table.get(key, 0) + 1
    return len(table)


def _passes(repeats: int) -> float:
    """Median seconds of ``repeats`` passes over the fixed loop."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe(processes: int = 1, repeats: int = 5) -> float:
    """The probe in ``processes`` processes at once: the median of their
    per-pass medians."""
    if processes == 1:
        return _passes(repeats)
    procs = [subprocess.Popen([sys.executable, __file__, str(repeats)],
                              stdout=subprocess.PIPE, text=True)
             for _ in range(processes)]
    return statistics.median(float(proc.communicate()[0]) for proc in procs)


if __name__ == "__main__":
    print(_passes(int(sys.argv[1])))
