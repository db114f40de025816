"""Host-speed probe: how fast this shared host runs interpreter work now.

The host's speed drifts by tens of percent over minutes, and unevenly
across its CPUs, far more than one run can average out.  The benchmark
times a probe next to every timed setup and operation and reports
*reference seconds*: wall seconds scaled by ``REFERENCE_S`` over the
probe time around them.  The probe runs on as many processes as the
workload keeps busy, so a workload that fans out over both CPUs is
scaled by the speed of both.
"""

from __future__ import annotations

import gc
import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from typing import List

#: Items one probe inserts, and the probe time at which reference
#: seconds equal wall seconds (about an unloaded 2-vCPU host's).
ITEMS = 150_000
REFERENCE_S = 0.1


def probe_work() -> float:
    """Wall seconds one fixed piece of interpreter work takes now.

    It allocates, hashes and looks up like the analyser does, but runs
    none of the program's code, so a program change cannot move it.
    """
    gc.collect()
    start = time.perf_counter()
    table = {}
    hits = 0
    for number in range(ITEMS):
        text = str(number)
        table[text] = (number, text)
        if number % 3 == 0 and str(number // 2) in table:
            hits += 1
    return time.perf_counter() - start


class HostProbe:
    """Calls :func:`probe_work` on ``processes`` processes at once."""

    def __init__(self, processes: int) -> None:
        self.processes = processes
        self.pool = None
        if processes > 1:
            # Forked now, while this process runs no other thread; the
            # first call starts every worker.
            self.pool = ProcessPoolExecutor(
                processes, mp_context=multiprocessing.get_context("fork"))
            self.pool.submit(int).result()

    def __call__(self) -> float:
        """Mean probe seconds across the processes."""
        if self.pool is None:
            return probe_work()
        futures = [self.pool.submit(probe_work)
                   for _ in range(self.processes)]
        return statistics.mean(future.result() for future in futures)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None


def reference_seconds(values: List[float], probes: List[float]
                      ) -> List[float]:
    """Scale each value by the mean of the probes taken before and
    after it (``probes`` has one more entry than ``values``)."""
    return [value * REFERENCE_S / ((probes[index] + probes[index + 1]) / 2.0)
            for index, value in enumerate(values)]
