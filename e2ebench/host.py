"""CPU placement and host-speed calibration.

The benchmark was tuned on a 2-vCPU VM shared with other tenants.  Its
CPUs switch, for tens of seconds at a time, between a fast state and a
slow one about 1.5-1.8x slower, with no steal time to show for it: the
same code simply runs slower.  Whole benchmark runs can fall into the
slow state, so no choice of repetitions removes it.

Instead every timed repetition is bracketed by a short fixed
calibration loop on the CPUs the repetition uses, and the repetition's
times are divided by the host's *slowdown factor* — the loop's mean
time over :data:`CAL_REF_S`, its time on that host in the fast state.
Reported times are therefore fast-state-equivalent wall times; the
factors are printed with every run.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import statistics
import time

clock = time.perf_counter

#: iterations of the calibration loop (~43 ms in the fast state).
CAL_ITERS = 600_000
#: the calibration loop's time on the reference host's fast state: a
#: 2-vCPU "Intel Xeon Processor" VM, Python 3.11.
CAL_REF_S = 0.043


def cpu_pair() -> "tuple[int, int]":
    """Two CPUs this process may use (the same one twice on 1 CPU)."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[min(1, len(cpus) - 1)]


class pinned:
    """Context manager: this process runs on ``cpu`` only, then back."""

    def __init__(self, cpu: int) -> None:
        self._cpu = cpu
        self._prior: "set[int]" = set()

    def __enter__(self) -> "pinned":
        self._prior = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self._cpu})
        return self

    def __exit__(self, *exc) -> None:
        os.sched_setaffinity(0, self._prior)


def pin_children(cpu: int) -> None:
    """Pin every live child process (the procpool workers) to ``cpu``."""
    for child in mp.active_children():
        os.sched_setaffinity(child.pid, {cpu})


def _spin(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def slowdown(cpus) -> float:
    """The host's slowdown factor now: 1.0 in the fast state.

    Times the calibration loop once on each of ``cpus`` (the caller's
    own affinity is restored afterwards).
    """
    times = []
    for cpu in cpus:
        with pinned(cpu):
            t = clock()
            _spin(CAL_ITERS)
            times.append(clock() - t)
    return statistics.fmean(times) / CAL_REF_S
