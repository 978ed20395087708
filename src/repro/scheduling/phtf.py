"""Parallel Heaviest Tree First (PHTF).

PHTF generalizes Horn's algorithm to ``P`` machines: at each time step it
processes the ``P`` available tasks of highest task density.  It is *not*
a constant approximation for the integral cost, but it is **optimal for
the fractional cost** ``cost^f`` (Lemma 12), which is exactly what the
4-approximate MPHTF needs it for.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.scheduling.cost import TaskSchedule
from repro.scheduling.horn import HornDecomposition, compute_horn
from repro.scheduling.instance import SchedulingInstance


def phtf_schedule(
    instance: SchedulingInstance,
    horn: HornDecomposition | None = None,
) -> TaskSchedule:
    """Run PHTF; returns the schedule (``P`` tasks per step, density order).

    Ties between equal densities are broken by lowest task id, keeping the
    output deterministic (the paper allows arbitrary tie-breaking).  The
    heap holds :meth:`HornDecomposition.priorities`: exact integer keys.
    A thin wrapper over :func:`phtf_batches`.
    """
    if horn is None:
        horn = compute_horn(instance)
    return TaskSchedule(list(phtf_batches(
        instance.children_lists(), instance.roots(), horn.priorities(),
        instance.P,
    )))


def phtf_batches(
    children: "list[list[int]]",
    roots: "list[int]",
    prio: "list[int]",
    P: int,
) -> "Iterator[list[int]]":
    """PHTF on flat lists: yields the task ids run at each step, in order.

    ``prio`` is :func:`repro.scheduling.horn.density_priorities`.  A
    generator, so MPHTF (:func:`repro.scheduling.mphtf.mphtf_order`)
    runs each PHTF step as it is made.
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    n = len(prio)
    available = list(map(prio.__getitem__, roots))
    heapq.heapify(available)
    while available:
        if len(available) <= P:  # all of them, densest first
            available.sort()
            batch = list(map(n.__rmod__, available))
            available.clear()
        else:
            batch = [heappop(available) % n for _ in range(P)]
        yield batch
        for j in batch:
            for c in children[j]:
                heappush(available, prio[c])
