"""Parallel Heaviest Tree First (PHTF).

PHTF generalizes Horn's algorithm to ``P`` machines: at each time step it
processes the ``P`` available tasks of highest task density.  It is *not*
a constant approximation for the integral cost, but it is **optimal for
the fractional cost** ``cost^f`` (Lemma 12), which is exactly what the
4-approximate MPHTF needs it for.
"""

from __future__ import annotations

import heapq

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
    A thin wrapper over :func:`phtf_steps`.
    """
    if horn is None:
        horn = compute_horn(instance)
    return TaskSchedule(phtf_steps(
        instance.children_lists(), instance.roots(), horn.priorities(),
        instance.P,
    ))


def phtf_steps(
    children: "list[list[int]]",
    roots: "list[int]",
    prio: "list[int]",
    P: int,
) -> list[list[int]]:
    """PHTF on flat lists: the task ids run at each step, in order.

    ``prio`` is :func:`repro.scheduling.horn.density_priorities`.
    """
    n = len(prio)
    available = [prio[j] for j in roots]
    heapq.heapify(available)
    steps: list[list[int]] = []
    while available:
        batch = [
            heapq.heappop(available) % n
            for _ in range(min(P, len(available)))
        ]
        steps.append(batch)
        for j in batch:
            for c in children[j]:
                heapq.heappush(available, prio[c])
    return steps
