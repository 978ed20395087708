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
    """
    if horn is None:
        horn = compute_horn(instance)
    n = instance.n_tasks
    P = instance.P
    children = instance.children_lists()
    prio = horn.priorities()
    available = [prio[j] for j in instance.roots()]
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
    return TaskSchedule(steps)
