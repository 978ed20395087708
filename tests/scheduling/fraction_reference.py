"""Fraction-keyed Horn / PHTF / MPHTF: the reference for the integer keys.

The library compares task densities by exact integer keys.  This module
keeps the straightforward formulation those keys replaced — every
density an exact :class:`fractions.Fraction`, heaps keyed by
``(density, seq)`` and ``(-density, id)`` — so the property tests can
check that both produce the same densities, Horn's trees and schedules.
Test-only: nothing in ``src/`` imports it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from repro.scheduling.instance import SchedulingInstance
from repro.util.pairing_heap import PairingHeap


def fraction_weight(instance: SchedulingInstance, j: int) -> Fraction:
    return Fraction(float(instance.weights[j]))


def fraction_horn(
    instance: SchedulingInstance,
) -> tuple[list[Fraction], list[int]]:
    """``(task_density, horn_root)`` with Fraction-keyed pairing heaps."""
    n = instance.n_tasks
    children = instance.children_lists()
    density: list[Fraction] = [Fraction(0)] * n
    f_weight: list[Fraction] = [Fraction(0)] * n
    f_size = [0] * n
    absorbed_into = [-1] * n
    pending: list[PairingHeap | None] = [None] * n
    seq = 0
    for j in reversed(instance.topological_order()):
        heap: PairingHeap = PairingHeap()
        for c in children[j]:
            child_heap = pending[c]
            assert child_heap is not None
            heap.meld(child_heap)
            pending[c] = None
            heap.push((density[c], seq), c)
            seq += 1
        w = fraction_weight(instance, j)
        s = 1
        cur = w
        while heap and heap.peek()[0][0] > cur:
            _, x = heap.pop()
            w += f_weight[x]
            s += f_size[x]
            cur = w / s
            absorbed_into[x] = j
        density[j] = cur
        f_weight[j] = w
        f_size[j] = s
        pending[j] = heap
    horn_root = []
    for j in range(n):
        x = j
        while absorbed_into[x] != -1:
            x = absorbed_into[x]
        horn_root.append(x)
    return density, horn_root


def fraction_horn_schedule(
    instance: SchedulingInstance, density: list[Fraction]
) -> list[list[int]]:
    children = instance.children_lists()
    available = [(-density[j], j) for j in instance.roots()]
    heapq.heapify(available)
    steps = []
    while available:
        _, j = heapq.heappop(available)
        steps.append([j])
        for c in children[j]:
            heapq.heappush(available, (-density[c], c))
    return steps


def fraction_phtf(
    instance: SchedulingInstance, density: list[Fraction]
) -> list[list[int]]:
    children = instance.children_lists()
    available = [(-density[j], j) for j in instance.roots()]
    heapq.heapify(available)
    steps = []
    while available:
        batch = [
            heapq.heappop(available)[1]
            for _ in range(min(instance.P, len(available)))
        ]
        steps.append(batch)
        for j in batch:
            for c in children[j]:
                heapq.heappush(available, (-density[c], c))
    return steps


def fraction_mphtf(
    instance: SchedulingInstance,
    density: list[Fraction],
    horn_root: list[int],
) -> list[list[int]]:
    """MPHTF as first written: dict-of-heaps, ``TaskSchedule.add`` steps."""
    n = instance.n_tasks
    children = instance.children_lists()
    tree_queue: dict[int, list[tuple]] = {}
    done = [False] * n
    remaining: dict[int, int] = {}
    for j in range(n):
        remaining[horn_root[j]] = remaining.get(horn_root[j], 0) + 1

    def make_available(j: int) -> None:
        heapq.heappush(
            tree_queue.setdefault(horn_root[j], []), (-density[j], j)
        )

    for j in instance.roots():
        make_available(j)
    steps: list[list[int]] = []

    def add(t: int, j: int) -> None:
        while len(steps) < t:
            steps.append([])
        steps[t - 1].append(j)

    n_done = 0
    t_out = 0
    for step_tasks in fraction_phtf(instance, density):
        tree_slots = [horn_root[j] for j in step_tasks]
        for _ in range(2):
            t_out += 1
            unlocked: list[int] = []
            for root in tree_slots:
                if remaining[root] > 0:
                    queue = tree_queue.get(root)
                    if not queue:
                        continue
                    _, j = heapq.heappop(queue)
                    done[j] = True
                    n_done += 1
                    remaining[root] -= 1
                    add(t_out, j)
                    unlocked.extend(children[j])
            for c in unlocked:
                make_available(c)
    if n_done < n:
        global_queue: list[tuple] = []
        for queue in tree_queue.values():
            global_queue.extend(queue)
        heapq.heapify(global_queue)
        while n_done < n:
            t_out += 1
            processed: list[int] = []
            for _ in range(min(instance.P, len(global_queue))):
                _, j = heapq.heappop(global_queue)
                if done[j]:
                    continue
                done[j] = True
                n_done += 1
                add(t_out, j)
                processed.extend(children[j])
            for c in processed:
                heapq.heappush(global_queue, (-density[c], c))
    while steps and not steps[-1]:
        steps.pop()
    return steps
