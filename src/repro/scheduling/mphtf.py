"""Modified Parallel Heaviest Tree First (MPHTF): the 4-approximation.

MPHTF simulates PHTF at half speed: PHTF's time step ``t`` maps to MPHTF
steps ``2t-1`` and ``2t``, and for every task PHTF processes from Horn's
tree ``T_j`` at step ``t``, MPHTF processes one precedence-feasible task
of ``T_j`` at *each* of the two corresponding steps (doing nothing for a
slot whose tree is already exhausted).  Flushing each Horn's tree twice
whenever PHTF touches it once guarantees every tree finishes by twice its
PHTF half-completion time, which combined with Lemmas 12 and 13 yields
``cost(MPHTF) <= 4 * cost(OPT)`` (Lemma 14).

Within a Horn's tree we pick the densest available member task (Horn's own
order restricted to the tree); the paper permits any feasible choice.  A
final *drain phase* processes any still-unfinished tasks at full rate —
the analysis never needs it, but it makes the implementation total on
adversarial inputs where slots were wasted on not-yet-available tasks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from repro.scheduling.cost import TaskSchedule
from repro.scheduling.horn import (
    HornDecomposition,
    compute_horn,
    density_priorities,
    horn_trees,
)
from repro.scheduling.instance import SchedulingInstance
from repro.scheduling.phtf import phtf_batches


@dataclass
class MPHTFDiagnostics:
    """Execution counters exposed for tests and the ablation bench."""

    wasted_slots: int = 0  # tree slot offered but no member task was ready
    drain_steps: int = 0  # extra steps appended after the 2x-PHTF horizon


def mphtf_schedule(
    instance: SchedulingInstance,
    horn: HornDecomposition | None = None,
    *,
    diagnostics: MPHTFDiagnostics | None = None,
) -> TaskSchedule:
    """Run MPHTF; returns a feasible schedule with ``cost <= 4 * OPT``.

    A thin wrapper over :func:`mphtf_order`.
    """
    if horn is None:
        horn = compute_horn(instance)
    order, ends = mphtf_order(
        instance.children_lists(), instance.roots(), horn.priorities(),
        horn.horn_root.tolist(), horn.f_size, instance.P, diagnostics,
    )
    return TaskSchedule([
        order[start:end] for start, end in zip([0] + ends, ends)
    ])


def mphtf_plan(
    children: "list[list[int]]",
    roots: "list[int]",
    weights: "list[int]",
    P: int,
) -> list[int]:
    """Horn's trees, PHTF and MPHTF on a flat task forest: the planner's
    priority order.

    ``children``/``roots``/``weights`` are the reduction's task lists
    (:class:`repro.core.reduction.TaskLists`; every task numbered after
    its predecessor, unit weights already integers, i.e. integer weights
    with scale 1).  Returns MPHTF's tasks in step order, exactly as
    :func:`mphtf_schedule` would run them on the same tasks.
    """
    key, _, f_size, tree_of = horn_trees(
        children, range(len(weights)), weights
    )
    return mphtf_order(
        children, roots, density_priorities(key), tree_of, f_size, P
    )[0]


def mphtf_order(
    children: "list[list[int]]",
    roots: "list[int]",
    prio: "list[int]",
    tree_of: "Sequence[int]",
    tree_size: "Sequence[int]",
    P: int,
    diagnostics: MPHTFDiagnostics | None = None,
) -> "tuple[list[int], list[int]]":
    """PHTF and MPHTF in one loop on flat lists.

    ``prio`` is :func:`repro.scheduling.horn.density_priorities`,
    ``tree_of[j]`` the root of ``j``'s Horn's tree and ``tree_size[r]``
    the size of the tree rooted at ``r`` (``F_r``: the ``f_size`` of
    :func:`repro.scheduling.horn.horn_trees`).  Each PHTF step
    (:func:`repro.scheduling.phtf.phtf_batches`) is turned into MPHTF's
    two steps as it is made.  Returns ``(order, ends)``: MPHTF's tasks in
    step order, and where each step ends in ``order`` (trailing empty
    steps trimmed).
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    n = len(prio)

    # Per-Horn-tree min-heap (indexed by the tree's root task) of tasks
    # that are precedence-available in the MPHTF execution.  Every task
    # enters its tree's heap once, when it becomes available, and leaves
    # it when processed.
    tree_queue: list[list[int]] = [[] for _ in range(n)]
    remaining_in_tree = list(tree_size)
    for j in roots:
        heappush(tree_queue[tree_of[j]], prio[j])

    order: list[int] = []
    ends: list[int] = []
    wasted = 0
    for batch in phtf_batches(children, roots, prio, P):
        # The trees PHTF touched this step, with multiplicity: if PHTF ran
        # two tasks of the same tree in one step, MPHTF owes that tree two
        # slots in each of its two corresponding steps.
        tree_slots = list(map(tree_of.__getitem__, batch))
        for _ in (0, 1):
            # Children of a task processed now become available only
            # after the step ends (a child must run strictly later).
            unlocked: list[int] = []
            for root in tree_slots:
                if remaining_in_tree[root]:
                    queue = tree_queue[root]
                    if queue:
                        j = heappop(queue) % n
                        order.append(j)
                        unlocked += children[j]
                        remaining_in_tree[root] -= 1
                    else:
                        wasted += 1
            ends.append(len(order))
            for c in unlocked:
                heappush(tree_queue[tree_of[c]], prio[c])

    # Drain phase: finish anything left (possible only when slots were
    # wasted above). Full rate, densest-first across all trees.
    drained = 0
    if len(order) < n:
        global_queue = [p for queue in tree_queue for p in queue]
        heapq.heapify(global_queue)
        while len(order) < n:
            if not global_queue:  # pragma: no cover - forest makes this impossible
                raise RuntimeError("MPHTF drain stalled with tasks remaining")
            drained += 1
            step = [
                heappop(global_queue) % n
                for _ in range(min(P, len(global_queue)))
            ]
            order += step
            ends.append(len(order))
            for j in step:
                for c in children[j]:
                    heappush(global_queue, prio[c])

    while ends and ends[-1] == (ends[-2] if len(ends) > 1 else 0):
        ends.pop()
    if diagnostics is not None:
        diagnostics.wasted_slots += wasted
        diagnostics.drain_steps += drained
    return order, ends
