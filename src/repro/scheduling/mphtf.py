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

from repro.scheduling.cost import TaskSchedule
from repro.scheduling.horn import HornDecomposition, compute_horn
from repro.scheduling.instance import SchedulingInstance
from repro.scheduling.phtf import phtf_schedule


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
    """Run MPHTF; returns a feasible schedule with ``cost <= 4 * OPT``."""
    if horn is None:
        horn = compute_horn(instance)
    phtf = phtf_schedule(instance, horn)
    n = instance.n_tasks
    children = instance.children_lists()
    prio = horn.priorities()
    tree_of = horn.horn_root.tolist()
    if diagnostics is None:
        diagnostics = MPHTFDiagnostics()

    # Per-Horn-tree min-heap (indexed by the tree's root task) of tasks
    # that are precedence-available in the MPHTF execution.  Every task
    # enters its tree's heap once, when it becomes available, and leaves
    # it when processed.
    tree_queue: list[list[int]] = [[] for _ in range(n)]
    remaining_in_tree = [0] * n
    for root in tree_of:
        remaining_in_tree[root] += 1
    for j in instance.roots():
        heapq.heappush(tree_queue[tree_of[j]], prio[j])

    steps: list[list[int]] = []
    n_done = 0
    for step_tasks in phtf.steps:
        # The trees PHTF touched this step, with multiplicity: if PHTF ran
        # two tasks of the same tree in one step, MPHTF owes that tree two
        # slots in each of its two corresponding steps.
        tree_slots = [tree_of[j] for j in step_tasks]
        for _ in range(2):
            # Children of a task processed now become available only
            # after the step ends (a child must run strictly later).
            step: list[int] = []
            unlocked: list[int] = []
            for root in tree_slots:
                if remaining_in_tree[root] > 0:
                    queue = tree_queue[root]
                    if not queue:
                        diagnostics.wasted_slots += 1
                        continue
                    j = heapq.heappop(queue) % n
                    remaining_in_tree[root] -= 1
                    step.append(j)
                    unlocked.extend(children[j])
            steps.append(step)
            n_done += len(step)
            for c in unlocked:
                heapq.heappush(tree_queue[tree_of[c]], prio[c])

    # Drain phase: finish anything left (possible only when slots were
    # wasted above). Full rate, densest-first across all trees.
    if n_done < n:
        global_queue = [p for queue in tree_queue for p in queue]
        heapq.heapify(global_queue)
        while n_done < n:
            if not global_queue:  # pragma: no cover - forest makes this impossible
                raise RuntimeError("MPHTF drain stalled with tasks remaining")
            diagnostics.drain_steps += 1
            step = [
                heapq.heappop(global_queue) % n
                for _ in range(min(instance.P, len(global_queue)))
            ]
            steps.append(step)
            n_done += len(step)
            for j in step:
                for c in children[j]:
                    heapq.heappush(global_queue, prio[c])

    return TaskSchedule(steps).trim()
