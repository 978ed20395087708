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
from repro.scheduling.horn import (
    HornDecomposition,
    compute_horn,
    density_priorities,
    horn_trees,
)
from repro.scheduling.instance import SchedulingInstance, task_forest
from repro.scheduling.phtf import phtf_steps


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

    A thin wrapper over :func:`mphtf_steps`.
    """
    if horn is None:
        horn = compute_horn(instance)
    children = instance.children_lists()
    roots = instance.roots()
    prio = horn.priorities()
    P = instance.P
    return TaskSchedule(mphtf_steps(
        children, roots, prio, horn.horn_root.tolist(), P,
        phtf_steps(children, roots, prio, P), diagnostics,
    ))


def mphtf_plan(
    parent: "list[int]", weights: "list[int]", P: int
) -> list[list[int]]:
    """Horn's trees, PHTF and MPHTF on a flat task forest, in one call.

    ``parent``/``weights`` are the reduction's task lists
    (:func:`repro.core.reduction.reduce_sets`; unit weights are already
    integers, i.e. integer weights with scale 1).  Returns MPHTF's
    steps, exactly as :func:`mphtf_schedule` would on the same tasks.
    """
    children, roots, order = task_forest(parent)
    key, _, _, tree_of = horn_trees(children, order, weights)
    prio = density_priorities(key)
    return mphtf_steps(
        children, roots, prio, tree_of, P,
        phtf_steps(children, roots, prio, P),
    )


def mphtf_steps(
    children: "list[list[int]]",
    roots: "list[int]",
    prio: "list[int]",
    tree_of: "list[int]",
    P: int,
    phtf: "list[list[int]]",
    diagnostics: MPHTFDiagnostics | None = None,
) -> list[list[int]]:
    """MPHTF on flat lists: the task ids run at each step, trimmed.

    ``prio`` is :func:`repro.scheduling.horn.density_priorities`,
    ``tree_of[j]`` the root of ``j``'s Horn's tree and ``phtf`` PHTF's
    steps (:func:`repro.scheduling.phtf.phtf_steps`).
    """
    n = len(prio)
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
    for j in roots:
        heapq.heappush(tree_queue[tree_of[j]], prio[j])

    steps: list[list[int]] = []
    n_done = 0
    for step_tasks in phtf:
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
                for _ in range(min(P, len(global_queue)))
            ]
            steps.append(step)
            n_done += len(step)
            for j in step:
                for c in children[j]:
                    heapq.heappush(global_queue, prio[c])

    while steps and not steps[-1]:
        steps.pop()
    return steps
