"""Reduction from WORMS to ``P | outtree, p_j = 1 | Sum wC`` (Section 3.2).

For every oblivious packed set ``C`` with packed parent ``v``:

* a *chain* of ``h(v)`` zero-weight tasks models flushing all of ``C``
  down the root-to-``v`` path, one task per edge, each preceded by the
  task for the edge above;
* if ``v`` is a leaf, the last chain task delivers ``C`` and carries
  weight ``|C|``;
* if ``v`` is internal, the subtree of ``T`` below ``v`` is copied
  (restricted to edges actually crossed by messages of ``C`` — the paper's
  "task is omitted when all descendant leaves have weight 0" pruning):
  the task for an edge into a leaf carries the number of ``C``-messages
  targeting that leaf, all other copied tasks carry weight 0.

Every task remembers the tree edge it stands for and the messages it
moves, so Lemma 8 (:mod:`repro.core.task_to_flush`) can turn any feasible
task schedule directly into an overfilling flush schedule of equal cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.packed import PackedDecomposition, build_packed_sets
from repro.core.worms import WORMSInstance
from repro.scheduling.instance import SchedulingInstance


@dataclass(frozen=True)
class TaskEdge:
    """What a reduced task does: flush ``messages`` over ``(src, dest)``."""

    set_index: int
    src: int
    dest: int
    messages: tuple[int, ...]


@dataclass(frozen=True)
class ReducedInstance:
    """The scheduling instance ``T(T, M, P, B)`` plus back-mapping data."""

    worms: WORMSInstance
    packed: PackedDecomposition
    scheduling: SchedulingInstance
    task_edges: tuple[TaskEdge, ...]

    @property
    def n_tasks(self) -> int:
        """Number of tasks in the reduced instance."""
        return self.scheduling.n_tasks


def reduce_to_scheduling(
    instance: WORMSInstance,
    packed: PackedDecomposition | None = None,
) -> ReducedInstance:
    """Build ``T(T, M, P, B)`` from a WORMS instance.

    The reduction assumes all messages start at the root (the paper's
    model); instances with custom start nodes are rejected.
    """
    if instance.start_nodes is not None and any(
        s != instance.topology.root for s in instance.start_nodes
    ):
        raise ValueError(
            "the paper's reduction requires all messages to start at the root"
        )
    if packed is None:
        packed = build_packed_sets(instance)
    topo = instance.topology
    targets = instance.targets.tolist()
    if instance.weights is None:
        weight_of = len  # unit weights: a set's weight is its size
    else:
        weight_of = instance.weight_of

    parent: list[int] = []
    weights: list[float] = []
    edges: list[TaskEdge] = []

    def new_task(
        pred: int, set_index: int, src: int, dest: int, msgs: tuple[int, ...]
    ) -> int:
        task_id = len(parent)
        parent.append(pred)
        weights.append(0.0)
        edges.append(TaskEdge(set_index, src, dest, msgs))
        return task_id

    def split(
        node: int, below: int, msgs: "tuple[int, ...] | list[int]"
    ) -> tuple[list[int], dict[int, list[int]]]:
        """Messages at ``node`` (height ``below - 1``): those delivered
        here, and the rest keyed by the child of ``node`` they cross."""
        own: list[int] = []
        by_child: dict[int, list[int]] = {}
        for m in msgs:
            target = targets[m]
            if target == node:
                own.append(m)
            else:
                child = topo.root_path(target)[below]
                by_child.setdefault(child, []).append(m)
        return own, by_child

    for pset in packed.sets:
        v = pset.parent_node
        all_msgs = pset.messages
        # Chain: one task per edge of the root-to-v path, all of C moving.
        path = topo.root_path(v)
        pred = -1
        for src, dest in zip(path, path[1:]):
            pred = new_task(pred, pset.index, src, dest, all_msgs)
        # Messages targeting v itself (always the case for a leaf packed
        # parent; possible at internal nodes under the internal-target
        # extension) are delivered by the last chain flush.  If v is the
        # root, such messages are already delivered and need no task.
        own, by_child = split(v, len(path), all_msgs)
        if own and pred != -1:
            weights[pred] += float(weight_of(own))
        # Copy the subtree below v, restricted to C's messages.  DFS with
        # an explicit stack: (node u, messages of C crossing into u, the
        # predecessor task that delivered them into u, u's parent, and
        # the height of u's children).
        below = len(path) + 1
        stack = [
            (child, msgs, pred, v, below) for child, msgs in by_child.items()
        ]
        while stack:
            node, msgs, above, src, below = stack.pop()
            task = new_task(above, pset.index, src, node, tuple(msgs))
            own, by_child = split(node, below, msgs)
            if own:
                weights[task] += float(weight_of(own))
            for child, child_msgs in by_child.items():
                stack.append((child, child_msgs, task, node, below + 1))

    scheduling = SchedulingInstance(
        np.asarray(parent, dtype=np.int64),
        np.asarray(weights, dtype=np.float64),
        instance.P,
    )
    return ReducedInstance(
        worms=instance,
        packed=packed,
        scheduling=scheduling,
        task_edges=tuple(edges),
    )
