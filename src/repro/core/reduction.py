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
from repro.tree.topology import TreeTables


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
    model); instances with custom start nodes are rejected.  A thin
    wrapper: :func:`reduce_sets` builds the tasks, this adds the
    :class:`SchedulingInstance` and one :class:`TaskEdge` per task.
    """
    if instance.start_nodes is not None and any(
        s != instance.topology.root for s in instance.start_nodes
    ):
        raise ValueError(
            "the paper's reduction requires all messages to start at the root"
        )
    if packed is None:
        packed = build_packed_sets(instance)
    msg_weight = (
        None if instance.weights is None
        else instance.message_weights.tolist()
    )
    parent, weight, task_set, src, dest, msgs = reduce_sets(
        instance.topology.tables,
        instance.targets.tolist(),
        [s.parent_node for s in packed.sets],
        [s.messages for s in packed.sets],
        msg_weight,
    )
    scheduling = SchedulingInstance(
        np.asarray(parent, dtype=np.int64),
        np.asarray(weight, dtype=np.float64),
        instance.P,
    )
    return ReducedInstance(
        worms=instance,
        packed=packed,
        scheduling=scheduling,
        task_edges=tuple(map(TaskEdge, task_set, src, dest, msgs)),
    )


def reduce_sets(
    tables: TreeTables,
    targets: "list[int]",
    set_node: "list[int]",
    set_msgs: "list[tuple[int, ...]]",
    msg_weight: "list[float] | None" = None,
    top: "int | None" = None,
) -> tuple[
    list[int], list, list[int], list[int], list[int], list[tuple[int, ...]]
]:
    """The reduction on flat lists: the planning kernel's stage.

    Takes the packed sets as parallel lists (:func:`repro.core.packed.
    pack_sets`) and returns the tasks as parallel lists ``(parent,
    weight, set_index, src, dest, msgs)``: task ``j`` flushes
    ``msgs[j]`` over ``(src[j], dest[j])`` for packed set
    ``set_index[j]``, after task ``parent[j]`` (``-1``: none; always
    ``parent[j] < j``).  With unit weights (``msg_weight is None``) a
    task weighs the number of messages it delivers, an int; otherwise
    the sum of their ``msg_weight`` (an int for int weights).

    The messages start at ``top`` (default: the root), the node the sets
    were packed below: a chain runs ``path(v)[depth(top):]``, so a set
    packed at ``top`` itself has no chain.
    """
    paths = tables.path
    first = 1 if top is None else tables.depth[top] + 1
    parent: list[int] = []
    weight: list = []
    task_set: list[int] = []
    src: list[int] = []
    dest: list[int] = []
    msgs: list[tuple[int, ...]] = []

    depth = tables.depth
    is_leaf = tables.is_leaf
    for k, v in enumerate(set_node):
        all_msgs = set_msgs[k]
        # Chain: one task per edge of the top-to-v path, all of C moving,
        # each after the one above it.
        path = paths[v]
        n_chain = len(path) - first
        pred = -1
        if n_chain > 0:
            base = len(weight)
            parent.append(-1)
            parent.extend(range(base, base + n_chain - 1))
            weight.extend([0] * n_chain)
            task_set.extend([k] * n_chain)
            src.extend(path[first - 1 : -1])
            dest.extend(path[first:])
            msgs.extend([all_msgs] * n_chain)
            pred = base + n_chain - 1
        # Stack of pending subtree copies: (node u, messages of C
        # crossing into u, the predecessor task that delivered them into
        # u, u's parent).  ``node`` starts as v itself, whose "task" is
        # the last chain task.
        stack = [(v, all_msgs, pred, -1)]
        while stack:
            node, node_msgs, above, up = stack.pop()
            if up == -1:
                task = above
            else:
                task = len(weight)
                parent.append(above)
                weight.append(0)
                task_set.append(k)
                src.append(up)
                dest.append(node)
                msgs.append(tuple(node_msgs))
            # Split the messages at ``node``: those delivered here, and
            # the rest keyed by the child of ``node`` they cross.
            by_child: dict[int, list[int]] = {}
            if is_leaf[node]:
                own = node_msgs
            else:
                below = depth[node] + 1
                own = []
                for m in node_msgs:
                    target = targets[m]
                    if target == node:
                        own.append(m)
                        continue
                    by_child.setdefault(paths[target][below], []).append(m)
            # The task into ``node`` delivers the messages ending there
            # and carries their weight (at v, the last chain task: always
            # so for a leaf packed parent, possible at internal nodes
            # under the internal-target extension).  A set packed at
            # ``top`` has no chain: its messages ending there are already
            # delivered.
            if own and task != -1:
                weight[task] = (
                    len(own) if msg_weight is None
                    else sum(msg_weight[m] for m in own)
                )
            for child, child_msgs in by_child.items():
                stack.append((child, child_msgs, task, node))

    return parent, weight, task_set, src, dest, msgs
