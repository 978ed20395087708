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
from typing import Mapping, Sequence

import numpy as np

from repro.core.packed import (
    PackedDecomposition,
    build_packed_sets,
    split_by_child,
    split_messages,
)
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
    tables = instance.topology.tables
    targets = instance.targets.tolist()
    msg_weight = (
        None if instance.weights is None
        else instance.message_weights.tolist()
    )
    # A set of whole children starts its subtree copy from its split.
    splits = [
        list(split_by_child(
            tables.path, tables.depth[s.parent_node] + 1, targets,
            s.parent_node, list(s.messages),
        )[1].items()) if s.child_group else []
        for s in packed.sets
    ]
    tasks = reduce_sets(
        tables, targets, [s.parent_node for s in packed.sets],
        [s.messages for s in packed.sets], splits, msg_weight,
    )
    n = len(tasks.weight)
    parent = [-1] * n
    for j, kids in enumerate(tasks.children):
        for c in kids:
            parent[c] = j
    ends = tasks.set_start[1:] + [n]
    task_set = [
        k for k, (first, end) in enumerate(zip(tasks.set_start, ends))
        for _ in range(first, end)
    ]
    scheduling = SchedulingInstance(
        np.asarray(parent, dtype=np.int64),
        np.asarray(tasks.weight, dtype=np.float64),
        instance.P,
    )
    return ReducedInstance(
        worms=instance,
        packed=packed,
        scheduling=scheduling,
        task_edges=tuple(
            map(TaskEdge, task_set, tasks.src, tasks.dest, tasks.msgs)
        ),
    )


class TaskLists:
    """The reduced tasks as parallel lists: what :func:`reduce_sets`
    builds, and what the planner orders and hands the flush gate.

    Task ``j`` flushes ``msgs[j]`` over ``(src[j], dest[j])``;
    ``parking[j]`` of those messages do not end at ``dest[j]`` (the
    gate's admission cost) and the rest give the task its ``weight[j]``.
    ``children[j]`` are the tasks that wait for ``j``, in task order, and
    ``roots`` the tasks that wait for none; a task is numbered after the
    one it waits for.  ``set_start[k]`` is the first task of the ``k``-th
    packed set reduced (a set's tasks are consecutive).
    """

    __slots__ = (
        "weight", "children", "roots", "src", "dest", "msgs", "parking",
        "set_start",
    )

    def __init__(self) -> None:
        self.weight: list = []
        self.children: "list[list[int]]" = []
        self.roots: "list[int]" = []
        self.src: "list[int]" = []
        self.dest: "list[int]" = []
        self.msgs: "list[tuple[int, ...]]" = []
        self.parking: "list[int]" = []
        self.set_start: "list[int]" = []


def reduce_sets(
    tables: TreeTables,
    targets: "Sequence[int] | Mapping[int, int]",
    set_node: "list[int]",
    set_msgs: "list[tuple[int, ...] | None]",
    set_split: "list[list[tuple[int, list[int]]]]",
    msg_weight: "Sequence[float] | Mapping[int, float] | None" = None,
    set_top: "list[int] | None" = None,
) -> TaskLists:
    """The reduction on flat lists: the planning kernel's stage.

    Takes packed sets as :func:`repro.core.packed.pack_sets` returns
    them (those of several ``pack_sets`` calls concatenated) and returns
    their tasks (see :class:`TaskLists`), each with its predecessor
    link, weight and parking count set as it is created.  With unit
    weights (``msg_weight is None``) a task weighs the number of
    messages it delivers, an int; otherwise the sum of their
    ``msg_weight[m]`` (an int for int weights).

    The messages of set ``k`` start at ``set_top[k]`` (default: the
    root), the node it was packed below: its chain runs
    ``path(v)[depth(top):]``, so a set packed at its top has no chain,
    and its messages ending there are already delivered.  Message tuples
    keep the order of the sets' lists (a chain carries its set's tuple,
    ascending).
    """
    paths = tables.path
    depth = tables.depth
    is_leaf = tables.is_leaf
    tasks = TaskLists()
    weight = tasks.weight
    children = tasks.children
    roots = tasks.roots
    src = tasks.src
    dest = tasks.dest
    msgs = tasks.msgs
    parking = tasks.parking

    def copy(split, above: int, up: int) -> None:
        """Tasks for the subtree copy below ``up``: one per child of
        ``split`` (``(child, messages)`` pairs, a list or a dict's
        items), after task ``above``, depth first, children in reverse
        order of ``split``."""
        waiting = roots if above == -1 else children[above]
        for u, u_msgs in reversed(split):
            task = len(weight)
            waiting.append(task)
            if len(u_msgs) == 1:
                # One message: the rest of its path is a chain, whose
                # last task delivers it.
                m = u_msgs[0]
                t = targets[m]
                m_msgs = (m,)
                node_src = up
                if t != u:
                    for node in paths[t][depth[u]:-1]:
                        task += 1
                        children.append([task])
                        src.append(node_src)
                        dest.append(node)
                        msgs.append(m_msgs)
                        parking.append(1)
                        weight.append(0)
                        node_src = node
                children.append(())  # delivered: no task waits for it
                src.append(node_src)
                dest.append(t)
                msgs.append(m_msgs)
                parking.append(0)
                weight.append(1 if msg_weight is None else msg_weight[m])
                continue
            children.append([])
            src.append(up)
            dest.append(u)
            msgs.append(tuple(u_msgs))
            if is_leaf[u]:
                own = u_msgs
                by_child = None
            else:
                own, by_child = split_by_child(
                    paths, depth[u] + 1, targets, u, u_msgs
                )
            # The task into u delivers the messages ending there and
            # carries their weight.
            weight.append(
                len(own) if msg_weight is None
                else sum(map(msg_weight.__getitem__, own))
            )
            parking.append(len(u_msgs) - len(own))
            if by_child:
                copy(by_child.items(), task, u)

    if set_top is None:
        set_top = [tables.root] * len(set_node)
    for v, set_tuple, split, top in zip(
        set_node, set_msgs, set_split, set_top
    ):
        base = len(weight)
        tasks.set_start.append(base)
        # Chain: one task per edge of the top-to-v path, all of the set
        # moving, each after the one above it.
        path = paths[v]
        first = depth[top] + 1
        n_chain = len(path) - first
        pred = -1
        if n_chain > 0:
            if set_tuple is None:
                set_tuple = split_messages(split)
            size = len(set_tuple)
            roots.append(base)
            if n_chain > 1:
                children.extend([[j] for j in range(base + 1, base + n_chain)])
            children.append([])
            weight.extend([0] * n_chain)
            src.extend(path[first - 1:-1])
            dest.extend(path[first:])
            msgs.extend([set_tuple] * n_chain)
            parking.extend([size] * n_chain)
            pred = base + n_chain - 1
            if not split:
                # Every message ends at v: the last chain task delivers
                # the set.
                weight[pred] = (
                    size if msg_weight is None
                    else sum(map(msg_weight.__getitem__, set_tuple))
                )
                parking[pred] = 0
        if split:
            copy(split, pred, v)
    return tasks
