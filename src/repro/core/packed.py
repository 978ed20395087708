"""Oblivious packed nodes and packed sets (Sections 3.1-3.2).

A node ``v`` is **packed** when at least ``B/6`` messages target its
subtree and are not already claimed by a deeper packed node; the root is
always packed and claims every leftover message.  Each message therefore
belongs to the *packed contents* ``C(v)`` of exactly one packed node — its
lowest packed ancestor-or-self.

The packed contents are then split into **packed sets** of total size in
``[B/6, B/2]``:

* for a *leaf* packed node, messages are chunked directly;
* for an *internal* packed node, whole *children* of ``v`` are grouped
  greedily (each child holds < ``B/6`` unclaimed messages, else it would
  be packed itself), so that two messages flushed from ``v`` to the same
  child always share a packed set — the property Lemma 1's ``L``-schedule
  construction relies on.

This module implements the *oblivious* variant (depends only on
``(T, M, P, B)``, not on any schedule), which is the one the reduction of
Section 3.2 uses.  The divisor 6 is exposed as a parameter for the
ablation bench and the serving planner (which packs at ``B/3``), and
:func:`pack_sets` can decompose the subtree below any node, so a
planner can re-plan messages parked mid-tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.worms import WORMSInstance
from repro.tree.topology import TreeTables
from repro.util.errors import InvalidInstanceError

#: Paper constants: a node is packed at >= B/PACKED_DENOM unclaimed
#: messages; packed sets have size in [B/PACKED_DENOM, B/2].
PACKED_DENOM = 6


@dataclass(frozen=True)
class PackedSet:
    """One packed set: messages sharing a packed parent and child group."""

    index: int
    parent_node: int
    messages: tuple[int, ...]
    #: children of ``parent_node`` whose subtrees hold this set's messages
    #: (empty when the packed parent is a leaf).
    child_group: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of messages in the set."""
        return len(self.messages)


@dataclass(frozen=True)
class PackedDecomposition:
    """The full packed-node/packed-set structure of a WORMS instance."""

    instance: WORMSInstance
    packed_nodes: tuple[int, ...]
    sets: tuple[PackedSet, ...]
    #: per message: its packed parent node and its packed-set index.
    packed_parent_of: np.ndarray
    set_of: np.ndarray

    def check_invariants(self) -> None:
        """Assert the structural properties the paper's lemmas rely on."""
        inst = self.instance
        B = inst.B
        topo = inst.topology
        seen = np.zeros(inst.n_messages, dtype=bool)
        for s in self.sets:
            if not s.messages:
                raise InvalidInstanceError(f"packed set {s.index} is empty")
            for m in s.messages:
                if seen[m]:
                    raise InvalidInstanceError(f"message {m} in two packed sets")
                seen[m] = True
                if self.set_of[m] != s.index:
                    raise InvalidInstanceError("set_of inconsistent")
                if self.packed_parent_of[m] != s.parent_node:
                    raise InvalidInstanceError("packed_parent_of inconsistent")
                if not topo.is_descendant(
                    inst.messages[m].target_leaf, s.parent_node
                ):
                    raise InvalidInstanceError(
                        f"message {m} target not under packed parent"
                    )
            # Size bounds: every non-root set in [B/6, B/2]; root sets may
            # undershoot (the root claims whatever remains).
            if s.parent_node != topo.root and not (
                PACKED_DENOM * s.size >= B and 2 * s.size <= B
            ):
                raise InvalidInstanceError(
                    f"packed set {s.index} size {s.size} outside "
                    f"[B/{PACKED_DENOM}, B/2] with B={B}"
                )
            if s.parent_node == topo.root and 2 * s.size > B:
                raise InvalidInstanceError(
                    f"root packed set {s.index} size {s.size} > B/2"
                )
        if not seen.all():
            raise InvalidInstanceError("some messages belong to no packed set")


def build_packed_sets(
    instance: WORMSInstance, *, denom: int = PACKED_DENOM
) -> PackedDecomposition:
    """Construct the oblivious packed decomposition of ``instance``.

    ``denom`` overrides the packing threshold ``B/6`` (ablation hook);
    set sizes then fall in roughly ``[B/denom, 3B/denom]``, so ``denom``
    must be at least 3 for every set to fit in a single ``B``-flush (the
    paper's 6 leaves the factor-two slack its proofs use).

    A thin wrapper: :func:`pack_sets` computes the decomposition, this
    adds the per-set and per-message objects.
    """
    n_msgs = instance.n_messages
    packed_nodes, set_node, set_msgs, set_split = pack_sets(
        instance.topology.tables, instance.targets.tolist(),
        list(range(n_msgs)), instance.B, denom,
    )
    packed_parent_of = np.zeros(n_msgs, dtype=np.int64)
    set_of = np.full(n_msgs, -1, dtype=np.int64)
    sets = []
    for index, (v, msgs, split) in enumerate(
        zip(set_node, set_msgs, set_split)
    ):
        if msgs is None:
            msgs = split_messages(split)
        packed_parent_of[list(msgs)] = v
        set_of[list(msgs)] = index
        children = tuple(sorted(child for child, _ in split))
        sets.append(PackedSet(index, v, msgs, children))
    return PackedDecomposition(
        instance=instance,
        packed_nodes=packed_nodes,
        sets=tuple(sets),
        packed_parent_of=packed_parent_of,
        set_of=set_of,
    )


def pack_sets(
    tables: TreeTables,
    targets: "Sequence[int] | Mapping[int, int]",
    msgs: "list[int]",
    B: int,
    denom: int = PACKED_DENOM,
    top: "int | None" = None,
) -> "tuple[tuple[int, ...], list[int], list, list[list]]":
    """The packed decomposition on flat lists: the planning kernel's stage.

    ``msgs`` lists message ids; message ``m`` targets ``targets[m]``, a
    node of the subtree rooted at ``top`` (default: the root), and
    ``top`` plays the root's part: it is always packed and claims every
    leftover message.  Returns ``(packed_nodes, set_node, set_msgs,
    set_split)``: the sorted packed nodes and, per packed set in index
    order, its packed parent, its messages and its split.  A set whose
    messages all end at its packed parent (a leaf's chunks, and an
    internal node's own messages under the internal-target extension)
    has its message tuple and an empty split.  A set of whole children
    has no tuple (``None``; :func:`split_messages` makes it) and its
    messages by the child they cross as its split: ``(child,
    messages)`` pairs in order of each child's first message in
    ``msgs``, where the reduction's copy of the subtree starts.

    Every list keeps the order of ``msgs``, which decides how a leaf's
    messages are chunked.  Each packed node's messages are split by
    child once: the split that finds the packed nodes is the one the
    sets carry.
    """
    if denom < 2:
        raise InvalidInstanceError(f"denom must be >= 2, got {denom}")
    if top is None:
        top = tables.root
    threshold = -(-B // denom)  # ceil(B / denom): the packing test
    paths = tables.path
    depth = tables.depth
    is_leaf = tables.is_leaf

    if is_leaf[top]:
        own, by_child, kids = msgs, {}, []
    else:
        own, by_child = split_by_child(
            paths, depth[top] + 1, targets, top, msgs
        )
        kids = [
            c for c, c_msgs in by_child.items() if len(c_msgs) >= threshold
        ] if len(msgs) >= threshold else []
    set_node: "list[int]" = []
    set_msgs: "list[tuple[int, ...] | None]" = []
    set_split: "list[list[tuple[int, list[int]]]]" = []
    if not kids:  # no child holds B/denom messages: only ``top`` is packed
        _node_sets(top, own, by_child, threshold, set_node, set_msgs,
                   set_split)
        return (top,), set_node, set_msgs, set_split
    packed = _packed_nodes(
        tables, targets, threshold, top, (top, msgs, own, by_child, kids)
    )
    packed_nodes = tuple(sorted(packed))
    for v in packed_nodes:
        _, own, by_child = packed[v]
        _node_sets(v, own, by_child, threshold, set_node, set_msgs,
                   set_split)
    return packed_nodes, set_node, set_msgs, set_split


def _node_sets(
    v: int,
    own: "list[int]",
    by_child: "dict[int, list[int]]",
    threshold: int,
    set_node: "list[int]",
    set_msgs: list,
    set_split: list,
) -> None:
    """Append packed node ``v``'s sets (see :func:`pack_sets`): ``own``
    are the messages it claims that end at it, ``by_child`` the rest."""
    if own:
        # Messages ending at v: chunks of ~B/denom, the last taking
        # the remainder.
        n_chunks = max(1, len(own) // threshold)
        for k in range(n_chunks):
            set_node.append(v)
            set_msgs.append(tuple(
                own[k * threshold:(k + 1) * threshold
                    if k + 1 < n_chunks else len(own)]
            ))
            set_split.append([])
    if not by_child:
        return
    # Whole children, grouped greedily in child-id order until a group
    # reaches B/denom messages; a short tail joins the last group.  Two
    # messages crossing into the same child thus always share a set
    # (Lemma 1).  Fewer than 2 B/denom messages make one group.
    if sum(map(len, by_child.values())) < 2 * threshold:
        splits = [list(by_child.items())]
    else:
        groups: "list[list[int]]" = []
        current: "list[int]" = []
        count = 0
        for c in sorted(by_child):
            current.append(c)
            count += len(by_child[c])
            if count >= threshold:
                groups.append(current)
                current, count = [], 0
        if current:
            if groups:
                groups[-1] += current
            else:
                groups.append(current)
        group_of = {c: g for g, group in enumerate(groups) for c in group}
        splits = [[] for _ in groups]
        for c, c_msgs in by_child.items():
            splits[group_of[c]].append((c, c_msgs))
    for split in splits:
        set_node.append(v)
        set_msgs.append(None)
        set_split.append(split)


def _packed_nodes(
    tables: TreeTables,
    targets: "Sequence[int] | Mapping[int, int]",
    threshold: int,
    top: int,
    top_split: tuple,
) -> "dict[int, tuple[list[int], list[int], dict[int, list[int]]]]":
    """The packed nodes of :func:`pack_sets` when some child of ``top``
    holds at least B/denom messages, each with its messages and their
    split (``(messages, own, by_child)``) over what it claims.

    ``top_split`` is ``top``'s ``(node, messages, own, by_child, heavy
    children)``.
    """
    paths = tables.path
    depth = tables.depth
    is_leaf = tables.is_leaf
    # Top-down, split every heavy node (one holding at least B/denom
    # messages) by the child each message crosses.  A light child cannot
    # be packed, nor can anything below it, so only heavy children are
    # split further.  ``heavy`` lists (node, its messages, those ending
    # there, the rest by child, its heavy children) in pre-order.
    heavy = [top_split]
    stack = [(c, top_split[3][c]) for c in top_split[4]]
    while stack:
        v, v_msgs = stack.pop()
        if is_leaf[v]:
            heavy.append((v, v_msgs, v_msgs, {}, []))
            continue
        own, by_child = split_by_child(
            paths, depth[v] + 1, targets, v, v_msgs
        )
        kids = [
            c for c, c_msgs in by_child.items() if len(c_msgs) >= threshold
        ]
        for c in kids:
            stack.append((c, by_child[c]))
        heavy.append((v, v_msgs, own, by_child, kids))

    # Bottom-up: a node is packed when the messages of its subtree not
    # held by a packed node below it number at least B/denom; ``top``
    # always is.  ``held[v]``: how many of v's messages packed nodes at
    # or below v claim.
    held: "dict[int, int]" = {}
    packed: "dict[int, tuple[list[int], list[int], dict]]" = {}
    below: "dict[int, list[int]]" = {}
    for v, v_msgs, own, by_child, kids in reversed(heavy):
        held_below = sum(map(held.__getitem__, kids))
        if v != top and len(v_msgs) - held_below < threshold:
            held[v] = held_below
            below[v] = kids
            continue
        held[v] = len(v_msgs)
        if kids:
            if all(map(packed.__contains__, kids)):
                # Packed children take their whole subtrees; every
                # other child keeps its list, in the same order.
                by_child = {
                    c: c_msgs for c, c_msgs in by_child.items()
                    if c not in packed
                }
            else:
                # An unpacked heavy child passes up what its packed
                # descendants leave: re-split what v itself claims.
                claimed: "set[int]" = set()
                todo = list(kids)
                while todo:
                    c = todo.pop()
                    if c in packed:
                        claimed.update(packed[c][0])
                    else:
                        todo += below[c]
                own, by_child = split_by_child(
                    paths, depth[v] + 1, targets, v,
                    [m for m in v_msgs if m not in claimed],
                )
        packed[v] = (v_msgs, own, by_child)
    return packed


def split_messages(split: "list[tuple[int, list[int]]]") -> tuple[int, ...]:
    """A packed set's messages from its split, ascending."""
    return tuple(sorted([m for _, c_msgs in split for m in c_msgs]))


def split_by_child(
    paths: "list[tuple[int, ...]]",
    below: int,
    targets: "Sequence[int] | Mapping[int, int]",
    v: int,
    msgs: "list[int]",
) -> "tuple[list[int], dict[int, list[int]]]":
    """``(own, by_child)``: the messages of ``msgs`` ending at internal
    node ``v``, and the rest keyed by the child of ``v`` they cross
    (``below`` is that child's depth), in order of each child's first
    message.  Both keep the order of ``msgs``."""
    own: "list[int]" = []
    by_child: "dict[int, list[int]]" = {}
    for m in msgs:
        t = targets[m]
        if t == v:
            own.append(m)
            continue
        c = paths[t][below]
        c_msgs = by_child.get(c)
        if c_msgs is None:
            by_child[c] = [m]
        else:
            c_msgs.append(m)
    return own, by_child
