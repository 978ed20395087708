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
    packed_nodes, set_node, set_msgs, set_children = pack_sets(
        instance.topology.tables, instance.targets.tolist(), instance.B,
        denom,
    )
    n_msgs = instance.n_messages
    packed_parent_of = np.zeros(n_msgs, dtype=np.int64)
    set_of = np.full(n_msgs, -1, dtype=np.int64)
    sets = []
    for index, (v, msgs, children) in enumerate(
        zip(set_node, set_msgs, set_children)
    ):
        packed_parent_of[list(msgs)] = v
        set_of[list(msgs)] = index
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
    targets: "list[int]",
    B: int,
    denom: int = PACKED_DENOM,
    top: "int | None" = None,
) -> tuple[
    tuple[int, ...], list[int], list[tuple[int, ...]], list[tuple[int, ...]]
]:
    """The packed decomposition on flat lists: the planning kernel's stage.

    Message ``i`` targets ``targets[i]``, a node of the subtree rooted
    at ``top`` (default: the root), and ``top`` plays the root's part:
    it is always packed and claims every leftover message.  Returns
    ``(packed_nodes, set_node, set_msgs, set_children)``: the sorted
    packed nodes, and per packed set (in index order) its packed parent,
    its sorted message ids and its child group.
    """
    if denom < 2:
        raise InvalidInstanceError(f"denom must be >= 2, got {denom}")
    if top is None:
        top = tables.root
    paths = tables.path

    if denom * len(targets) < B:
        # Too few messages for any node below ``top`` to be packed.
        packed_nodes: "tuple[int, ...] | list[int]" = (top,)
        contents = {top: list(range(len(targets)))}
    else:
        packed_nodes, contents = _packed_contents(
            tables, targets, B, denom, top
        )

    set_node: list[int] = []
    set_msgs: list[tuple[int, ...]] = []
    set_children: list[tuple[int, ...]] = []
    threshold = -(-B // denom)  # ceil(B / denom)

    def emit(v: int, msgs: "list[int]", children: tuple[int, ...]) -> None:
        set_node.append(v)
        set_msgs.append(tuple(sorted(msgs)))
        set_children.append(children)

    def chunk(v: int, msgs: "list[int]") -> None:
        """Split messages with no child group into chunks of ~threshold."""
        chunks = [
            msgs[start : start + threshold]
            for start in range(0, len(msgs), threshold)
        ]
        if len(chunks) >= 2 and len(chunks[-1]) < threshold:
            chunks[-2].extend(chunks.pop())
        for c in chunks:
            emit(v, c, ())

    for v in packed_nodes:
        msgs = contents.get(v)
        if not msgs:
            continue  # only ``top`` can be packed with no messages left
        if tables.is_leaf[v]:
            chunk(v, msgs)
            continue
        # An internal packed node: group its children into packed sets.
        below = tables.depth[v] + 1  # index of v's child on a root path
        by_child: dict[int, list[int]] = {}
        own: list[int] = []  # internal-target extension: messages ending at v
        for m in msgs:
            target = targets[m]
            if target == v:
                own.append(m)
                continue
            by_child.setdefault(paths[target][below], []).append(m)
        # Messages completing at v itself behave like leaf-parent
        # messages: chunk them into their own sets with no child group.
        if own:
            chunk(v, own)
        groups: list[tuple[list[int], list[int]]] = []  # (children, msgs)
        cur_children: list[int] = []
        cur_msgs: list[int] = []
        for child in sorted(by_child):
            cur_children.append(child)
            cur_msgs.extend(by_child[child])
            if len(cur_msgs) >= threshold:
                groups.append((cur_children, cur_msgs))
                cur_children, cur_msgs = [], []
        if cur_msgs:
            if groups:
                groups[-1][0].extend(cur_children)
                groups[-1][1].extend(cur_msgs)
            else:
                groups.append((cur_children, cur_msgs))
        for children, group_msgs in groups:
            emit(v, group_msgs, tuple(children))

    return tuple(packed_nodes), set_node, set_msgs, set_children


def _packed_contents(
    tables: TreeTables,
    targets: "list[int]",
    B: int,
    denom: int,
    top: int,
) -> "tuple[list[int], dict[int, list[int]]]":
    """The sorted packed nodes of the subtree rooted at ``top``, and the
    messages each one claims (packed contents, in message-id order)."""
    paths = tables.path
    depth = tables.depth
    is_leaf = tables.is_leaf

    # Top-down, split each node's messages by the child they cross.  A
    # child holding fewer than B/denom of them cannot be packed, nor can
    # anything below it: its messages rise, unclaimed.  Only the other
    # ("heavy") children are split further.  ``heavy`` lists (node, its
    # own and risen messages, its heavy children) in pre-order.
    heavy: "list[tuple[int, list[int], list[int]]]" = []
    stack = [(top, list(range(len(targets))))]
    while stack:
        v, msgs = stack.pop()
        if is_leaf[v]:
            heavy.append((v, msgs, []))
            continue
        below = depth[v] + 1
        rest: "list[int]" = []
        by_child: "dict[int, list[int]]" = {}
        for m in msgs:
            t = targets[m]
            if t == v:
                rest.append(m)
            else:
                by_child.setdefault(paths[t][below], []).append(m)
        kids = []
        for c, child_msgs in by_child.items():
            if denom * len(child_msgs) >= B:
                kids.append(c)
                stack.append((c, child_msgs))
            else:
                rest += child_msgs
        heavy.append((v, rest, kids))

    # Bottom-up: a node's unclaimed messages are its own and risen ones
    # plus those of its unpacked heavy children; it becomes packed when
    # they number at least B/denom (exact integer comparison), and
    # ``top`` is always packed.
    contents: "dict[int, list[int]]" = {}
    unclaimed: "dict[int, list[int]]" = {}
    for v, rest, kids in reversed(heavy):
        for c in kids:
            if c not in contents:
                rest += unclaimed.pop(c)
        if v == top or denom * len(rest) >= B:
            contents[v] = sorted(rest)
        else:
            unclaimed[v] = rest
    return sorted(contents), contents
