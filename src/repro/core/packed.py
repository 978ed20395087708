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
ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.worms import WORMSInstance
from repro.tree.topology import TreeTopology
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

    @cached_property
    def sets_of_node(self) -> dict[int, tuple[int, ...]]:
        """Map packed node -> indices of its packed sets."""
        result: dict[int, list[int]] = {v: [] for v in self.packed_nodes}
        for s in self.sets:
            result[s.parent_node].append(s.index)
        return {v: tuple(ixs) for v, ixs in result.items()}

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
    """
    if denom < 2:
        raise InvalidInstanceError(f"denom must be >= 2, got {denom}")
    topo = instance.topology
    B = instance.B
    root = topo.root
    n_msgs = instance.n_messages
    targets = instance.targets.tolist()

    # Only nodes on some message's root-to-target path can hold messages;
    # every other node has nothing unclaimed and is never packed.  Collect
    # those nodes level by level (a node's level is its height).
    per_target: dict[int, int] = {}
    for t in targets:
        per_target[t] = per_target.get(t, 0) + 1
    unclaimed = dict(per_target)
    up: dict[int, int] = {}  # node -> parent, for the visited nodes
    levels: list[list[int]] = [[] for _ in range(topo.height + 1)]
    for t in per_target:
        path = topo.root_path(t)
        for h in range(len(path) - 1, 0, -1):
            v = path[h]
            if v in up:
                break  # this node and its ancestors are already listed
            up[v] = path[h - 1]
            levels[h].append(v)
            unclaimed.setdefault(v, 0)

    # Bottom-up: unclaimed[v] = messages targeting subtree(v) not claimed
    # by a packed strict descendant of v.  v becomes packed when
    # unclaimed[v] >= B/denom (exact integer comparison).
    is_packed = {root}
    for level in reversed(levels[1:]):
        for v in level:
            if denom * unclaimed[v] >= B:
                is_packed.add(v)
            else:
                p = up[v]
                unclaimed[p] = unclaimed.get(p, 0) + unclaimed[v]

    # Each message's packed parent: lowest packed ancestor-or-self of its
    # target (the root is packed, so one always exists).
    lowest_packed: dict[int, int] = {}
    for t in per_target:
        path = topo.root_path(t)
        h = len(path) - 1
        while path[h] not in is_packed:
            h -= 1
        lowest_packed[t] = path[h]
    packed_parent = [lowest_packed[t] for t in targets]
    packed_parent_of = np.array(packed_parent, dtype=np.int64)

    # Group messages by packed parent, preserving message-id order.
    contents: dict[int, list[int]] = {}
    for m, v in enumerate(packed_parent):
        contents.setdefault(v, []).append(m)

    sets: list[PackedSet] = []
    set_of = np.full(n_msgs, -1, dtype=np.int64)
    threshold = -(-B // denom)  # ceil(B / denom)

    packed_nodes = sorted(is_packed)
    for v in packed_nodes:
        msgs = contents.get(v, [])
        if not msgs:
            continue  # only the root can be packed with no messages left
        if topo.is_leaf(v):
            _chunk_leaf_sets(sets, set_of, v, msgs, threshold)
        else:
            _group_child_sets(
                topo, targets, sets, set_of, v, msgs, threshold
            )

    return PackedDecomposition(
        instance=instance,
        packed_nodes=tuple(packed_nodes),
        sets=tuple(sets),
        packed_parent_of=packed_parent_of,
        set_of=set_of,
    )


def _chunk_leaf_sets(
    sets: list[PackedSet],
    set_of: np.ndarray,
    v: int,
    msgs: list[int],
    threshold: int,
) -> None:
    """Split a leaf packed node's messages into chunks of ~threshold."""
    chunks: list[list[int]] = []
    for start in range(0, len(msgs), threshold):
        chunks.append(msgs[start : start + threshold])
    if len(chunks) >= 2 and len(chunks[-1]) < threshold:
        chunks[-2].extend(chunks.pop())
    for chunk in chunks:
        _emit(sets, set_of, v, chunk, ())


def _group_child_sets(
    topo: TreeTopology,
    targets: list[int],
    sets: list[PackedSet],
    set_of: np.ndarray,
    v: int,
    msgs: list[int],
    threshold: int,
) -> None:
    """Group an internal packed node's children into packed sets."""
    below = topo.height_of(v) + 1  # index of v's child on a root path
    by_child: dict[int, list[int]] = {}
    own: list[int] = []  # internal-target extension: messages ending at v
    for m in msgs:
        target = targets[m]
        if target == v:
            own.append(m)
            continue
        child = topo.root_path(target)[below]
        by_child.setdefault(child, []).append(m)
    # Messages completing at v itself behave like leaf-parent messages:
    # chunk them into their own sets with no child group.
    if own:
        _chunk_leaf_sets(sets, set_of, v, own, threshold)
    groups: list[tuple[list[int], list[int]]] = []  # (children, messages)
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
        _emit(sets, set_of, v, group_msgs, tuple(children))


def _emit(
    sets: list[PackedSet],
    set_of: np.ndarray,
    v: int,
    msgs: list[int],
    child_group: tuple[int, ...],
) -> None:
    index = len(sets)
    for m in msgs:
        set_of[m] = index
    sets.append(
        PackedSet(
            index=index,
            parent_node=v,
            messages=tuple(sorted(msgs)),
            child_group=child_group,
        )
    )
