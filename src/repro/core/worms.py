"""The WORMS problem instance: ``(T, M, P, B)``.

An instance consists of a static tree ``T``, a set of messages ``M`` (each
with a target leaf), and the DAM parameters ``P`` (parallel flushes per
time step) and ``B`` (messages per node / per flush).  The goal is a valid
flush schedule minimizing total completion time (Section 2.1).

Messages conventionally start at the root (the root holds an unbounded
backlog); per-message start nodes on the root-to-target path are also
supported so that mid-tree backlogs snapshotted from a live B^epsilon-tree
can be simulated, but the paper's approximation pipeline requires
root starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.tree.messages import Message
from repro.tree.topology import TreeTopology
from repro.util.errors import InvalidInstanceError


@dataclass(frozen=True)
class WORMSInstance:
    """An instance ``(T, M, P, B)`` of write-optimized root-to-leaf
    message scheduling.

    Attributes
    ----------
    topology:
        The static tree ``T``.
    messages:
        The messages ``M``; ``messages[i].msg_id`` must equal ``i`` so that
        schedules can refer to messages by index.
    P:
        Parallel flushes per time step.
    B:
        Node capacity and flush capacity.
    start_nodes:
        Optional per-message start node (defaults to the root for all).
    weights:
        Optional non-negative per-message weights for the *weighted*
        total completion time objective (the reduction target
        ``P|outtree,p_j=1|Sum wC`` is weighted anyway, so the pipeline
        supports this extension natively).  ``None`` means unit weights,
        i.e. the paper's plain average completion time.
    allow_internal_targets:
        The paper assumes all targets are leaves (footnote 3 notes the
        techniques "likely extend" to internal targets).  Setting this
        flag enables that extension: a message may target any node and
        completes on arrival there.  Off by default to keep the strict
        model.
    """

    topology: TreeTopology
    messages: tuple[Message, ...]
    P: int
    B: int
    start_nodes: tuple[int, ...] | None = None
    weights: tuple[float, ...] | None = None
    allow_internal_targets: bool = False

    def __init__(
        self,
        topology: TreeTopology,
        messages: Sequence[Message],
        P: int,
        B: int,
        start_nodes: Sequence[int] | None = None,
        weights: Sequence[float] | None = None,
        allow_internal_targets: bool = False,
    ) -> None:
        object.__setattr__(
            self, "allow_internal_targets", bool(allow_internal_targets)
        )
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "messages", tuple(messages))
        object.__setattr__(self, "P", int(P))
        object.__setattr__(
            self,
            "start_nodes",
            None if start_nodes is None else tuple(int(s) for s in start_nodes),
        )
        object.__setattr__(
            self,
            "weights",
            None if weights is None else tuple(float(w) for w in weights),
        )
        object.__setattr__(self, "B", int(B))
        self._validate()

    def _validate(self) -> None:
        if self.P < 1:
            raise InvalidInstanceError(f"P must be >= 1, got {self.P}")
        if self.B < 1:
            raise InvalidInstanceError(f"B must be >= 1, got {self.B}")
        topo = self.topology
        for i, msg in enumerate(self.messages):
            if msg.msg_id != i:
                raise InvalidInstanceError(
                    f"messages[{i}] has msg_id {msg.msg_id}; ids must be dense"
                )
            if not (0 <= msg.target_leaf < topo.n_nodes):
                raise InvalidInstanceError(
                    f"message {i} targets unknown node {msg.target_leaf}"
                )
            if not self.allow_internal_targets and not topo.is_leaf(
                msg.target_leaf
            ):
                raise InvalidInstanceError(
                    f"message {i} targets non-leaf node {msg.target_leaf} "
                    "(pass allow_internal_targets=True for the footnote-3 "
                    "extension)"
                )
        if self.weights is not None:
            if len(self.weights) != len(self.messages):
                raise InvalidInstanceError(
                    "weights length must match number of messages"
                )
            if not all(math.isfinite(w) for w in self.weights):
                raise InvalidInstanceError("message weights must be finite")
            if any(w < 0 for w in self.weights):
                raise InvalidInstanceError("message weights must be >= 0")
        if self.start_nodes is not None:
            if len(self.start_nodes) != len(self.messages):
                raise InvalidInstanceError(
                    "start_nodes length must match number of messages"
                )
            for i, start in enumerate(self.start_nodes):
                if not topo.is_descendant(self.messages[i].target_leaf, start):
                    raise InvalidInstanceError(
                        f"message {i} starts at {start}, which is not on its "
                        f"root-to-{self.messages[i].target_leaf} path"
                    )

    # ------------------------------------------------------------------
    # Derived data
    # ------------------------------------------------------------------
    @property
    def n_messages(self) -> int:
        """Number of messages ``|M|``."""
        return len(self.messages)

    @property
    def n(self) -> int:
        """The paper's size measure ``n = |M| + |T|``."""
        return len(self.messages) + self.topology.n_nodes

    @property
    def height(self) -> int:
        """Tree height ``h``."""
        return self.topology.height

    def start_of(self, msg_id: int) -> int:
        """Start node of a message (the root unless overridden)."""
        if self.start_nodes is None:
            return self.topology.root
        return self.start_nodes[msg_id]

    @cached_property
    def message_weights(self) -> np.ndarray:
        """Per-message weights as an array (unit weights by default)."""
        if self.weights is None:
            arr = np.ones(len(self.messages), dtype=np.float64)
        else:
            arr = np.asarray(self.weights, dtype=np.float64)
        arr.setflags(write=False)
        return arr

    def weight_of(self, msg_ids: "Sequence[int]") -> float:
        """Total weight of a collection of message ids."""
        w = self.message_weights
        return float(sum(w[m] for m in msg_ids))

    @cached_property
    def targets(self) -> np.ndarray:
        """``targets[i]`` = target leaf of message ``i`` (read-only)."""
        arr = np.fromiter(
            (m.target_leaf for m in self.messages),
            dtype=np.int64,
            count=len(self.messages),
        )
        arr.setflags(write=False)
        return arr

    @cached_property
    def messages_per_leaf(self) -> np.ndarray:
        """``messages_per_leaf[v]`` = number of messages targeting node v."""
        counts = np.bincount(self.targets, minlength=self.topology.n_nodes)
        counts.setflags(write=False)
        return counts

    @cached_property
    def messages_in_subtree(self) -> np.ndarray:
        """``messages_in_subtree[v]`` = messages targeting a descendant of v.

        Computed by one bottom-up pass; the packed-node construction is
        built on this array.
        """
        counts = np.array(self.messages_per_leaf, dtype=np.int64)
        parents = self.topology.parents
        for v in self.topology.bfs_order[::-1]:
            p = int(parents[v])
            if p >= 0:
                counts[p] += counts[v]
        counts.setflags(write=False)
        return counts

    def messages_by_leaf(self) -> dict[int, list[int]]:
        """Map target leaf -> sorted list of message ids targeting it."""
        by_leaf: dict[int, list[int]] = {}
        for i, msg in enumerate(self.messages):
            by_leaf.setdefault(msg.target_leaf, []).append(i)
        return by_leaf

    def total_work(self) -> int:
        """Total message-hops needed: sum over messages of path length."""
        heights = self.topology.heights
        return int(
            sum(
                heights[m.target_leaf] - heights[self.start_of(m.msg_id)]
                for m in self.messages
            )
        )

    def __repr__(self) -> str:
        return (
            f"WORMSInstance(|T|={self.topology.n_nodes}, |M|={self.n_messages}, "
            f"P={self.P}, B={self.B}, h={self.height})"
        )
