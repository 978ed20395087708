"""Key-range shard routing over per-shard DAM machines.

A serving deployment splits the key space ``[0, key_space)`` into
contiguous ranges, one per shard.  Each shard is an independent
B^ε-shaped tree with its own DAM machine (``P`` parallel flushes, ``B``
messages per node/flush): the model of one storage device per shard.
:class:`ShardRouter` owns the ranges and the key -> (shard, leaf)
mapping.  Each shard's machine is a
:class:`~repro.policies.engine.ShardEngine` (re-exported here): the one
implementation of the flush gate, shared with the batch executors.
Serving steps it under its own rule — every step is real time in a
service, so an idle step is never rolled back (arrivals may land during
it), and a stuck shard is re-planned once its
:attr:`~repro.policies.engine.ShardEngine.idle_streak` passes
:data:`~repro.policies.engine.MAX_IDLE_STEPS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.policies.engine import ShardEngine, ShardStats
from repro.tree.builder import balanced_tree, beps_shape_tree
from repro.tree.topology import TreeTopology
from repro.util.errors import InvalidInstanceError

__all__ = ["ShardEngine", "ShardRouter", "ShardSpec", "ShardStats"]


@dataclass(frozen=True)
class ShardSpec:
    """A shard's identity: its key range and its tree."""

    shard_id: int
    key_lo: int
    key_hi: int  # exclusive
    topology: TreeTopology
    #: leaves in increasing id order (the key range maps onto these).
    leaves: "tuple[int, ...]" = field(default=())

    def leaf_for_key(self, key: int) -> int:
        """The leaf of this shard's tree that owns ``key``."""
        span = self.key_hi - self.key_lo
        idx = (key - self.key_lo) * len(self.leaves) // span
        return self.leaves[min(idx, len(self.leaves) - 1)]


class ShardRouter:
    """Contiguous key-range routing over ``n_shards`` B^ε-tree shards.

    The key space splits into near-equal contiguous ranges; each range
    maps onto one shard's leaves in key order (so range queries stay
    local, the reason production systems shard by range rather than
    hash).  ``fanout > 0`` builds balanced ``fanout``-ary shard trees of
    the given height; otherwise B^ε-shaped trees with ``leaves`` leaves.
    """

    def __init__(
        self,
        n_shards: int,
        key_space: int,
        *,
        B: int,
        fanout: int = 0,
        height: int = 3,
        leaves: int = 64,
        eps: float = 0.5,
    ) -> None:
        if n_shards < 1:
            raise InvalidInstanceError(
                f"n_shards must be >= 1, got {n_shards}"
            )
        if key_space < n_shards:
            raise InvalidInstanceError(
                f"key_space ({key_space}) must be >= n_shards ({n_shards})"
            )
        self.n_shards = int(n_shards)
        self.key_space = int(key_space)
        #: Breaker-open diversion overlay: ``{src_shard: dst_shard}``.
        #: While present, arrivals keyed into ``src``'s range are routed
        #: to ``dst`` (resolved transitively, so a diverted-to shard
        #: that itself trips forwards the chain).  The base ranges are
        #: untouched — removing the entry restores normal routing.
        self.diverted: "dict[int, int]" = {}
        self.shards: "list[ShardSpec]" = []
        for s in range(self.n_shards):
            lo = s * self.key_space // self.n_shards
            hi = (s + 1) * self.key_space // self.n_shards
            topo = (
                balanced_tree(fanout, height)
                if fanout
                else beps_shape_tree(B, eps, leaves)
            )
            self.shards.append(
                ShardSpec(s, lo, hi, topo, tuple(topo.leaves))
            )

    def route(self, key: int) -> "tuple[int, int]":
        """Map a key to ``(shard_id, target_leaf)``."""
        if not (0 <= key < self.key_space):
            raise InvalidInstanceError(
                f"key {key} outside key space [0, {self.key_space})"
            )
        sid = min(
            key * self.n_shards // self.key_space, self.n_shards - 1
        )
        # Integer division can land one shard off at range boundaries
        # (ranges are floor-divided); fix up locally.
        while key < self.shards[sid].key_lo:
            sid -= 1
        while key >= self.shards[sid].key_hi:
            sid += 1
        home = self.shards[sid]
        final = self.resolve(sid)
        if final == sid:
            return sid, home.leaf_for_key(key)
        # Diverted: preserve key order on the host by mapping the key's
        # position within its *home* range proportionally onto the
        # host's leaves (the key itself is outside the host's range, so
        # the host's own leaf_for_key cannot place it).
        return final, self.divert_leaf(home, self.shards[final], key)

    @staticmethod
    def divert_leaf(home: ShardSpec, host: ShardSpec, key: int) -> int:
        """Host-shard leaf for a key diverted away from its home range."""
        span = home.key_hi - home.key_lo
        idx = (key - home.key_lo) * len(host.leaves) // span
        return host.leaves[min(idx, len(host.leaves) - 1)]

    # -- breaker-open diversion overlay --------------------------------
    def resolve(self, sid: int) -> int:
        """Follow the diversion overlay from ``sid`` to its current host.

        Transitive with a cycle guard: if following the chain revisits a
        shard (two shards diverted at each other), routing falls back to
        the *original* shard — a cycle means no healthy host exists, and
        the supervisor's spill queue is the right destination.
        """
        seen = {sid}
        cur = sid
        while cur in self.diverted:
            cur = self.diverted[cur]
            if cur in seen:
                return sid
            seen.add(cur)
        return cur

    def divert(self, src: int, dst: int) -> None:
        """Route ``src``'s key range to ``dst`` until :meth:`undivert`."""
        if src == dst:
            raise InvalidInstanceError(
                f"shard {src} cannot divert to itself"
            )
        for s in (src, dst):
            if not (0 <= s < self.n_shards):
                raise InvalidInstanceError(
                    f"shard {s} outside [0, {self.n_shards})"
                )
        self.diverted[src] = dst

    def undivert(self, src: int) -> None:
        """Remove ``src``'s overlay entry (no-op when not diverted)."""
        self.diverted.pop(src, None)
