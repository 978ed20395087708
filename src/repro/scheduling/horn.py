"""Horn task densities, Horn's trees, and Horn's single-machine algorithm.

For a task ``j``, ``F_j`` is the highest-density subtree rooted at ``j``
(density = total weight / number of tasks); the *task density* of ``j`` is
the density of ``F_j``.  The *Horn's trees* partition all tasks: repeatedly
take a root ``j`` of the remaining forest, carve out ``F_j``, and recurse
(Section 4.2).

The construction runs bottom-up in ``O(n log^2 n)`` with binary heaps
melded small-into-large (each item moves ``O(log n)`` times): every task
starts as its own F-tree; while the densest subtree pending below the
growing ``F_j`` is strictly denser than ``F_j``, absorb it.  Eager heap
melding is sound because a subtree pending below ``F_c`` is strictly
less dense than ``F_c`` and therefore can never be popped before the
item for ``F_c`` itself; ties are broken LIFO (higher insertion sequence
first) so an ancestor item always pops before its equal-density pending
descendants.

**Exact integer keys.**  Observation 11 style arguments (and therefore
the Horn-tree partition) depend on exact density comparisons, which
floats would occasionally get wrong.  Densities are compared by the
integer key ``floor(W * n**2 / s)``, where ``W`` is the subtree's weight
scaled to an integer (:attr:`SchedulingInstance.integer_weights`) and
``s <= n`` its size.  Two distinct densities ``a/s`` and ``b/t`` with
``s, t <= n`` differ by ``|a*t - b*s| / (s*t) >= 1/n**2``, so their keys
differ too: the key preserves both order and equality.  The exact
:class:`fractions.Fraction` densities are still available as
:attr:`HornDecomposition.task_density`, built on first access.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from repro.scheduling.cost import TaskSchedule
from repro.scheduling.instance import SchedulingInstance


@dataclass(frozen=True)
class HornDecomposition:
    """Task densities and the Horn's-tree partition of an instance.

    Attributes
    ----------
    density_key:
        ``density_key[j]`` = ``floor(W(F_j) * n**2 / s(F_j))``, the exact
        integer order key of ``j``'s task density (see module docstring).
    f_size:
        Size of ``F_j`` at the moment it was fixed.
    horn_root:
        ``horn_root[j]`` = id of the task whose ``F``-tree is the Horn's
        tree containing ``j``.
    f_weight_scaled / weight_scale:
        ``W(F_j)``, the weight of ``F_j`` times ``weight_scale``.
    """

    density_key: tuple[int, ...]
    f_size: tuple[int, ...]
    horn_root: np.ndarray
    f_weight_scaled: tuple[int, ...]
    weight_scale: int

    @cached_property
    def f_weight(self) -> tuple[Fraction, ...]:
        """Weight of ``F_j`` (exact fraction)."""
        scale = self.weight_scale
        return tuple(Fraction(w, scale) for w in self.f_weight_scaled)

    @cached_property
    def task_density(self) -> tuple[Fraction, ...]:
        """``task_density[j]`` = density of ``F_j`` (exact fraction)."""
        scale = self.weight_scale
        return tuple(
            Fraction(w, scale * s)
            for w, s in zip(self.f_weight_scaled, self.f_size)
        )

    def priorities(self) -> list[int]:
        """Min-heap priority per task (see :func:`density_priorities`)."""
        return density_priorities(self.density_key)

    def tree_density(self, root: int) -> Fraction:
        """Density ``w(T_i)/s(T_i)`` of the Horn's tree rooted at ``root``."""
        return self.task_density[root]

    def tree_members(self) -> dict[int, list[int]]:
        """Map Horn-tree root -> sorted member task ids."""
        members: dict[int, list[int]] = {}
        for j, r in enumerate(self.horn_root):
            members.setdefault(int(r), []).append(j)
        return members

    @property
    def n_trees(self) -> int:
        """Number of Horn's trees in the partition."""
        return len(set(int(r) for r in self.horn_root))


def compute_horn(instance: SchedulingInstance) -> HornDecomposition:
    """Compute task densities and Horn's trees in ``O(n log n)``.

    A thin wrapper over :func:`horn_trees`, the planning kernel's stage.
    """
    weights, scale = instance.integer_weights
    key, f_weight, f_size, horn_root = horn_trees(
        instance.children_lists(), instance.topological_order(), weights
    )
    roots_arr = np.array(horn_root, dtype=np.int64)
    roots_arr.setflags(write=False)
    return HornDecomposition(
        density_key=tuple(key),
        f_size=tuple(f_size),
        horn_root=roots_arr,
        f_weight_scaled=tuple(f_weight),
        weight_scale=scale,
    )


def horn_trees(
    children: "list[list[int]]", order: "list[int]", weights: "list[int]"
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Density keys and Horn's trees on flat lists.

    ``children`` and ``order`` (parents before children: a BFS, or task
    order when every task is numbered after its predecessor) describe
    the task forest;
    ``weights`` are the integer-scaled task weights.  Returns ``(key,
    f_weight, f_size, horn_root)`` per task: the integer density key
    of ``F_j``, its scaled weight and size, and the root of ``j``'s
    Horn's tree.
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    n = len(weights)
    n2 = n * n
    key = [0] * n
    f_weight = list(weights)
    f_size = [1] * n
    absorbed_into = [-1] * n
    # Min-heap (heapq list) of pending subtrees strictly below the
    # growing F_j: subtree ``c`` is the int ``-((key * n + seq) * n + c)``
    # (seq < n is its insertion sequence), so the densest pops first and
    # equal densities pop LIFO.  ``None`` is an empty heap.
    pending: "list[list[int] | None]" = [None] * n
    seq = 0

    for j in reversed(order):
        kids = children[j]
        if not kids:  # F_j is j alone
            key[j] = weights[j] * n2
            continue
        if len(kids) == 1 and not pending[kids[0]]:
            # One child and nothing pending below it (a chain): F_j
            # absorbs F_c iff it is strictly denser than j alone.
            c = kids[0]
            w = weights[j]
            if key[c] > w * n2:
                w += f_weight[c]
                s = 1 + f_size[c]
                key[j] = w * n2 // s
                f_weight[j] = w
                f_size[j] = s
                absorbed_into[c] = j
            else:
                key[j] = w * n2
                pending[j] = [-((key[c] * n + seq) * n + c)]
            seq += 1
            continue
        heap: "list[int] | None" = None
        for c in kids:
            child_heap = pending[c]
            pending[c] = None  # released: its items now live in `heap`
            if heap is None:
                heap = child_heap if child_heap is not None else []
            elif child_heap:
                if len(child_heap) > len(heap):
                    heap, child_heap = child_heap, heap
                for item in child_heap:
                    heappush(heap, item)
            heappush(heap, -((key[c] * n + seq) * n + c))
            seq += 1
        w = weights[j]
        s = 1
        k = w * n2  # == floor(w * n**2 / s) while s == 1
        # A pending subtree is strictly denser iff its key exceeds k,
        # i.e. iff its heap item is at most -(k + 1) * n**2.
        while heap and heap[0] <= -(k + 1) * n2:
            x = -heappop(heap) % n
            w += f_weight[x]
            s += f_size[x]
            k = w * n2 // s
            absorbed_into[x] = j
        key[j] = k
        f_weight[j] = w
        f_size[j] = s
        pending[j] = heap

    # Resolve the partition: a task's Horn root is the top of its
    # absorbed-into chain.  A task is only absorbed into an ancestor, so
    # one pass parents-first resolves every chain.
    horn_root = list(range(n))
    for j in order:
        above = absorbed_into[j]
        if above != -1:
            horn_root[j] = horn_root[above]
    return key, f_weight, f_size, horn_root


def density_priorities(key: "list[int]") -> list[int]:
    """Min-heap priority per task: densest first, then lowest id.

    ``-key[j] * n + j`` orders tasks exactly as the pairs
    ``(-task_density[j], j)`` do, as one int (``0 <= j < n``).
    """
    n = len(key)
    return list(map(operator.sub, range(n), map(n.__mul__, key)))


def horn_schedule(
    instance: SchedulingInstance,
    horn: HornDecomposition | None = None,
) -> TaskSchedule:
    """Horn's algorithm: optimal for ``1 | outtree | Sum wC`` (Lemma 10).

    Greedy by task density: one task per time step, always the available
    task whose ``F``-tree is densest (ties broken by lowest id).  Works for
    any ``P`` in the instance but is only *optimal* when ``P == 1``; for
    ``P > 1`` use :func:`repro.scheduling.phtf.phtf_schedule`.
    """
    if horn is None:
        horn = compute_horn(instance)
    n = instance.n_tasks
    children = instance.children_lists()
    prio = horn.priorities()
    # Min-heap on priority: highest density first, then lowest id.
    available = [prio[j] for j in instance.roots()]
    heapq.heapify(available)
    steps: list[list[int]] = []
    while available:
        j = heapq.heappop(available) % n
        steps.append([j])
        for c in children[j]:
            heapq.heappush(available, prio[c])
    return TaskSchedule(steps)
