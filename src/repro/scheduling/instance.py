"""Instances of ``P | outtree, p_j = 1 | Sum w_j C_j``.

Tasks are ids ``0..n-1``.  Each task has at most one predecessor (its
*parent*); the precedence graph is therefore a forest of out-trees.  Every
task takes one unit of processing on one of ``P`` identical machines, and
carries a non-negative weight; the objective is total weighted completion
time.

The forest structure (children, roots, topological order) and the
integer-scaled weights the density code compares are derived once per
instance, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.util.errors import InvalidInstanceError


@dataclass(frozen=True)
class SchedulingInstance:
    """A ``P | outtree, p_j = 1 | Sum wC`` instance.

    Attributes
    ----------
    parent:
        ``parent[j]`` is the predecessor of task ``j`` (must complete in a
        strictly earlier time step) or ``-1`` if ``j`` has none.
    weights:
        Non-negative, finite per-task weights.  Every finite float is a
        dyadic rational, so :attr:`integer_weights` scales them all to
        integers by one power of two and density comparisons stay exact.
    P:
        Number of identical machines (tasks processed per time step).
    """

    parent: np.ndarray
    weights: np.ndarray
    P: int

    def __init__(
        self,
        parent: Sequence[int],
        weights: Sequence[float],
        P: int,
    ) -> None:
        parent_arr = np.asarray(parent, dtype=np.int64).copy()
        weights_arr = np.asarray(weights, dtype=np.float64).copy()
        parent_arr.setflags(write=False)
        weights_arr.setflags(write=False)
        object.__setattr__(self, "parent", parent_arr)
        object.__setattr__(self, "weights", weights_arr)
        object.__setattr__(self, "P", int(P))
        self._validate()

    def _validate(self) -> None:
        n = self.n_tasks
        if self.P < 1:
            raise InvalidInstanceError(f"P must be >= 1, got {self.P}")
        if self.weights.shape[0] != n:
            raise InvalidInstanceError(
                f"{n} tasks but {self.weights.shape[0]} weights"
            )
        if n and not np.isfinite(self.weights).all():
            raise InvalidInstanceError("task weights must be finite")
        if n and (self.weights < 0).any():
            raise InvalidInstanceError("task weights must be non-negative")
        if n and ((self.parent >= n) | (self.parent < -1)).any():
            raise InvalidInstanceError("parent ids out of range")
        # Forest check.  Every reduction numbers a task after its parent,
        # and ``parent[j] < j`` for all j rules out cycles in O(n).
        if (self.parent < np.arange(n)).all():
            return
        # Otherwise walking up from any node must reach a root without
        # revisiting (no cycles).  One pass with memoized "reaches root".
        ok = np.zeros(n, dtype=bool)
        for start in range(n):
            path = []
            j = start
            while j != -1 and not ok[j]:
                path.append(j)
                j = int(self.parent[j])
                if len(path) > n:
                    raise InvalidInstanceError("precedence constraints contain a cycle")
            if j == -1 or ok[j]:
                ok[list(path)] = True
            else:  # pragma: no cover - unreachable given the length guard
                raise InvalidInstanceError("precedence constraints contain a cycle")

    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        """Number of tasks."""
        return int(self.parent.shape[0])

    def __len__(self) -> int:
        return self.n_tasks

    @property
    def total_weight(self) -> float:
        """Sum of all task weights."""
        return float(self.weights.sum()) if self.n_tasks else 0.0

    @cached_property
    def _forest(self) -> tuple[list[list[int]], list[int], list[int]]:
        """``(children, roots, BFS order)``, built in one pass."""
        children: list[list[int]] = [[] for _ in range(self.n_tasks)]
        roots: list[int] = []
        for j, p in enumerate(self.parent.tolist()):
            if p >= 0:
                children[p].append(j)
            else:
                roots.append(j)
        order = list(roots)
        for j in order:  # grows while iterating: a BFS from the roots
            order.extend(children[j])
        return children, roots, order

    def roots(self) -> list[int]:
        """Tasks with no precedence constraint (shared; do not mutate)."""
        return self._forest[1]

    def children_lists(self) -> list[list[int]]:
        """``children[j]`` = tasks whose parent is ``j`` (shared; do not
        mutate)."""
        return self._forest[0]

    def topological_order(self) -> list[int]:
        """Task ids ordered parents-before-children (BFS from the roots;
        shared, do not mutate)."""
        return self._forest[2]

    @cached_property
    def integer_weights(self) -> tuple[list[int], int]:
        """``(W, scale)`` with ``W[j] == weights[j] * scale`` exactly.

        ``scale`` is the largest power-of-two denominator among the
        weights (1 for integer weights), so every ``W[j]`` is an integer
        and ``W[j] / scale`` is the exact rational value of the float.
        """
        return integer_weights(self.weights.tolist())

    def weight_fraction(self, j: int) -> Fraction:
        """Task weight as an exact fraction (floats are converted exactly)."""
        w = float(self.weights[j])
        if w == int(w):
            return Fraction(int(w))
        return Fraction(w)

    def depth(self, j: int) -> int:
        """Number of predecessors above ``j`` (chain length to its root)."""
        d = 0
        while (j := int(self.parent[j])) != -1:
            d += 1
        return d

    def __repr__(self) -> str:
        return (
            f"SchedulingInstance(n_tasks={self.n_tasks}, P={self.P}, "
            f"total_weight={self.total_weight:g})"
        )


def integer_weights(weights: "list[float]") -> tuple[list[int], int]:
    """``(W, scale)``: ``weights`` scaled to integers by one power of two.

    See :attr:`SchedulingInstance.integer_weights`.  Integer weights (the
    unit-weight reduction's task weights) come back unchanged with scale 1.
    """
    ratios = [w.as_integer_ratio() for w in weights]
    scale = max((den for _, den in ratios), default=1)
    return [num * (scale // den) for num, den in ratios], scale
