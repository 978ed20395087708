"""Static rooted-tree topology used by the WORMS model.

The paper assumes the tree structure is fixed while the message backlog is
flushed (Section 2.1: "we assume the tree is static and that we always know
the leaf where any key should be stored").  ``TreeTopology`` captures
exactly that: node ids ``0..n-1`` with node 0 as the root, parent pointers,
children lists, and per-node heights, where — following the paper —
``height(v)`` is the number of edges on the root-to-``v`` path (so the root
has height 0 and ``height`` increases downward).

The class is immutable after construction; all derived data (heights,
leaves, subtree sizes) is precomputed once with iterative traversals so that
deep trees do not hit Python's recursion limit.  Root-to-node paths are
built on first request and cached per node (:meth:`TreeTopology.root_path`),
so planners that touch only a few targets pay only for those paths.
:attr:`TreeTopology.tables` holds the same per-node facts as flat Python
lists for the planning kernel, built once per tree on first use.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.util.errors import InvalidInstanceError

ROOT = 0


class TreeTopology:
    """An immutable rooted tree over node ids ``0..n-1`` with root 0.

    Parameters
    ----------
    parent:
        ``parent[v]`` is the parent id of node ``v``; ``parent[0]`` must be
        ``-1``.  The array fully determines the tree.

    Raises
    ------
    InvalidInstanceError
        if the parent array does not describe a tree rooted at 0 (cycle,
        out-of-range parent, multiple roots, ...).
    """

    __slots__ = (
        "_parent",
        "_children",
        "_height",
        "_order",
        "_leaves",
        "_subtree_size",
        "_tree_height",
        "_paths",
        "_tables",
    )

    def __init__(self, parent: Sequence[int]) -> None:
        parent_arr = np.asarray(parent, dtype=np.int64)
        n = parent_arr.shape[0]
        if n == 0:
            raise InvalidInstanceError("tree must have at least one node")
        if parent_arr[ROOT] != -1:
            raise InvalidInstanceError("node 0 must be the root (parent -1)")
        if n > 1:
            rest = parent_arr[1:]
            if (rest < 0).any() or (rest >= n).any():
                raise InvalidInstanceError("parent ids out of range")
        self._parent = parent_arr
        self._parent.setflags(write=False)

        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(1, n):
            children[int(parent_arr[v])].append(v)
        self._children = tuple(tuple(c) for c in children)

        # BFS from the root: computes heights, a topological order, and
        # detects disconnected components / cycles (unreached nodes).
        height = np.full(n, -1, dtype=np.int64)
        order = np.empty(n, dtype=np.int64)
        height[ROOT] = 0
        order[0] = ROOT
        head, tail = 0, 1
        while head < tail:
            v = int(order[head])
            head += 1
            for c in self._children[v]:
                height[c] = height[v] + 1
                order[tail] = c
                tail += 1
        if tail != n:
            raise InvalidInstanceError(
                f"parent array does not describe a tree: {n - tail} node(s) "
                "unreachable from the root (cycle or disconnected)"
            )
        self._height = height
        self._height.setflags(write=False)
        self._order = order
        self._order.setflags(write=False)
        self._tree_height = int(height.max())

        self._leaves = tuple(v for v in range(n) if not self._children[v])

        # Subtree sizes via reverse BFS order (children appear after parents).
        size = np.ones(n, dtype=np.int64)
        for v in order[::-1]:
            p = int(parent_arr[v])
            if p >= 0:
                size[p] += size[v]
        self._subtree_size = size
        self._subtree_size.setflags(write=False)
        self._paths: dict[int, tuple[int, ...]] = {}
        self._tables: "TreeTables | None" = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes in the tree."""
        return int(self._parent.shape[0])

    def __len__(self) -> int:
        return self.n_nodes

    @property
    def root(self) -> int:
        """Root node id (always 0)."""
        return ROOT

    @property
    def height(self) -> int:
        """Height ``h`` of the tree: max number of edges root-to-leaf."""
        return self._tree_height

    @property
    def leaves(self) -> tuple[int, ...]:
        """All leaf node ids in increasing id order."""
        return self._leaves

    @property
    def parents(self) -> np.ndarray:
        """Read-only parent array (``parent[root] == -1``)."""
        return self._parent

    @property
    def heights(self) -> np.ndarray:
        """Read-only per-node height array (root has height 0)."""
        return self._height

    @property
    def bfs_order(self) -> np.ndarray:
        """Node ids in BFS (top-down) order; reverse it for bottom-up scans."""
        return self._order

    def parent_of(self, v: int) -> int:
        """Parent id of ``v`` (``-1`` for the root)."""
        return int(self._parent[v])

    def children_of(self, v: int) -> tuple[int, ...]:
        """Children ids of ``v`` in increasing id order."""
        return self._children[v]

    def height_of(self, v: int) -> int:
        """Number of edges between ``v`` and the root (paper's ``h(v)``)."""
        return int(self._height[v])

    def is_leaf(self, v: int) -> bool:
        """True iff ``v`` has no children."""
        return not self._children[v]

    def subtree_size(self, v: int) -> int:
        """Number of nodes in the subtree rooted at ``v`` (including ``v``)."""
        return int(self._subtree_size[v])

    @property
    def tables(self) -> "TreeTables":
        """Flat per-node lists for the planning kernel (built once)."""
        if self._tables is None:
            self._tables = TreeTables(self)
        return self._tables

    # ------------------------------------------------------------------
    # Paths and ancestry
    # ------------------------------------------------------------------
    def root_path(self, v: int) -> tuple[int, ...]:
        """Node ids on the root-to-``v`` path, root first, ``v`` last.

        Cached per node: the first call walks up in O(height), later
        calls are a dict lookup.  ``root_path(t)[height_of(u) + 1]`` is
        the child of ancestor ``u`` towards ``t``.
        """
        path = self._paths.get(v)
        if path is None:
            up = []
            node = v
            while node != -1:
                up.append(node)
                node = int(self._parent[node])
            path = self._paths[v] = tuple(reversed(up))
        return path

    def path_from_root(self, v: int) -> list[int]:
        """Node ids on the root-to-``v`` path, root first, ``v`` last."""
        return list(self.root_path(v))

    def edges_from_root(self, v: int) -> list[tuple[int, int]]:
        """The ``height_of(v)`` edges of the root-to-``v`` path, top first."""
        path = self.root_path(v)
        return list(zip(path[:-1], path[1:]))

    def is_descendant(self, v: int, ancestor: int) -> bool:
        """True iff ``v`` is ``ancestor`` or lies in its subtree.

        The paper's convention: every node is a descendant of itself.
        Walks up from ``v``; O(height).
        """
        node = v
        target_height = int(self._height[ancestor])
        while node != -1 and int(self._height[node]) >= target_height:
            if node == ancestor:
                return True
            node = int(self._parent[node])
        return False

    def child_towards(self, v: int, descendant: int) -> int:
        """The child of ``v`` whose subtree contains ``descendant``.

        ``descendant`` must be a strict descendant of ``v``.
        """
        node = descendant
        parent = int(self._parent[node])
        while parent != v:
            if parent == -1:
                raise InvalidInstanceError(
                    f"node {descendant} is not a strict descendant of {v}"
                )
            node = parent
            parent = int(self._parent[node])
        return node

    def iter_subtree(self, v: int) -> Iterator[int]:
        """Yield all nodes of the subtree rooted at ``v`` in DFS preorder."""
        stack = [v]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self._children[node]))

    def leaves_under(self, v: int) -> list[int]:
        """All leaves in the subtree rooted at ``v``."""
        return [u for u in self.iter_subtree(v) if self.is_leaf(u)]

    def all_leaves_at_height(self, h: int | None = None) -> bool:
        """True iff every leaf sits at height ``h`` (default: tree height).

        The paper assumes uniform leaf depth; builders in
        :mod:`repro.tree.builder` produce such trees, and the WORMS model
        checks this property (it generalizes so long as the *average*
        target height is ``Omega(h)``, see footnote 4).
        """
        if h is None:
            h = self._tree_height
        return all(int(self._height[leaf]) == h for leaf in self._leaves)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TreeTopology(n_nodes={self.n_nodes}, height={self.height}, "
            f"n_leaves={len(self._leaves)})"
        )


class TreeTables:
    """Per-node facts of one tree as plain lists, for the planning kernel.

    The kernel (packed sets, reduction, online scheduler) reads these by
    list index instead of calling :class:`TreeTopology` methods per
    message.  ``path[v]`` is :meth:`TreeTopology.root_path`, so the child
    of an ancestor ``u`` towards ``t`` is ``path[t][depth[u] + 1]``.
    """

    __slots__ = ("root", "height", "depth", "is_leaf", "path")

    def __init__(self, topology: TreeTopology) -> None:
        self.root = topology.root
        self.height = topology.height
        self.depth: list[int] = topology.heights.tolist()
        n = topology.n_nodes
        self.is_leaf: list[bool] = [
            not topology.children_of(v) for v in range(n)
        ]
        self.path: list[tuple[int, ...]] = [
            topology.root_path(v) for v in range(n)
        ]
