"""A mergeable max pairing heap.

Computing Horn task densities bottom-up requires melding, for each tree
node, the heaps of *pending subtrees* of all its children, then repeatedly
popping the densest pending subtree (see :mod:`repro.scheduling.horn`).
Pairing heaps give amortized ``O(1)`` meld/push and ``O(log n)`` pop, which
keeps the whole density computation ``O(n log n)``.

Keys must be totally ordered (``>`` / ``>=``).  The Horn computation
uses plain ints: an exact integer density key with an insertion-sequence
tie-break folded in, so comparisons are exact and never subject to float
rounding (nor pay for ``fractions.Fraction`` arithmetic).
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class _Node(Generic[K, V]):
    __slots__ = ("key", "value", "child", "sibling")

    def __init__(self, key: K, value: V) -> None:
        self.key = key
        self.value = value
        self.child: _Node[K, V] | None = None
        self.sibling: _Node[K, V] | None = None


def _link(a: "_Node | None", b: "_Node | None") -> "_Node | None":
    """Make the smaller-rooted heap the first child of the larger-rooted one."""
    if a is None:
        return b
    if b is None:
        return a
    if b.key > a.key:
        a, b = b, a
    b.sibling = a.child
    a.child = b
    return a


class PairingHeap(Generic[K, V]):
    """Max pairing heap with ``push``, ``pop``, ``peek``, and ``meld``."""

    __slots__ = ("_root", "_size")

    def __init__(self) -> None:
        self._root: _Node[K, V] | None = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._root is not None

    def push(self, key: K, value: V) -> None:
        """Insert ``value`` with priority ``key``."""
        self._root = _link(self._root, _Node(key, value))
        self._size += 1

    def peek(self) -> tuple[K, V]:
        """Return the max ``(key, value)`` without removing it."""
        if self._root is None:
            raise IndexError("peek at empty PairingHeap")
        return self._root.key, self._root.value

    def pop(self) -> tuple[K, V]:
        """Remove and return the max ``(key, value)``.

        Children are recombined with the standard two-pass pairing, done
        iteratively so deep heaps cannot overflow the Python stack.
        """
        root = self._root
        if root is None:
            raise IndexError("pop from empty PairingHeap")
        # First pass: link children pairwise left to right.
        pairs: list[_Node[K, V]] = []
        node = root.child
        while node is not None:
            nxt = node.sibling
            node.sibling = None
            if nxt is not None:
                nxt2 = nxt.sibling
                nxt.sibling = None
                linked = _link(node, nxt)
                assert linked is not None
                pairs.append(linked)
                node = nxt2
            else:
                pairs.append(node)
                node = None
        # Second pass: fold right to left.
        new_root: _Node[K, V] | None = None
        for heap in reversed(pairs):
            new_root = _link(heap, new_root)
        self._root = new_root
        self._size -= 1
        return root.key, root.value

    def meld(self, other: "PairingHeap[K, V]") -> None:
        """Absorb ``other`` into this heap; ``other`` becomes empty."""
        if other is self:
            raise ValueError("cannot meld a heap with itself")
        self._root = _link(self._root, other._root)
        self._size += other._size
        other._root = None
        other._size = 0

    def items(self) -> Iterator[tuple[K, V]]:
        """Yield all (key, value) pairs in arbitrary order (for testing)."""
        stack: list[Any] = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            yield node.key, node.value
            if node.sibling is not None:
                stack.append(node.sibling)
            if node.child is not None:
                stack.append(node.child)
