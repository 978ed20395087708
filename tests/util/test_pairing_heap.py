"""Unit and property tests for the mergeable max pairing heap."""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.scheduling.pairing_heap import PairingHeap


def test_empty_heap_pops_raise():
    heap = PairingHeap()
    assert len(heap) == 0
    assert not heap
    with pytest.raises(IndexError):
        heap.pop()
    with pytest.raises(IndexError):
        heap.peek()


def test_single_element():
    heap = PairingHeap()
    heap.push(5, "a")
    assert heap.peek() == (5, "a")
    assert heap.pop() == (5, "a")
    assert not heap


def test_max_order():
    heap = PairingHeap()
    for k in [3, 1, 4, 1, 5, 9, 2, 6]:
        heap.push(k, f"v{k}")
    keys = [heap.pop()[0] for _ in range(len(heap))]
    assert keys == sorted([3, 1, 4, 1, 5, 9, 2, 6], reverse=True)


def test_meld_combines_all_elements():
    a, b = PairingHeap(), PairingHeap()
    for k in range(5):
        a.push(k, k)
    for k in range(5, 10):
        b.push(k, k)
    a.meld(b)
    assert len(a) == 10
    assert len(b) == 0
    assert not b
    assert [a.pop()[0] for _ in range(10)] == list(range(9, -1, -1))


def test_meld_empty_heaps():
    a, b = PairingHeap(), PairingHeap()
    a.meld(b)
    assert len(a) == 0
    a.push(1, "x")
    c = PairingHeap()
    a.meld(c)
    assert a.pop() == (1, "x")


def test_meld_self_rejected():
    a = PairingHeap()
    a.push(1, 1)
    with pytest.raises(ValueError):
        a.meld(a)


def test_push_after_pop():
    heap = PairingHeap()
    heap.push(2, "b")
    heap.push(3, "c")
    assert heap.pop() == (3, "c")
    heap.push(10, "z")
    assert heap.pop() == (10, "z")
    assert heap.pop() == (2, "b")


def test_tuple_keys_compare_lexicographically():
    heap = PairingHeap()
    heap.push((1, 2), "low")
    heap.push((1, 5), "high")
    heap.push((0, 99), "lowest")
    assert heap.pop()[1] == "high"
    assert heap.pop()[1] == "low"
    assert heap.pop()[1] == "lowest"


def test_items_iterates_everything():
    heap = PairingHeap()
    for k in range(20):
        heap.push(k, k)
    assert sorted(v for _, v in heap.items()) == list(range(20))


def test_deep_heap_does_not_recurse():
    # Sorted pushes create a degenerate child chain; pop must be iterative.
    heap = PairingHeap()
    for k in range(50_000):
        heap.push(k, k)
    assert heap.pop() == (49_999, 49_999)
    assert heap.pop() == (49_998, 49_998)


@given(st.lists(st.integers(-1000, 1000), max_size=200))
def test_matches_heapq_reference(values):
    heap = PairingHeap()
    for v in values:
        heap.push(v, v)
    reference = sorted(values, reverse=True)
    out = [heap.pop()[0] for _ in range(len(values))]
    assert out == reference


@given(
    st.lists(st.integers(-50, 50), max_size=60),
    st.lists(st.integers(-50, 50), max_size=60),
)
def test_meld_matches_concatenation(xs, ys):
    a, b = PairingHeap(), PairingHeap()
    for v in xs:
        a.push(v, v)
    for v in ys:
        b.push(v, v)
    a.meld(b)
    out = [a.pop()[0] for _ in range(len(xs) + len(ys))]
    assert out == sorted(xs + ys, reverse=True)


@given(st.lists(st.tuples(st.booleans(), st.integers(-100, 100)), max_size=200))
def test_interleaved_ops_match_reference(ops):
    """Random push/pop interleavings agree with a heapq-based reference."""
    heap = PairingHeap()
    reference: list[int] = []  # min-heap of negated keys
    for is_pop, value in ops:
        if is_pop and reference:
            assert heap.pop()[0] == -heapq.heappop(reference)
        elif not is_pop:
            heap.push(value, value)
            heapq.heappush(reference, -value)
    assert len(heap) == len(reference)
