"""De-amortization helpers: split, interleave, and the paced transform.

Pure-function contracts a paced
:class:`~repro.policies.engine.ShardEngine` builds on: chunks cover exactly the original messages in order, the
round-robin merge spreads budget across obligations instead of
head-of-line, and the transform is the *identity* (same objects) when
no obligation exceeds the budget — that last property is what makes
the controller-off path byte-identical to an unpaced run.
"""

from __future__ import annotations

import pytest

from repro.dam.schedule import Flush
from repro.scheduling.deamortize import (
    interleave_round_robin,
    pace_flush_list,
    split_flush,
)
from repro.util.errors import InvalidInstanceError


def test_split_covers_messages_in_order_with_bounded_chunks():
    f = Flush(0, 1, tuple(range(10)))
    chunks = split_flush(f, 4)
    assert [c.messages for c in chunks] == [
        (0, 1, 2, 3), (4, 5, 6, 7), (8, 9),
    ]
    assert all(c.src == 0 and c.dest == 1 for c in chunks)
    assert all(c.size <= 4 for c in chunks)


def test_split_within_budget_is_identity_object():
    f = Flush(2, 5, (1, 2, 3))
    assert split_flush(f, 3) == [f]
    assert split_flush(f, 3)[0] is f


def test_split_validation():
    with pytest.raises(InvalidInstanceError):
        split_flush(Flush(0, 1, (1,)), 0)


def test_interleave_alternates_obligations_round_robin():
    a = [Flush(0, 1, (1,)), Flush(0, 1, (2,)), Flush(0, 1, (3,))]
    b = [Flush(0, 2, (4,)), Flush(0, 2, (5,))]
    merged = interleave_round_robin([a, b])
    # round 0: a0, b0; round 1: a1, b1; round 2: a2.
    assert merged == [a[0], b[0], a[1], b[1], a[2]]


def test_interleave_preserves_within_obligation_order():
    chunks = [split_flush(Flush(0, d, tuple(range(d * 10, d * 10 + 6))), 2)
              for d in (1, 2)]
    merged = interleave_round_robin(chunks)
    for d in (1, 2):
        own = [f.messages for f in merged if f.dest == d]
        assert own == sorted(own)


def test_pace_is_identity_when_nothing_oversized():
    flushes = [Flush(0, 1, (1, 2)), Flush(0, 2, (3,))]
    assert pace_flush_list(flushes, 2) is flushes


def test_pace_bounds_every_flush_and_conserves_messages():
    flushes = [Flush(0, 1, tuple(range(9))),
               Flush(0, 2, tuple(range(9, 12))),
               Flush(1, 3, tuple(range(12, 19)))]
    paced = pace_flush_list(flushes, 3)
    assert all(f.size <= 3 for f in paced)
    before = sorted(m for f in flushes for m in f.messages)
    after = sorted(m for f in paced for m in f.messages)
    assert before == after
    # the head of the paced list visits each oversized obligation once
    # before revisiting any (breadth-first budget spend).
    assert [f.src for f in paced[:3]] == [0, 0, 1]


def test_pace_validation():
    with pytest.raises(InvalidInstanceError):
        pace_flush_list([], 0)
