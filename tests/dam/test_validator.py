"""Tests for raise-style validators and the DAM machine spec."""

from __future__ import annotations

import pytest

from repro.core.worms import WORMSInstance
from repro.dam import validate_overfilling, validate_valid
from repro.dam.schedule import Flush, FlushSchedule
from repro.tree import Message, path_tree
from repro.util.errors import InvalidScheduleError


def make_instance(n_msgs=4, B=3, P=1, height=2):
    topo = path_tree(height)
    msgs = [Message(i, topo.leaves[0]) for i in range(n_msgs)]
    return WORMSInstance(topo, msgs, P=P, B=B)


def good_schedule(inst):
    s = FlushSchedule()
    t = 0
    for start in range(0, inst.n_messages, inst.B):
        batch = tuple(range(start, min(start + inst.B, inst.n_messages)))
        for src, dest in inst.topology.edges_from_root(inst.topology.leaves[0]):
            t += 1
            s.add(t, Flush(src, dest, batch))
    return s


def test_validate_valid_accepts_good_schedule():
    inst = make_instance()
    res = validate_valid(inst, good_schedule(inst))
    assert res.is_valid


def test_validate_overfilling_rejects_incomplete():
    inst = make_instance()
    with pytest.raises(InvalidScheduleError, match="not overfilling"):
        validate_overfilling(inst, FlushSchedule())


def test_validate_valid_rejects_space_violation():
    inst = make_instance(n_msgs=4, B=3, P=2)
    s = FlushSchedule()
    s.add(1, Flush(0, 1, (0, 1, 2)))
    s.add(2, Flush(0, 1, (3,)))
    s.add(4, Flush(1, 2, (0, 1, 2)))
    s.add(5, Flush(1, 2, (3,)))
    validate_overfilling(inst, s)  # passes the weaker check
    with pytest.raises(InvalidScheduleError, match="space requirement"):
        validate_valid(inst, s)


def test_error_message_lists_violations():
    inst = make_instance()
    try:
        validate_overfilling(inst, FlushSchedule())
    except InvalidScheduleError as e:
        assert "unfinished" in str(e)
    else:  # pragma: no cover
        raise AssertionError("expected InvalidScheduleError")
