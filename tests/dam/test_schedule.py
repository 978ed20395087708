"""Tests for Flush / FlushSchedule containers."""

from __future__ import annotations

import pytest

from repro.dam.schedule import (
    Flush,
    FlushLog,
    FlushSchedule,
    LogDigest,
    log_digest,
)


def test_flush_normalizes_message_order():
    f = Flush(src=0, dest=1, messages=(3, 1, 2))
    assert f.messages == (1, 2, 3)
    assert f.size == 3


def test_flush_is_hashable_and_comparable():
    a = Flush(0, 1, (2, 1))
    b = Flush(0, 1, (1, 2))
    assert a == b
    assert hash(a) == hash(b)


def test_add_grows_steps():
    s = FlushSchedule()
    s.add(3, Flush(0, 1, (0,)))
    assert s.n_steps == 3
    assert s.flushes_at(1) == []
    assert s.flushes_at(3) == [Flush(0, 1, (0,))]
    assert s.flushes_at(99) == []


def test_add_rejects_zero_step():
    s = FlushSchedule()
    with pytest.raises(ValueError):
        s.add(0, Flush(0, 1, (0,)))


def test_counts():
    s = FlushSchedule()
    s.add(1, Flush(0, 1, (0, 1)))
    s.add(1, Flush(0, 2, (2,)))
    s.add(2, Flush(1, 3, (0,)))
    assert s.n_flushes == 3
    assert s.n_message_moves == 4
    assert s.max_parallelism() == 2


def test_iter_timed_order():
    s = FlushSchedule()
    s.add(2, Flush(0, 1, (1,)))
    s.add(1, Flush(0, 1, (0,)))
    assert [(t, f.messages) for t, f in s.iter_timed()] == [
        (1, (0,)),
        (2, (1,)),
    ]


def test_trim():
    s = FlushSchedule()
    s.add(5, Flush(0, 1, (0,)))
    s.steps.append([])
    s.steps.append([])
    assert s.trim().n_steps == 5


def test_from_timed_roundtrip():
    s = FlushSchedule()
    s.add(1, Flush(0, 1, (0,)))
    s.add(4, Flush(1, 2, (0,)))
    s2 = FlushSchedule.from_timed(s.iter_timed())
    assert s2.steps == s.steps


def test_flush_log_reads_back_as_its_schedule():
    log = FlushLog()
    log.append(1, 0, 1, (0, 2))
    log.append(1, 0, 2, [1])
    log.append(3, 1, 3, (0,))
    assert len(log) == 3
    assert list(log) == [(1, 0, 1, (0, 2)), (1, 0, 2, (1,)),
                         (3, 1, 3, (0,))]
    assert log.runs.tolist() == [1, 0, 1, 2, 0, 2, 1, 0, 2, 1, 1,
                                 3, 1, 3, 1, 0]
    sched = log.schedule()
    assert sched.steps == [
        [Flush(0, 1, (0, 2)), Flush(0, 2, (1,))], [], [Flush(1, 3, (0,))]
    ]
    assert FlushLog().schedule().n_steps == 0


def test_log_digest_covers_the_runs_through_a_step():
    log = FlushLog()
    log.append(2, 0, 1, (4, 5))
    log.append(2, 0, 2, (6,))
    log.append(4, 1, 3, (4,))
    running = LogDigest()
    assert running.advance(log, 1) == log_digest(FlushLog(), 9)[1]
    assert running.flushes == 0
    at2 = running.advance(log, 3)
    assert (running.flushes, at2) == log_digest(log, 2)
    assert len(at2) == 8
    # Only the runs appended since are hashed, and a later step is
    # digested through that step alone.
    log.append(5, 1, 4, (5,))
    log.append(7, 3, 9, (4,))
    assert running.advance(log, 5) == log_digest(log, 6)[1]
    assert running.flushes == 4
    assert log_digest(log, 99)[0] == 5
    # The digest is of the runs: moving one flush by one step changes it.
    moved = FlushLog()
    for t, src, dest, msgs in log:
        moved.append(t + (t == 4), src, dest, msgs)
    assert log_digest(moved, 99)[0] == 5
    assert log_digest(moved, 99)[1] != log_digest(log, 99)[1]
    assert log_digest(moved, 4)[0] == 2
