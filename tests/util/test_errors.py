"""Tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro.util.errors import (
    InvalidInstanceError,
    InvalidScheduleError,
    ReproError,
)


def test_hierarchy():
    assert issubclass(InvalidInstanceError, ReproError)
    assert issubclass(InvalidScheduleError, ReproError)


def test_catchable_as_base():
    with pytest.raises(ReproError):
        raise InvalidScheduleError("bad schedule")


def test_package_apis_raise_package_errors():
    """A few representative entry points raise within the hierarchy."""
    from repro.core.worms import WORMSInstance
    from repro.tree import Message, path_tree

    with pytest.raises(ReproError):
        WORMSInstance(path_tree(1), [Message(0, 1)], P=0, B=4)
    from repro.scheduling.instance import SchedulingInstance

    with pytest.raises(ReproError):
        SchedulingInstance([0], [1], P=1)


def test_execution_stalled_in_hierarchy():
    from repro.util.errors import ExecutionStalledError

    assert issubclass(ExecutionStalledError, InvalidScheduleError)
    err = ExecutionStalledError(
        "stalled", step=4, parked_messages=((3, 1), (5, 2)),
        blocking_flush="f", pending_flushes=("f", "g"),
    )
    assert err.step == 4
    assert err.parked_messages == ((3, 1), (5, 2))
    assert err.blocking_flush == "f"
    assert err.pending_flushes == ("f", "g")
    # Defaults: diagnosable even when raised with no state.
    bare = ExecutionStalledError("stalled")
    assert bare.step == -1 and bare.parked_messages == ()
    assert bare.blocking_flush is None


# ----------------------------------------------------------------------
# Pickle round-trips: typed errors cross process boundaries intact
# ----------------------------------------------------------------------
def _roundtrip(err):
    import pickle

    return pickle.loads(pickle.dumps(err))


def _error_cases():
    from repro.util.errors import (
        ExecutionStalledError,
        JournalCorruptionError,
        JournalError,
        StorageCorruptionError,
        StorageError,
        StorageIOError,
        StoreDegradedError,
    )

    return [
        ReproError("base"),
        InvalidInstanceError("bad instance"),
        InvalidScheduleError("bad schedule"),
        ExecutionStalledError(
            "stalled", step=7, parked_messages=((3, 1),),
            blocking_flush="f", pending_flushes=("f", "g"),
            shard_id=2, epoch=4, last_durable_step=6,
        ),
        JournalError("journal broke"),
        JournalCorruptionError("torn", offset=123, reason="bad-crc"),
        StorageError("store broke"),
        StorageCorruptionError(
            "bad block", path="sst-000001.sst", offset=42,
            reason="bad-block",
        ),
        StorageIOError(
            "read failed", op="read", path="sst-000001.sst",
            errno=5, attempts=3,
        ),
        StoreDegradedError(
            "read-only", reason="enospc", path="data", rejections=7,
        ),
    ]


@pytest.mark.parametrize(
    "err", _error_cases(), ids=lambda e: type(e).__name__
)
def test_every_typed_error_pickles_round_trip(err):
    """The process driver ships raised errors over a pipe: every typed
    error must survive pickling with type, args, and every keyword-only
    diagnostic attribute intact."""
    back = _roundtrip(err)
    assert type(back) is type(err)
    assert back.args == err.args
    assert str(back) == str(err)
    assert back.__dict__ == err.__dict__


def test_error_cases_cover_the_whole_hierarchy():
    """If a new typed error appears, it must join the round-trip list."""
    import repro.util.errors as mod

    public = {
        obj for name in dir(mod)
        if isinstance(obj := getattr(mod, name), type)
        and issubclass(obj, Exception)
        and obj.__module__ == "repro.util.errors"
    }
    covered = {type(e) for e in _error_cases()}
    assert public == covered, public.symmetric_difference(covered)


def test_pickled_stall_keeps_supervision_diagnostics():
    from repro.util.errors import ExecutionStalledError

    err = _roundtrip(
        ExecutionStalledError("x", shard_id=1, epoch=3,
                              last_durable_step=12)
    )
    assert err.shard_id == 1
    assert err.epoch == 3
    assert err.last_durable_step == 12
