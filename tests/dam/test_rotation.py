"""Journal segment rotation: chain writing, scanning, and repair.

The load-bearing property carries over from the single-file journal:
kill the writer at *any* byte of *any* segment and recovery either
resumes to identical completion times or raises a typed error.  New
failure surface unique to chains: a crash *during rotation* (half-written
successor header) must read as a torn tail, while damage to a sealed
mid-chain segment must read as corruption.
"""

from __future__ import annotations

import pytest

from repro.dam import RecoveryManager, scan_journal
from repro.dam.journal import (
    JournalWriter,
    MIN_SEGMENT_BYTES,
    REC_FLUSH,
    REC_META,
    _HEADER,
    journal_segments,
    segment_path,
)
from repro.faults import flip_byte, truncate_at
from repro.policies import GatedExecutor, WormsPolicy
from repro.tree import balanced_tree
from repro.util.errors import InvalidInstanceError, JournalCorruptionError
from tests.conftest import make_uniform
from tests.journal_sweep import batch_sweep


def write_chain(path, n_records=40, max_segment_bytes=256):
    """A small hand-rolled chain; returns the records written."""
    records = [
        {"type": REC_FLUSH, "t": i + 1, "src": 0, "dest": 1, "msgs": [i]}
        for i in range(n_records)
    ]
    with JournalWriter(path, meta={"n_messages": n_records},
                       max_segment_bytes=max_segment_bytes) as w:
        for rec in records:
            w.append(rec)
        w.append({"type": "end", "t": n_records})
    return records


def test_writer_rotates_at_record_boundaries(tmp_path):
    path = tmp_path / "rot.journal"
    write_chain(path)
    segments = journal_segments(path)
    assert len(segments) > 1
    assert segments[0] == path
    assert segments[1] == segment_path(path, 1)
    for seg in segments:
        # Every segment is individually well-formed (own header, whole
        # records): scanning it alone must not raise.
        assert seg.read_bytes()[:len(_HEADER)] == _HEADER
    sizes = [seg.stat().st_size for seg in segments]
    assert all(s <= 256 for s in sizes[:-1])


def test_chain_scan_reassembles_all_records(tmp_path):
    path = tmp_path / "rot.journal"
    records = write_chain(path)
    scan = scan_journal(path)
    assert scan.n_segments == len(journal_segments(path))
    assert scan.torn_bytes == 0
    flushes = [r for r in scan.records if r["type"] == REC_FLUSH]
    assert [r["t"] for r in flushes] == [r["t"] for r in records]


def test_single_record_larger_than_limit_still_written(tmp_path):
    path = tmp_path / "big.journal"
    big = {"type": REC_FLUSH, "t": 1, "src": 0, "dest": 1,
           "msgs": list(range(200))}
    with JournalWriter(path, max_segment_bytes=MIN_SEGMENT_BYTES) as w:
        w.append(big)
    scan = scan_journal(path)
    assert any(r["type"] == REC_FLUSH and len(r["msgs"]) == 200
               for r in scan.records)


def test_min_segment_bytes_validated(tmp_path):
    with pytest.raises(InvalidInstanceError):
        JournalWriter(tmp_path / "x.journal",
                      max_segment_bytes=MIN_SEGMENT_BYTES - 1)


def test_torn_tail_in_last_segment_is_absorbed(tmp_path):
    path = tmp_path / "rot.journal"
    write_chain(path)
    segments = journal_segments(path)
    tail = segments[-1]
    clean = len(scan_journal(path).records)
    truncate_at(tail, tail.stat().st_size - 3, in_place=True)
    scan = scan_journal(path)
    assert scan.torn_bytes > 0
    assert len(scan.records) == clean - 1


def test_mid_chain_damage_is_corruption(tmp_path):
    path = tmp_path / "rot.journal"
    write_chain(path)
    segments = journal_segments(path)
    assert len(segments) >= 3
    # Tear the *middle* segment's tail: a later segment exists, so this
    # cannot be a crash artifact.
    mid = segments[len(segments) // 2]
    truncate_at(mid, mid.stat().st_size - 3, in_place=True)
    with pytest.raises(JournalCorruptionError) as exc:
        scan_journal(path)
    assert exc.value.reason == "mid-chain-tear"


def test_mid_segment_byte_flip_is_corruption(tmp_path):
    path = tmp_path / "rot.journal"
    write_chain(path)
    first = journal_segments(path)[0]
    flip_byte(first, len(_HEADER) + 12, in_place=True)
    with pytest.raises(JournalCorruptionError):
        scan_journal(path)


def test_crash_during_rotation_reads_as_torn_tail(tmp_path):
    path = tmp_path / "rot.journal"
    write_chain(path)
    segments = journal_segments(path)
    # Simulate dying mid-header-write of a fresh successor segment.
    nxt = segment_path(path, len(segments))
    nxt.write_bytes(_HEADER[:3])
    scan = scan_journal(path)
    assert scan.torn_reason == "truncated header"
    assert scan.torn_bytes == 3


def test_repair_deletes_recordless_tail_segment(tmp_path):
    path = tmp_path / "rot.journal"
    write_chain(path)
    n_before = len(journal_segments(path))
    nxt = segment_path(path, n_before)
    nxt.write_bytes(_HEADER[:5])
    manager = RecoveryManager(path)
    assert manager.repair() == 5
    assert not nxt.exists()
    assert len(journal_segments(path)) == n_before
    assert scan_journal(path).torn_bytes == 0


def test_repair_truncates_tail_segment_with_records(tmp_path):
    path = tmp_path / "rot.journal"
    write_chain(path)
    tail = journal_segments(path)[-1]
    tail_records = len(
        [r for r in scan_journal(path).records]
    )
    # Append garbage to the tail segment: torn, but records survive.
    tail.write_bytes(tail.read_bytes() + b"\x07\x07\x07")
    cut = RecoveryManager(path).repair()
    assert cut == 3
    assert tail.exists()
    scan = scan_journal(path)
    assert scan.torn_bytes == 0
    assert len(scan.records) == tail_records


def test_orphan_segment_beyond_gap_is_ignored(tmp_path):
    path = tmp_path / "rot.journal"
    write_chain(path)
    n = len(journal_segments(path))
    orphan = segment_path(path, n + 3)  # gap at n .. n+2
    orphan.write_bytes(b"garbage that is not a journal")
    scan = scan_journal(path)  # must not raise, must not include orphan
    assert scan.n_segments == n


def test_rotated_batch_run_recovers_identically(tmp_path):
    """End to end: a real executor run journaled across many segments."""
    inst = make_uniform(balanced_tree(3, 3), n_messages=120, P=2, B=12,
                        seed=3)
    ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
    plain = tmp_path / "plain.journal"
    rotated = tmp_path / "rot.journal"
    sched_plain = GatedExecutor(inst, journal=plain,
                                checkpoint_every=4).run(list(ordered))
    writer = JournalWriter(rotated, meta={"n_messages": 120},
                           max_segment_bytes=1024)
    sched_rot = GatedExecutor(inst, journal=writer,
                              checkpoint_every=4).run(list(ordered))
    writer.close()
    assert sched_rot.n_steps == sched_plain.n_steps
    assert len(journal_segments(rotated)) > 1
    # Same records in the same order, despite the segmentation.  (The
    # meta records differ: the plain run's was written by the executor,
    # the rotated run's by our own JournalWriter constructor.)
    def body(p):
        return [r for r in scan_journal(p).records if r["type"] != REC_META]

    assert body(rotated) == body(plain)
    report = RecoveryManager(rotated).recover(inst, sched_rot)
    assert report.run_completed
    assert report.replayed_flushes == sched_rot.n_flushes


def test_kill_at_every_offset_across_rotation_boundary(tmp_path):
    """Every-offset truncation of the last two segments of a real chain."""
    inst = make_uniform(balanced_tree(3, 2), n_messages=60, P=2, B=12,
                        seed=5)
    ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
    path = tmp_path / "rot.journal"
    writer = JournalWriter(path, meta={"n_messages": 60},
                           max_segment_bytes=512)
    sched = GatedExecutor(inst, journal=writer,
                          checkpoint_every=2).run(list(ordered))
    writer.close()
    segments = journal_segments(path)
    assert len(segments) >= 2
    # Sweep the boundary: all offsets of the last two segments.
    last_two = [len(segments) - 2, len(segments) - 1]
    counts = batch_sweep(inst, sched, path, tmp_path / "work",
                         segments=last_two)
    assert counts["offsets"] == sum(
        segments[i].stat().st_size + 1 for i in last_two
    )


def test_enospc_during_rotation_loses_no_acked_records(tmp_path):
    """The disk fills exactly when rotation opens its successor segment:
    the append raises a real ``ENOSPC``, the sealed chain stays intact,
    and recovery yields exactly the records acknowledged before it."""
    import errno

    from repro.faults.iofaults import FaultFS

    path = tmp_path / "rot.journal"
    # Journal opens are index 0 (the writer itself); the rotation's
    # successor-segment open is index 1.
    fs = FaultFS("open:journal:enospc@1x1")
    writer = JournalWriter(path, meta={"n_messages": 40},
                           max_segment_bytes=256, fs=fs)
    written = 0
    with pytest.raises(OSError) as ei:
        for i in range(40):
            writer.append({"type": REC_FLUSH, "t": i + 1, "src": 0,
                           "dest": 1, "msgs": [i]})
            written += 1
            writer.flush()
    assert ei.value.errno == errno.ENOSPC
    writer.abort()  # fail-stop: never re-flush a poisoned tail
    # The sealed prefix reads back exactly: every record flushed before
    # the failed rotation, none after, no torn bytes, typed scan.
    scan = scan_journal(path)
    flushes = [r for r in scan.records if r["type"] == REC_FLUSH]
    assert [r["t"] for r in flushes] == list(range(1, written + 1))
    assert scan.torn_bytes == 0
    # Space returns: a fresh writer appended to a new journal continues
    # the stream (rotation is per-writer state, nothing leaked on disk).
    assert len(journal_segments(path)) == 1
