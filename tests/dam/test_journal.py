"""Tests for the crash-consistent execution journal + recovery manager.

The load-bearing property: truncate the journal at *every* byte offset
of a real run, or flip any one byte of it, and recovery either resumes
to completion times identical to the uninterrupted run, or raises a
typed :class:`JournalCorruptionError` — it never returns a wrong answer.
Tier-1 checks every offset: one recovery per record boundary covers
every byte inside the next record (``tests/journal_sweep.py``).
"""

from __future__ import annotations

import json
import random
import struct
import zlib
from bisect import bisect_right
from collections import Counter

import pytest

from repro.dam import RecoveryManager, scan_journal
from repro.dam.schedule import FlushLog, FlushSchedule, log_digest
from repro.dam.journal import (
    JournalWriter,
    MAGIC,
    REC_CHECKPOINT,
    REC_END,
    REC_META,
    _HEADER,
    _scan_segment,
    encode_record,
)
from repro.faults import flip_byte, truncate_at
from repro.policies import GatedExecutor, WormsPolicy
from repro.tree import balanced_tree
from repro.util.errors import JournalCorruptionError
from tests.conftest import make_uniform
from tests.journal_sweep import batch_outcome, batch_sweep, fold_outcomes


def ordered_flushes(schedule):
    return [f for _t, f in schedule.iter_timed()]


@pytest.fixture(scope="module")
def journaled_run(tmp_path_factory):
    """One journaled run: (instance, reference schedule, journal path)."""
    inst = make_uniform(balanced_tree(3, 3), n_messages=120, P=2, B=12,
                        seed=3)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    path = tmp_path_factory.mktemp("journal") / "run.journal"
    sched = GatedExecutor(inst, journal=path, checkpoint_every=4).run(
        list(ordered)
    )
    return inst, sched, path


# ----------------------------------------------------------------------
# File format and scan.
# ----------------------------------------------------------------------
def test_journal_round_trip(journaled_run):
    _inst, sched, path = journaled_run
    scan = scan_journal(path)
    assert scan.torn_bytes == 0 and scan.torn_reason == ""
    types = [r["type"] for r in scan.records]
    assert types[0] == REC_META
    assert types[-1] == REC_END
    assert set(types[1:-1]) == {REC_CHECKPOINT}
    # Each checkpoint digests the realized schedule through its step.
    log = FlushLog()
    for t, f in sched.iter_timed():
        log.append(t, f.src, f.dest, f.messages)
    for r in scan.records[1:-1]:
        n, digest = log_digest(log, r["t"])
        assert (r["flushes"], r["digests"]) == ([n], [digest.hex()])
    assert scan.records[-2]["flushes"] == [sched.n_flushes]


def test_checkpoint_cadence(journaled_run):
    _inst, sched, path = journaled_run
    cps = [r["t"] for r in scan_journal(path).records
           if r["type"] == REC_CHECKPOINT]
    assert cps[0] == 0  # initial state
    assert cps[-1] == sched.n_steps  # final state
    assert any(t % 4 == 0 and 0 < t < sched.n_steps for t in cps)


def test_scan_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.journal"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(JournalCorruptionError) as exc:
        scan_journal(path)
    assert exc.value.reason == "bad-magic"


def test_scan_tolerates_torn_tail(tmp_path):
    path = tmp_path / "torn.journal"
    with JournalWriter(path, meta={"n_messages": 1}) as w:
        w.append({"type": REC_END, "t": 1})
    whole = scan_journal(path)
    assert len(whole.records) == 2
    torn = truncate_at(path, path.stat().st_size - 3,
                       out=tmp_path / "t.journal")
    scan = scan_journal(torn)
    assert len(scan.records) == 1  # the end record was torn away
    assert scan.torn_bytes > 0 and scan.torn_reason


def test_scan_raises_on_midfile_corruption(tmp_path):
    path = tmp_path / "corrupt.journal"
    with JournalWriter(path, meta={"n_messages": 1}) as w:
        w.append({"type": REC_END, "t": 1})
    # Flip a payload byte of the *first* record: data follows it, so this
    # must be corruption, not a tear.
    flip_byte(path, len(MAGIC) + 4 + struct.calcsize("<II") + 2,
              in_place=True)
    with pytest.raises(JournalCorruptionError) as exc:
        scan_journal(path)
    assert exc.value.reason in ("bad-crc", "bad-payload")
    assert exc.value.offset > 0


def test_crc_actually_guards_payload():
    rec = encode_record({"type": "end", "t": 3})
    length, crc = struct.unpack_from("<II", rec)
    payload = rec[8:]
    assert len(payload) == length
    assert zlib.crc32(payload) == crc
    assert json.loads(payload)["t"] == 3


# ----------------------------------------------------------------------
# Recovery manager.
# ----------------------------------------------------------------------
def test_recover_completed_run(journaled_run):
    inst, sched, path = journaled_run
    report = RecoveryManager(path).recover(inst, sched)
    assert report.run_completed
    assert report.torn_bytes == 0
    assert report.replayed_flushes == sched.n_flushes
    assert report.resumed_from_step == sched.n_steps


def test_recover_truncated_run_matches_uninterrupted(journaled_run, tmp_path):
    inst, sched, path = journaled_run
    reference = RecoveryManager(path).recover(inst, sched).result
    killed = truncate_at(path, path.stat().st_size // 2,
                         out=tmp_path / "killed.journal")
    report = RecoveryManager(killed).recover(inst, sched)
    assert not report.run_completed
    assert report.resumed_from_step < sched.n_steps
    assert (
        report.result.completion_times.tolist()
        == reference.completion_times.tolist()
    )


def test_repair_truncates_torn_tail_in_place(journaled_run, tmp_path):
    _inst, _sched, path = journaled_run
    killed = truncate_at(path, path.stat().st_size - 5,
                         out=tmp_path / "torn.journal")
    manager = RecoveryManager(killed)
    cut = manager.repair()
    assert cut > 0
    rescan = scan_journal(killed)
    assert rescan.torn_bytes == 0
    assert killed.stat().st_size == rescan.valid_bytes


def test_recover_rejects_wrong_instance(journaled_run):
    inst, sched, path = journaled_run
    other = make_uniform(balanced_tree(3, 3), n_messages=60, P=2, B=12,
                         seed=3)
    with pytest.raises(JournalCorruptionError) as exc:
        RecoveryManager(path).recover(other, sched)
    assert exc.value.reason == "instance-mismatch"


def test_recover_rejects_wrong_schedule(journaled_run):
    inst, _sched, path = journaled_run
    other_order = ordered_flushes(WormsPolicy().schedule(
        make_uniform(balanced_tree(3, 3), n_messages=120, P=2, B=12,
                     seed=99)
    ))
    other_sched = GatedExecutor(
        make_uniform(balanced_tree(3, 3), n_messages=120, P=2, B=12,
                     seed=99)
    ).run(list(other_order))
    with pytest.raises(JournalCorruptionError) as exc:
        RecoveryManager(path).recover(inst, other_sched)
    assert exc.value.reason == "schedule-mismatch"


def test_a_reference_flush_moved_by_one_step_fails_typed(journaled_run,
                                                         tmp_path):
    """The reference schedule differs from the journaled run by a single
    flush, one step late, before a cut's newest checkpoint: recovery
    fails typed instead of resuming a different run."""
    inst, sched, path = journaled_run
    killed = truncate_at(path, path.stat().st_size // 2,
                         out=tmp_path / "killed.journal")
    fold = RecoveryManager(killed).fold()
    t = fold.last_durable_step() - 1
    assert t >= 1 and sched.flushes_at(t)
    late = FlushSchedule([list(step) for step in sched.steps])
    late.steps[t].append(late.steps[t - 1].pop())
    assert RecoveryManager(killed).recover(inst, sched).resumed_from_step \
        == t + 1
    with pytest.raises(JournalCorruptionError) as exc:
        RecoveryManager(killed).recover(inst, late)
    assert exc.value.reason == "schedule-mismatch"


# ----------------------------------------------------------------------
# Zero-overhead contract: journal off = nothing changes, journal on =
# identical realized schedule.
# ----------------------------------------------------------------------
@pytest.fixture
def seed8_run(tmp_path):
    """A second journaled run, on another instance."""
    inst = make_uniform(balanced_tree(3, 3), n_messages=100, P=2, B=12,
                        seed=8)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    path = tmp_path / "r.journal"
    sched = GatedExecutor(inst, journal=path, checkpoint_every=4).run(
        list(ordered)
    )
    return inst, sched, path


@pytest.mark.parametrize("run", ["journaled_run", "seed8_run"])
def test_journal_does_not_change_schedule(run, request):
    inst, sched, _path = request.getfixturevalue(run)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    bare = GatedExecutor(inst).run(list(ordered))
    assert bare.steps == sched.steps


def test_checkpoint_every_validation():
    inst = make_uniform(balanced_tree(2, 2), n_messages=10, P=2, B=8)
    from repro.util.errors import InvalidInstanceError

    with pytest.raises(InvalidInstanceError):
        GatedExecutor(inst, journal="x.journal", checkpoint_every=0)


# ----------------------------------------------------------------------
# The kill-at-any-offset property.
# ----------------------------------------------------------------------
def test_kill_at_every_offset(journaled_run, tmp_path):
    """Truncate at every byte: exact recovery or typed error, never wrong.

    Two journals: the fault-free run, and a faulty one whose realized
    schedule holds retries and partial deliveries.
    """
    inst, sched, path = journaled_run
    counts = batch_sweep(inst, sched, path, tmp_path / "cut")
    assert counts["offsets"] == path.stat().st_size + 1
    # Most offsets land after the meta record and recover exactly.
    assert counts["exact"] > counts["typed"]

    from repro.faults import FaultInjector, FaultPlan

    inst = make_uniform(balanced_tree(3, 3), n_messages=250, P=3, B=16,
                        seed=13)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    path = tmp_path / "run.journal"
    injector = FaultInjector(FaultPlan.uniform(0.05), seed=5)
    sched = GatedExecutor(
        inst, injector, journal=path, checkpoint_every=8
    ).run(list(ordered))
    assert any(e.kind == "partial_flush" for e in injector.events)
    counts = batch_sweep(inst, sched, path, tmp_path / "cut", seed=1)
    assert counts["offsets"] == path.stat().st_size + 1
    assert counts["exact"] > counts["typed"]


def test_flip_every_byte(journaled_run, tmp_path):
    """Flip each byte: exact recovery or typed error, never wrong.

    A flip inside record ``k`` leaves the records before it intact, and
    CRC-32 catches any one-byte change to a record, so the scan of the
    damaged journal is decided at record ``k``: it raises (data follows
    the damage, so corruption), or it discards the tail from record
    ``k`` on (a flipped length prefix can run the record past the end of
    the file: a torn tail) and recovery is the fold's at boundary ``k``.
    One flip therefore costs a scan of one record; from-scratch recovery
    of real flipped files cross-checks the first and last records and
    seeded random offsets.
    """
    inst, sched, path = journaled_run
    data = path.read_bytes()
    scan = scan_journal(path)
    records, ends = scan.records, scan.ends
    reference = tuple(
        RecoveryManager(path).recover(inst, sched)
        .result.completion_times.tolist()
    )

    def at_boundary(_k, fold):
        outcome = batch_outcome(lambda: fold.recover(inst, sched))
        assert outcome[0] == "typed" or outcome[1] == reference
        return outcome

    outcomes = fold_outcomes(records, at_boundary, 0, len(records))

    def flipped(offset):
        damaged = bytearray(data)
        damaged[offset] ^= 0xFF
        return damaged

    def flip_outcome(offset):
        if offset < len(_HEADER):
            return ("typed", "bad-magic")
        k = bisect_right(ends, offset)
        start = ends[k - 1] if k else len(_HEADER)
        rest = []
        try:
            _scan_segment(path, _HEADER + flipped(offset)[start:],
                          rest.append)
        except JournalCorruptionError as exc:
            return ("typed", exc.reason)
        assert rest == [], "CRC-32 catches every one-byte change"
        return outcomes[k]

    kinds = Counter(flip_outcome(o)[0] for o in range(len(data)))
    assert kinds["exact"] + kinds["typed"] == len(data)
    assert kinds["exact"] > 0
    sample = set(range(ends[0])) | set(range(ends[-2], ends[-1]))
    sample |= set(random.Random(0).sample(range(len(data)), 64))
    damaged = tmp_path / "flipped.journal"
    for offset in sorted(sample):
        flip_byte(path, offset, out=damaged)
        assert batch_outcome(
            lambda: RecoveryManager(damaged).recover(inst, sched)
        ) == flip_outcome(offset), offset
