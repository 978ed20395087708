"""Serve-journal recovery: kill anywhere, recover exactly or fail typed."""

from __future__ import annotations

import pytest

from repro.dam.journal import (
    REC_CHECKPOINT,
    REC_END,
    REC_META,
    journal_segments,
    scan_journal,
)
from repro.faults import truncate_at
from repro.serve import ServeConfig, ServiceLoop, recover_serve
from repro.util.errors import JournalCorruptionError
from tests.journal_sweep import serve_sweep


@pytest.fixture(scope="module")
def served_journal(tmp_path_factory):
    """One journaled serving run: (config, report, path)."""
    cfg = ServeConfig(arrivals="poisson", rate=6.0, messages=150, shards=2,
                      seed=21, P=3, B=8, checkpoint_every=4)
    path = tmp_path_factory.mktemp("serve") / "serve.journal"
    report = ServiceLoop(cfg, journal=path).run()
    return cfg, report, path


def test_serve_journal_shape(served_journal):
    _cfg, report, path = served_journal
    scan = scan_journal(path)
    types = [r["type"] for r in scan.records]
    assert types[0] == REC_META
    assert types[-1] == REC_END
    # Meta, checkpoints and the end: no record per flush.
    assert set(types[1:-1]) == {REC_CHECKPOINT}
    checkpoints = [r for r in scan.records if r["type"] == REC_CHECKPOINT]
    assert all(len(r["flushes"]) == len(r["digests"]) == 2
               for r in checkpoints)
    assert checkpoints[-1]["t"] == report.n_steps
    assert checkpoints[-1]["flushes"] == \
        [s.n_flushes for s in report.shard_schedules]


def test_journal_does_not_change_the_run(served_journal):
    cfg, report, _path = served_journal
    bare = ServiceLoop(cfg).run()
    assert bare.completions == report.completions
    assert [s.n_steps for s in bare.shard_schedules] == \
        [s.n_steps for s in report.shard_schedules]


def test_recover_completed_run(served_journal):
    cfg, report, path = served_journal
    rec = recover_serve(path)
    assert rec.run_completed
    assert rec.torn_bytes == 0
    assert rec.report.completions == report.completions


def test_recover_truncated_run_matches_uninterrupted(served_journal,
                                                     tmp_path):
    _cfg, report, path = served_journal
    killed = truncate_at(path, path.stat().st_size // 2,
                         out=tmp_path / "killed.journal")
    rec = recover_serve(killed)
    assert not rec.run_completed
    assert rec.report.completions == report.completions
    assert rec.resumed_from_step <= report.n_steps


def test_kill_at_every_offset_serve(served_journal, tmp_path, monkeypatch):
    """Truncate serve journals at every byte: exact or typed error.

    Two journals: the fixture run, and a faulty run rotated across
    several segments (each segment cut at every byte, earlier segments
    whole, later ones never created).
    """
    _cfg, report, path = served_journal
    counts = serve_sweep(path, report, tmp_path / "cut", monkeypatch)
    assert counts["offsets"] == path.stat().st_size + 1
    assert counts["exact"] > counts["typed"]

    cfg = ServeConfig(arrivals="poisson", rate=8.0, messages=120, shards=2,
                      seed=4, fault_rate=0.05, fault_seed=2,
                      checkpoint_every=4)
    path = tmp_path / "serve.journal"
    report = ServiceLoop(cfg, journal=path, max_segment_bytes=256).run()
    segments = journal_segments(path)
    assert len(segments) > 1
    counts = serve_sweep(path, report, tmp_path / "cut", monkeypatch,
                         seed=1)
    assert counts["offsets"] == sum(s.stat().st_size + 1 for s in segments)
    assert counts["exact"] > counts["typed"]


def test_recover_rejects_batch_journal(tmp_path):
    from repro.dam.journal import JournalWriter

    path = tmp_path / "batch.journal"
    with JournalWriter(path, meta={"policy": "worms", "n_messages": 3}):
        pass
    with pytest.raises(JournalCorruptionError) as exc:
        recover_serve(path)
    assert exc.value.reason == "instance-mismatch"


def test_recover_rejects_foreign_flushes(served_journal, tmp_path):
    """A journal whose meta was swapped for another run's must be caught."""
    import json
    import struct
    import zlib

    from repro.dam.journal import _HEADER, encode_record

    _cfg, _report, path = served_journal
    data = path.read_bytes()
    # Parse the first record (meta) and rewrite it with a different seed.
    off = len(_HEADER)
    length, _crc = struct.unpack_from("<II", data, off)
    meta = json.loads(data[off + 8: off + 8 + length])
    meta["seed"] = meta["seed"] + 1
    forged = tmp_path / "forged.journal"
    forged.write_bytes(
        _HEADER + encode_record(meta) + data[off + 8 + length:]
    )
    with pytest.raises(JournalCorruptionError) as exc:
        recover_serve(forged)
    assert exc.value.reason == "schedule-mismatch"


def test_a_reference_flush_moved_by_one_step_fails_typed(served_journal,
                                                         monkeypatch):
    """The re-derived run differs from the journaled one by a single
    flush, one step late: the newest checkpoint's digest catches it."""
    from repro.dam.schedule import FlushLog
    from repro.serve import loop

    _cfg, _report, path = served_journal
    rederive = loop.rederive_serve

    def moved(meta, driver=None):
        report = rederive(meta, driver)
        log = report.shard_logs[0]
        late = FlushLog()
        for k, (t, src, dest, msgs) in enumerate(log):
            late.append(t + (k == 0), src, dest, msgs)
        report.shard_logs[0] = late
        return report

    assert recover_serve(path).run_completed
    monkeypatch.setattr(loop, "rederive_serve", moved)
    with pytest.raises(JournalCorruptionError) as exc:
        recover_serve(path)
    assert exc.value.reason == "schedule-mismatch"
    assert "shard 0" in str(exc.value)


def test_recover_journal_with_retired_retry_budget_key(tmp_path):
    """Serve journals written while ``ServeConfig`` still had a (never
    read) ``retry_budget`` field carry it in meta; recovery ignores the
    key and re-derives the run exactly."""
    from repro.dam.journal import JournalWriter

    cfg = ServeConfig(arrivals="poisson", rate=6.0, messages=150, shards=2,
                      seed=21, P=3, B=8, checkpoint_every=4,
                      fault_rate=0.1)
    fresh = tmp_path / "fresh.journal"
    report = ServiceLoop(cfg, journal=fresh).run()
    records = scan_journal(fresh).records
    assert records[0]["type"] == REC_META
    meta = {k: v for k, v in records[0].items() if k != "type"}
    assert "retry_budget" not in meta
    old = tmp_path / "old.journal"
    writer = JournalWriter(old, meta={**meta, "retry_budget": 6})
    for rec in records[1:]:
        writer.append(rec)
    writer.close()
    rec = recover_serve(old)
    assert rec.run_completed
    assert rec.report.completions == report.completions
    assert [list(s.iter_timed()) for s in rec.report.shard_schedules] == \
        [list(s.iter_timed()) for s in report.shard_schedules]
