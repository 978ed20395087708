"""Serve-journal recovery: kill anywhere, recover exactly or fail typed."""

from __future__ import annotations

import pytest

from repro.dam.journal import (
    REC_END,
    REC_FLUSH,
    REC_META,
    journal_segments,
    scan_journal,
)
from repro.faults import truncate_at
from repro.serve import ServeConfig, ServiceLoop, recover_serve
from repro.util.errors import JournalCorruptionError


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
    flushes = [r for r in scan.records if r["type"] == REC_FLUSH]
    assert all("shard" in r for r in flushes)
    assert len(flushes) == sum(s.n_flushes for s in report.shard_schedules)


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


def test_kill_at_every_offset_serve(served_journal, tmp_path):
    """Truncate the serve journal at every byte: exact or typed error."""
    _cfg, report, path = served_journal
    size = path.stat().st_size
    damaged = tmp_path / "killed.journal"
    outcomes = {"exact": 0, "typed": 0}
    # Every 7th offset keeps the quick suite fast; the CI fuzz job and
    # the rotation test below cover denser sweeps.
    for offset in range(0, size + 1, 7):
        truncate_at(path, offset, out=damaged)
        try:
            rec = recover_serve(damaged)
        except JournalCorruptionError:
            outcomes["typed"] += 1
            continue
        assert rec.report.completions == report.completions
        outcomes["exact"] += 1
    assert outcomes["exact"] > outcomes["typed"]


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


@pytest.mark.fuzz
def test_fuzz_kill_at_every_offset_serve_dense(tmp_path):
    """Dense every-offset sweep over a faulty, rotated serving journal."""
    cfg = ServeConfig(arrivals="poisson", rate=8.0, messages=120, shards=2,
                      seed=4, fault_rate=0.05, fault_seed=2,
                      checkpoint_every=4)
    path = tmp_path / "serve.journal"
    report = ServiceLoop(cfg, journal=path, max_segment_bytes=2048).run()
    segments = journal_segments(path)
    assert len(segments) > 1
    # Flatten the chain: truncating segment i at offset b == the crash
    # state (segments < i intact, i cut at b, later ones never created).
    damaged_dir = tmp_path / "killed"
    damaged_dir.mkdir()
    for i, seg in enumerate(segments):
        size = seg.stat().st_size
        for offset in range(0, size + 1, 11):
            for p in damaged_dir.glob("serve.journal*"):
                p.unlink()
            for src in segments[:i]:
                (damaged_dir / src.name).write_bytes(src.read_bytes())
            (damaged_dir / seg.name).write_bytes(seg.read_bytes()[:offset])
            try:
                rec = recover_serve(damaged_dir / "serve.journal")
            except (JournalCorruptionError, FileNotFoundError):
                continue
            assert rec.report.completions == report.completions


def test_recover_journal_with_retired_retry_budget_key(tmp_path):
    """Serve journals written while ``ServeConfig`` still had a (never
    read) ``retry_budget`` field carry it in meta; recovery ignores the
    key and re-derives the run exactly."""
    from repro.dam.journal import JournalWriter

    cfg = ServeConfig(arrivals="poisson", rate=6.0, messages=150, shards=2,
                      seed=21, P=3, B=8, checkpoint_every=4,
                      fault_rate=0.1, fault_aware=True)
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
