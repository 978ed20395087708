"""WAL generations: journal inheritance, replay rules, typed failures."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.dam.journal import MAGIC, scan_journal
from repro.dam.records import REC_DEL, REC_PUT, pack_delete, pack_put
from repro.faults.crashes import flip_byte, truncate_at
from repro.lsm.disk.wal import (
    open_wal,
    replay_wal,
    wal_generations,
    wal_path,
)
from repro.util.errors import JournalCorruptionError, StorageCorruptionError


def put_record(seq: int, key, value) -> dict:
    """A put as replay reads it back."""
    return {"type": REC_PUT, "seq": seq, "key": key, "value": value}


def delete_record(seq: int, key) -> dict:
    """A delete as replay reads it back."""
    return {"type": REC_DEL, "seq": seq, "key": key}


def _write_gen(directory: Path, gen: int, records) -> Path:
    """Write ``records`` as ``KVStore`` packs them."""
    w = open_wal(directory, gen, sync=False)
    for rec in records:
        if rec["type"] == REC_PUT:
            w.append(pack_put(rec["seq"], rec["key"], rec["value"]),
                            REC_PUT)
        else:
            w.append(pack_delete(rec["seq"], rec["key"]), REC_DEL)
    w.flush()
    w.close()
    return wal_path(directory, gen)


def test_wal_is_a_woj2_journal(tmp_path: Path) -> None:
    path = _write_gen(tmp_path, 0, [put_record(1, "a", 10)])
    assert path.read_bytes()[:4] == MAGIC
    scan = scan_journal(path)
    assert [r["type"] for r in scan.records] == ["meta", "put"]
    assert scan.records[0]["policy"] == "kv-wal"


def test_generation_listing_sorted(tmp_path: Path) -> None:
    for gen in (3, 0, 11):
        _write_gen(tmp_path, gen, [])
    assert [g for g, _p in wal_generations(tmp_path)] == [0, 3, 11]


def test_replay_across_generations(tmp_path: Path) -> None:
    _write_gen(tmp_path, 0, [put_record(1, "a", 1), put_record(2, "b", 2)])
    _write_gen(tmp_path, 1, [delete_record(3, "a"), put_record(4, "c", 3)])
    records, torn = replay_wal(tmp_path, from_gen=0, after_seq=0)
    assert [r["seq"] for r in records] == [1, 2, 3, 4]
    assert torn == 0


def test_replay_skips_flushed_prefix(tmp_path: Path) -> None:
    _write_gen(tmp_path, 0, [put_record(s, f"k{s}", s) for s in (1, 2, 3)])
    _write_gen(tmp_path, 1, [put_record(4, "k4", 4)])
    records, _ = replay_wal(tmp_path, from_gen=0, after_seq=3)
    assert [r["seq"] for r in records] == [4]


def test_torn_tail_on_newest_is_repaired(tmp_path: Path) -> None:
    path = _write_gen(
        tmp_path, 0, [put_record(1, "a", 1), put_record(2, "b", 2)]
    )
    truncate_at(path, path.stat().st_size - 3, in_place=True)
    records, torn = replay_wal(tmp_path, from_gen=0, after_seq=0)
    assert [r["seq"] for r in records] == [1]
    assert torn > 0
    # The repair truncated in place: a second scan sees no tear.
    assert scan_journal(path).torn_bytes == 0


def test_torn_nonfinal_generation_is_corruption(tmp_path: Path) -> None:
    old = _write_gen(tmp_path, 0, [put_record(1, "a", 1)])
    _write_gen(tmp_path, 1, [put_record(2, "b", 2)])
    truncate_at(old, old.stat().st_size - 2, in_place=True)
    with pytest.raises(StorageCorruptionError) as exc:
        replay_wal(tmp_path, from_gen=0, after_seq=0)
    assert exc.value.reason == "wal-mid-chain-tear"


def test_mid_record_damage_is_corruption(tmp_path: Path) -> None:
    path = _write_gen(
        tmp_path, 0, [put_record(1, "a", 1), put_record(2, "b", 2)]
    )
    flip_byte(path, 20, in_place=True)  # first record, data follows it
    with pytest.raises(JournalCorruptionError):
        replay_wal(tmp_path, from_gen=0, after_seq=0)


def test_sequence_gap_is_never_silent(tmp_path: Path) -> None:
    _write_gen(tmp_path, 0, [put_record(1, "a", 1), put_record(3, "c", 3)])
    with pytest.raises(StorageCorruptionError) as exc:
        replay_wal(tmp_path, from_gen=0, after_seq=0)
    assert exc.value.reason == "seq-gap"


def test_gap_across_generation_boundary(tmp_path: Path) -> None:
    _write_gen(tmp_path, 0, [put_record(1, "a", 1)])
    _write_gen(tmp_path, 1, [put_record(5, "e", 5)])
    with pytest.raises(StorageCorruptionError) as exc:
        replay_wal(tmp_path, from_gen=0, after_seq=0)
    assert exc.value.reason == "seq-gap"


def test_unknown_record_type_is_typed(tmp_path: Path) -> None:
    w = open_wal(tmp_path, 0, sync=False)
    w.append({"type": "mystery", "seq": 1})
    w.flush()
    w.close()
    with pytest.raises(StorageCorruptionError) as exc:
        replay_wal(tmp_path, from_gen=0, after_seq=0)
    assert exc.value.reason == "bad-payload"


def test_kill_at_every_offset_replays_exact_prefix(tmp_path: Path) -> None:
    """The inherited exactness guarantee, re-proven at the WAL layer:
    truncating the newest generation at every byte offset yields replay
    of exactly the records whose flush completed before the cut."""
    records = [put_record(s, f"k{s}", s * 10) for s in (1, 2, 3, 4)]
    path = _write_gen(tmp_path, 0, records)
    full = path.read_bytes()
    for cut in range(len(full) + 1):
        work = tmp_path / "case"
        work.mkdir()
        (work / path.name).write_bytes(full[:cut])
        replayed, _ = replay_wal(work, from_gen=0, after_seq=0)
        seqs = [r["seq"] for r in replayed]
        assert seqs == list(range(1, len(seqs) + 1))
        # Whatever survived is a prefix; the tear only ever costs the
        # record actually straddling the cut.
        for rec in replayed:
            assert rec == records[rec["seq"] - 1]
        import shutil

        shutil.rmtree(work)
