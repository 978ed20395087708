"""The ``WOJ3`` record codec: exact round trips, typed failures.

* Every record kind round-trips key for key, through the packers alone
  and through a journal file: both checkpoint shapes with their shard
  digests, WAL puts and deletes of ``str`` and tuple keys with
  arbitrary JSON values, and the JSON kinds.  A decoded record equals
  what the JSON form of the same record reads back as.
* Every one-byte flip and every truncation of a mixed-kind stream scans
  to an exact prefix of its records or raises a typed
  :class:`JournalCorruptionError`.
* A CRC-valid payload that does not parse is ``bad-payload`` (corruption
  mid-file, a torn tail at the end), never ``struct.error`` or
  ``IndexError``; so is any payload of a retired kind (``WOJ2``'s
  flush ``0x01`` and fault ``0x04``).
* A committed ``WOJ1`` journal and a ``WOJ1`` WAL generation fail with
  the one typed ``bad-version`` error.
"""

from __future__ import annotations

import json
import shutil
import struct
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dam.journal import (
    _HEADER,
    JournalWriter,
    RecoveryManager,
    frame,
    scan_journal,
)
from repro.dam.records import (
    REC_CHECKPOINT,
    REC_DEL,
    REC_PUT,
    decode,
    pack_batch_checkpoint,
    pack_delete,
    pack_put,
    pack_serve_checkpoint,
)
from repro.lsm.disk import KVStore
from repro.lsm.disk.wal import replay_wal
from repro.serve import recover_serve
from repro.util.compact_json import compact_json
from repro.util.errors import JournalCorruptionError

DATA = Path(__file__).with_name("data")
KV_DATA = Path(__file__).parents[1] / "lsm" / "disk" / "data"

I32 = st.integers(0, 2**31 - 1)
TEXT = st.text(max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**63, 2**63)
    | st.floats(allow_nan=False, allow_infinity=False) | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=4,
)
KEYS = (TEXT | st.integers(-2**40, 2**40)
        | st.tuples(TEXT, st.integers(0, 99), st.integers(0, 99)))
#: one ``(flushes, digest)`` pair per shard.
DIGESTS = st.lists(st.tuples(I32, st.binary(min_size=8, max_size=8)),
                   max_size=6)


def as_json(record: dict) -> dict:
    """What the JSON form of ``record`` reads back as."""
    return json.loads(compact_json(record))


def _digested(record: dict, digests) -> dict:
    return {**record, "flushes": [n for n, _d in digests],
            "digests": [d.hex() for _n, d in digests]}


@st.composite
def batch_checkpoints(draw):
    t = draw(I32)
    pairs = draw(st.lists(st.tuples(I32, I32), max_size=40))
    locations = [a for a, _b in pairs]
    completions = [b for _a, b in pairs]
    digests = draw(DIGESTS)
    record = _digested({"type": REC_CHECKPOINT, "t": t,
                        "locations": locations,
                        "completions": completions}, digests)
    return (pack_batch_checkpoint(t, locations, completions, digests),
            REC_CHECKPOINT, record)


@st.composite
def serve_checkpoints(draw):
    t, arrived, completed = draw(I32), draw(I32), draw(I32)
    digests = draw(DIGESTS)
    record = _digested({"type": REC_CHECKPOINT, "t": t, "arrived": arrived,
                        "completed": completed}, digests)
    return (pack_serve_checkpoint(t, arrived, completed, digests),
            REC_CHECKPOINT, record)


@st.composite
def puts(draw):
    seq, key, value = draw(st.integers(0, 2**63 - 1)), draw(KEYS), \
        draw(JSON_VALUES)
    record = as_json({"type": REC_PUT, "seq": seq, "key": key,
                      "value": value})
    return pack_put(seq, key, value), REC_PUT, record


@st.composite
def deletes(draw):
    seq, key = draw(st.integers(0, 2**63 - 1)), draw(KEYS)
    record = as_json({"type": REC_DEL, "seq": seq, "key": key})
    return pack_delete(seq, key), REC_DEL, record


@st.composite
def json_records(draw):
    kind = draw(st.sampled_from(("end", "driver", "mystery")))
    record = {"type": kind, "t": draw(I32),
              "body": draw(JSON_VALUES)}
    return compact_json(record), kind, record


RECORDS = (batch_checkpoints() | serve_checkpoints() | puts() | deletes()
           | json_records())


@given(RECORDS)
def test_every_kind_round_trips_key_for_key(item):
    payload, _kind, record = item
    decoded = decode(payload)
    assert decoded == record
    assert list(decoded) == list(record)
    assert decoded == as_json(record)


def test_a_shard_digest_is_eight_bytes():
    digest = bytes(range(8))
    record = decode(pack_batch_checkpoint(3, [0], [2], [(5, digest)]))
    assert (record["flushes"], record["digests"]) == ([5], [digest.hex()])
    assert decode(pack_serve_checkpoint(3, 1, 1, []))["digests"] == []
    with pytest.raises(ValueError):
        pack_serve_checkpoint(3, 1, 1, [(5, digest[:7])])


def test_str_keys_are_raw_utf8_and_others_json():
    key = "café \U0001f642"
    assert key.encode() in pack_put(1, key, 0)
    assert compact_json(key) not in pack_put(1, key, 0)
    assert decode(pack_put(1, ("a", 2), [1]))["key"] == ["a", 2]
    assert decode(pack_delete(2, 7))["key"] == 7


def _write_stream(path: Path, items) -> "list[dict]":
    """A journal of ``items`` after a ``meta`` record; its records."""
    meta = {"policy": "codec-test", "n": len(items)}
    with JournalWriter(path, meta=meta) as writer:
        for payload, kind, _record in items:
            writer.append(payload, kind)
    return [{"type": "meta", **meta}, *(r for _p, _k, r in items)]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(RECORDS, max_size=12))
def test_mixed_stream_round_trips_through_a_journal(tmp_path, items):
    path = tmp_path / "mixed.woj"
    expected = _write_stream(path, items)
    scan = scan_journal(path)
    assert list(scan.records) == expected
    assert scan.torn_bytes == 0
    assert len(scan.ends) == len(expected)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(RECORDS, min_size=1, max_size=6),
       st.integers(1, 255))
def test_every_flip_and_cut_is_an_exact_prefix_or_typed(tmp_path, items,
                                                        mask):
    path = tmp_path / "mixed.woj"
    expected = _write_stream(path, items)
    data = path.read_bytes()
    ends = list(scan_journal(path).ends)
    work = tmp_path / "damaged.woj"
    for offset in range(len(data) + 1):
        work.write_bytes(data[:offset])
        scan = scan_journal(work)
        assert list(scan.records) == expected[:bisect_right(ends, offset)]
        if offset == len(data):
            break
        damaged = bytearray(data)
        damaged[offset] ^= mask
        work.write_bytes(bytes(damaged))
        try:
            records = list(scan_journal(work).records)
        except JournalCorruptionError as exc:
            assert exc.reason in ("bad-magic", "bad-crc", "bad-payload")
            continue
        assert records == expected[:len(records)], offset


def _flush_body(n: int, count: int) -> bytes:
    """A ``WOJ2`` flush payload (kind ``0x01``, retired)."""
    return struct.pack(f"<B5i{count}i", 0x01, 3, 0, 0, 1, n,
                       *range(count))


DIGEST = [(4, bytes(8))]

#: CRC-valid payloads that do not parse.
MALFORMED = {
    "empty": b"",
    "unknown-kind": b"\x09" + bytes(20),
    "kind-0xff": b"\xff",
    "kind-zero": b"\x00" + bytes(8),
    # The retired kinds: refused whatever their body.
    "flush-n-too-big": _flush_body(3, 2),
    "flush-n-too-small": _flush_body(1, 2),
    "flush-n-negative": _flush_body(-1, 0),
    "flush-short-head": _flush_body(0, 0)[:-1],
    "flush-shard-below-minus-one": struct.pack("<B5i", 0x01, 3, -2, 0, 1, 0),
    "flush-well-formed": _flush_body(2, 2),
    "fault-name-past-end": struct.pack("<B4iH", 0x04, 1, 0, 0, 1, 50) + b"x",
    "fault-bad-utf8": struct.pack("<B4iH", 0x04, 1, 0, 0, 1, 1) + b"\xff",
    "checkpoint-n-disagrees":
        pack_batch_checkpoint(2, [1, 2], [0, 0], [])[:-8],
    "checkpoint-no-digests": pack_batch_checkpoint(2, [1], [0], [])[:-4],
    "serve-checkpoint-long":
        pack_serve_checkpoint(1, 2, 3, DIGEST) + b"\x00",
    "serve-checkpoint-digest-cut":
        pack_serve_checkpoint(1, 2, 3, DIGEST)[:-1],
    "serve-checkpoint-negative-shards":
        pack_serve_checkpoint(1, 2, 3, [])[:-4] + struct.pack("<i", -1),
    "put-key-past-end": struct.pack("<BqI", 0x05, 1, 9) + b"ab",
    "put-no-value": struct.pack("<BqI", 0x05, 1, 1) + b"a",
    "put-bad-key-utf8": struct.pack("<BqI", 0x05, 1, 1) + b"\xff1",
    "put-bad-key-json": struct.pack("<BqI", 0x06, 1, 1) + b"{1",
    "del-short": b"\x07\x01",
    "del-bad-json-key": struct.pack("<Bq", 0x08, 1) + b"[",
    "json-not-object": b"{",
    "json-no-type": b'{"t":1}',
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_payload_is_bad_payload(tmp_path, name):
    payload = MALFORMED[name]
    with pytest.raises(ValueError):
        decode(payload)
    good = frame(pack_serve_checkpoint(1, 0, 0, DIGEST))
    mid = tmp_path / "mid.woj"
    mid.write_bytes(_HEADER + frame(payload) + good)
    with pytest.raises(JournalCorruptionError) as exc:
        scan_journal(mid)
    assert exc.value.reason == "bad-payload"
    assert exc.value.offset == len(_HEADER)
    tail = tmp_path / "tail.woj"
    tail.write_bytes(_HEADER + good + frame(payload))
    scan = scan_journal(tail)
    assert [r["type"] for r in scan.records] == [REC_CHECKPOINT]
    assert scan.torn_reason == "torn final record (bad-payload)"


@given(st.sampled_from(range(1, 9)), st.binary(max_size=48))
def test_any_payload_decodes_or_raises_value_error(kind, body):
    try:
        record = decode(bytes([kind]) + body)
    except ValueError:
        return
    assert isinstance(record, dict) and "type" in record


def test_committed_woj1_journal_fails_with_the_version_error(tmp_path):
    path = DATA / "woj1_serve.woj"
    assert path.read_bytes()[:4] == b"WOJ1"
    for attempt in (
        lambda: scan_journal(path),
        lambda: RecoveryManager(path).fold(),
        lambda: recover_serve(path, repair=False),
    ):
        with pytest.raises(JournalCorruptionError) as exc:
            attempt()
        assert exc.value.reason == "bad-version"
        assert exc.value.offset == 0
        assert "WOJ1" in str(exc.value)


def test_committed_woj1_wal_generation_fails_with_the_version_error(
        tmp_path):
    home = tmp_path / "kv"
    shutil.copytree(KV_DATA / "woj1_kv", home)
    wal = home / "wal-000000.log"
    assert wal.read_bytes()[:4] == b"WOJ1"
    before = wal.read_bytes()
    for attempt in (
        lambda: replay_wal(home, from_gen=0, after_seq=0),
        lambda: KVStore(home, sync=False),
    ):
        with pytest.raises(JournalCorruptionError) as exc:
            attempt()
        assert exc.value.reason == "bad-version"
    assert wal.read_bytes() == before
