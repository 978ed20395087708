"""Serving journals recover under the driver that wrote them.

* A run whose meta names no driver (faults, no chaos, default
  supervision) journals a one-time ``driver`` record at its first
  breaker trip, and ``recover_serve`` re-derives the run through that
  driver — in-process and procpool alike — on a rotated chain too.
* The journals of earlier eras (the thread-pool driver, the
  unsupervised loop, incremental plans, ``serve --pace``,
  ``--fault-aware`` admission, the spill queue) are ``WOJ2`` files: a
  record per realized flush, checkpoints without digests.  Each fails
  at its header with the typed ``bad-version`` error, the same way
  ``tests/dam/data/woj1_serve.woj`` does; no reader of the old format
  is kept.  The tests below walk a fixture's frames themselves (CRC
  checked) and read its JSON records — the ``meta``, ``driver`` and
  ``divert`` records — to pin which era's run each fixture holds, and
  a digest of each fixture's bytes pins the file.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from pathlib import Path

import pytest

from repro.dam.journal import (
    REC_DRIVER,
    RecoveryManager,
    journal_segments,
    scan_journal,
)
from repro.serve import (
    ProcPoolLoop,
    ServeConfig,
    ServiceLoop,
    recover_serve,
)
from repro.util.errors import JournalCorruptionError

DATA = Path(__file__).parent / "data"

#: ``WOJ2`` fixture -> sha256 of its bytes.
ERA_RECORDS = {
    "aware_era.woj":
        "bc012fc23af20c60165f08f16b54e84d431df89ba049266ef7b0fb15108370a6",
    "incremental_era.woj":
        "4d026ab6bee76d8cb51c8e810c3539872cd92fef2786a794d27979769e6e35ee",
    "paced_era.woj":
        "71e1ec804bc550d23488fdba77449a383e5b63c893e482430190573b997477cc",
    "plain_fault_free.woj":
        "a043a126a4f414e5e8f2abe8f8cac64d052a46b6acf00e1ad943a13990fdf57a",
    "plain_s1.woj":
        "b7325d386b45395dbf9ac81990212af4e9bd8bb205dcded2aaf5c0f5c67b85ac",
    "spill_era.woj":
        "59ecca313739c2800f6f6c3e4a01759b444b9a3f95b27f76b323468f9626fc89",
    "threads_era.woj":
        "c9f36ea56c9b4c130e39bbd3b257207751d02080028d9f9b33b49b2ff6bdd204",
}

#: A ``WOJ2`` file's header, and its frame prefix (payload length,
#: CRC-32).
WOJ2_HEADER = b"WOJ2" + struct.pack("<I", 2)
WOJ2_FRAME = struct.Struct("<II")
#: The spill era's divert record type (no record of today's format).
WOJ2_DIVERT = "divert"


def woj2_payloads(path: Path) -> "list[bytes]":
    """The record payloads of a whole ``WOJ2`` file, every CRC checked."""
    data = path.read_bytes()
    assert data[:len(WOJ2_HEADER)] == WOJ2_HEADER
    payloads, offset = [], len(WOJ2_HEADER)
    while offset < len(data):
        length, crc = WOJ2_FRAME.unpack_from(data, offset)
        offset += WOJ2_FRAME.size
        payload = data[offset:offset + length]
        assert len(payload) == length and zlib.crc32(payload) == crc
        payloads.append(payload)
        offset += length
    return payloads


def woj2_json_records(path: Path) -> "list[dict]":
    """The records a ``WOJ2`` file holds in JSON form (its ``meta`` and
    rare kinds; the packed hot kinds are skipped)."""
    return [json.loads(p) for p in woj2_payloads(path)
            if p[:1] == b"{"]


def woj2_meta(path: Path) -> dict:
    meta = woj2_json_records(path)[0]
    assert meta["type"] == "meta"
    return meta


def assert_fails_bad_version(path: Path) -> None:
    """Every reader refuses a ``WOJ2`` file at its header, typed."""
    for attempt in (
        lambda: scan_journal(path),
        lambda: RecoveryManager(path).fold(),
        lambda: recover_serve(path, repair=False),
    ):
        with pytest.raises(JournalCorruptionError) as exc:
            attempt()
        assert exc.value.reason == "bad-version"
        assert exc.value.offset == 0
        assert "WOJ2" in str(exc.value)

def faulty_config(seed: int, fault_rate: float = 0.5) -> ServeConfig:
    return ServeConfig(rate=6.0, messages=400, shards=2, seed=seed,
                       fault_rate=fault_rate, fault_seed=seed)


#: Four in five flush attempts fail: some epoch stalls whatever order
#: the planner puts the flushes in (every seed of 1-20 trips a breaker
#: under both the incremental-era planner and today's), so the cases
#: below need no seeds picked to match one planner's plans.
TRIPPING_RATE = 0.8


DRIVERS = {
    "inprocess": lambda cfg, path: ServiceLoop(cfg, journal=path),
    "procpool": lambda cfg, path: ProcPoolLoop(cfg, processes=2,
                                               journal=path),
}


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_tripped_fault_journal_recovers(tmp_path, driver, seed):
    cfg = faulty_config(seed, TRIPPING_RATE)
    path = tmp_path / "faulty.woj"
    report = DRIVERS[driver](cfg, path).run()
    assert report.supervisor.trips >= 1
    # Default supervision, no chaos: the meta is the bare config.
    assert not {"driver", "chaos", "supervisor"} & \
        RecoveryManager(path).meta.keys()
    records = [r for r in scan_journal(path).records
               if r["type"] == REC_DRIVER]
    assert [r["driver"]["kind"] for r in records] == [driver]
    rec = recover_serve(path)
    assert rec.run_completed
    assert rec.report.completions == report.completions


def test_driver_record_survives_rotation(tmp_path):
    cfg = faulty_config(1, TRIPPING_RATE)
    path = tmp_path / "seg.woj"
    report = ServiceLoop(cfg, journal=path, max_segment_bytes=256).run()
    assert len(journal_segments(path)) > 1
    assert any(r["type"] == REC_DRIVER
               for r in scan_journal(path).records)
    assert recover_serve(path).report.completions == report.completions


@pytest.mark.parametrize("name", sorted(ERA_RECORDS))
def test_era_fixture_records_are_pinned(name):
    path = DATA / name
    assert woj2_payloads(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        ERA_RECORDS[name]


def test_thread_era_journal_fails_typed():
    """Written by the thread-pool driver with ``workers=2``, a
    ``kill-worker`` drill, and a non-default ``SupervisorConfig`` whose
    meta carries the retired ``watchdog_budget``."""
    path = DATA / "threads_era.woj"
    meta = woj2_meta(path)
    assert meta["driver"] == {"kind": "threads", "workers": 2}
    assert meta["supervisor"]["watchdog_budget"] == 5
    assert_fails_bad_version(path)


def test_plain_era_fault_free_journal_fails_typed():
    """Fault-free: supervision never engaged."""
    path = DATA / "plain_fault_free.woj"
    meta = woj2_meta(path)
    assert ServeConfig.from_meta(meta) == \
        ServeConfig(rate=6.0, messages=200, shards=2, seed=1)
    assert not {"driver", "chaos", "supervisor"} & meta.keys()
    assert_fails_bad_version(path)


def test_plain_era_journal_that_would_trip_fails_typed():
    """``faulty_config(1)``: the unsupervised loop rode out its stalled
    epochs, so the journal holds no ``driver`` record."""
    path = DATA / "plain_s1.woj"
    assert ServeConfig.from_meta(woj2_meta(path)) == faulty_config(1)
    assert not any(r["type"] == REC_DRIVER
                   for r in woj2_json_records(path))
    assert_fails_bad_version(path)


def test_incremental_era_journal_fails_typed():
    """Fault-free and unpaced, but four of the run's ten plans were
    incremental plans appended behind the pending list."""
    path = DATA / "incremental_era.woj"
    meta = woj2_meta(path)
    assert ServeConfig.from_meta(meta) == \
        ServeConfig(rate=6.0, messages=200, shards=2, seed=1)
    assert not {"driver", "chaos", "supervisor", "pace"} & meta.keys()
    assert_fails_bad_version(path)


def test_paced_era_journal_fails_typed():
    """Written by ``serve --pace 4``: the pace key is no config field any
    more."""
    path = DATA / "paced_era.woj"
    meta = woj2_meta(path)
    assert meta["pace"] == 4
    assert ServeConfig.from_meta(meta) == \
        ServeConfig(rate=6.0, messages=200, shards=2, seed=1)
    assert_fails_bad_version(path)


def test_aware_era_journal_fails_typed():
    """Written with ``fault_aware=True`` on E14's faulty-serving config
    (seed 1, fault seed 5)."""
    path = DATA / "aware_era.woj"
    meta = woj2_meta(path)
    assert meta["fault_aware"] is True
    assert ServeConfig.from_meta(meta) == ServeConfig(
        arrivals="mmpp", rate=3.0, burst_rate=24.0, messages=1200,
        shards=4, P=4, B=16, seed=1, fault_rate=0.2, fault_seed=5,
    )
    assert_fails_bad_version(path)


def test_spill_era_journal_fails_typed():
    """``tests/serve/test_divert.py``'s double kill (2 shards, seed 3,
    260 messages at rate 10, divert on), written with
    ``spill_capacity=40``: shard 1's spill overflowed, and the late
    diversion handed its 40 spilled messages to shard 0."""
    path = DATA / "spill_era.woj"
    meta = woj2_meta(path)
    assert meta["supervisor"]["spill_capacity"] == 40
    assert ServeConfig.from_meta(meta) == ServeConfig(
        rate=10.0, messages=260, shards=2, seed=3, P=3, B=8, epoch=4,
        checkpoint_every=4,
    )
    handed = [r["msgs"] for r in woj2_json_records(path)
              if r["type"] == WOJ2_DIVERT and r["from"] != r["to"]]
    assert [len(msgs) for msgs in handed] == [0, 40]
    assert_fails_bad_version(path)
