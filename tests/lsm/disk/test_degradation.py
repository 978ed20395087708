"""Live I/O faults against :class:`KVStore`: the degradation policy.

The acceptance bar from the issue: after **every** injected fault the
store either surfaces a typed error and re-opens exactly, or enters
read-only degraded mode — and in both cases zero acknowledged
operations are lost.

* transient read ``EIO`` — bounded retry, then a typed
  :class:`StorageIOError`; the store stays healthy;
* any write-path fault — fail-stop: discard the poisoned memtable/WAL
  generation and re-open from the last durable state (a failed fsync is
  *never* retried — fsyncgate);
* ``ENOSPC`` / acknowledgment-fsync failure — read-only degraded mode:
  typed :class:`StoreDegradedError`, counted rejections, automatic
  re-arm probe every ``probe_every``-th rejection once the fault clears;
* scrub — a persistently unreadable SSTable is quarantined as an
  ``io-error`` finding and the store keeps serving everything else;
* the satellite cases — ``ENOSPC`` at the WAL-rotate step of the flush
  protocol and at SSTable creation;
* the fault-at-every-syscall sweep — a census pass counts every
  (op, path-class) the workload performs, then each index is faulted in
  a fresh directory, every index in tier-1.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.faults.iofaults import FaultFS
from repro.lsm.disk import KVStore, run_scrub
from repro.lsm.disk.kvstore import (
    DEGRADED_ENOSPC,
    DEGRADED_FSYNC,
)
from repro.util.errors import (
    StorageError,
    StorageIOError,
    StoreDegradedError,
)


def _mk(home, fs=None, **kw) -> KVStore:
    kw.setdefault("memtable_capacity", 4)
    kw.setdefault("size_ratio", 2)
    kw.setdefault("sync", False)
    kw.setdefault("retry_backoff", 0)
    kw.setdefault("probe_every", 4)
    return KVStore(home, fs=fs, **kw)


def _index_of(tmp_path: Path, op: str, cls: str, *, sync: bool = False,
              warmup: int = 5) -> int:
    """The (op, cls) counter value right after ``warmup`` clean puts.

    A census pass over a scratch directory: open a store through a
    disarmed shim, run the warmup, read the counter.  The next matching
    operation in an identical run hits exactly this index.
    """
    fs = FaultFS("", armed=False)
    store = _mk(tmp_path / "census", fs=fs, sync=sync)
    for i in range(warmup):
        store.put(f"w{i}", i)
    idx = fs.counters.get((op, cls), 0)  # before close adds its ops
    store.close()
    return idx


# -- transient write EIO: fail-stop, typed error, healthy again ---------

def test_write_eio_fail_stops_and_reopens(tmp_path):
    idx = _index_of(tmp_path, "write", "wal")
    fs = FaultFS(f"write:wal:eio@{idx}x1")
    store = _mk(tmp_path / "s", fs=fs)
    for i in range(5):
        store.put(f"w{i}", i)
    with pytest.raises(StorageIOError) as ei:
        store.put("poisoned", 99)
    assert ei.value.op == "write"
    # Fail-stop re-opened the store from its last durable state: it is
    # healthy, on a fresh WAL generation, with every acked op intact.
    assert store.degraded == ""
    assert store.reopens == 1
    assert dict(store.items()) == {f"w{i}": i for i in range(5)}
    store.put("after", 1)  # writes work again
    store.close()
    clean = _mk(tmp_path / "s")
    assert dict(clean.items()) == {
        **{f"w{i}": i for i in range(5)}, "after": 1,
    }
    clean.check_invariants()
    clean.close()


# -- ENOSPC: degraded mode, rejections, probe re-arm --------------------

def test_enospc_enters_degraded_and_probe_rearms(tmp_path):
    idx = _index_of(tmp_path, "write", "wal")
    fs = FaultFS(f"write:wal:enospc@{idx}x1")
    store = _mk(tmp_path / "s", fs=fs, probe_every=2)
    for i in range(5):
        store.put(f"w{i}", i)
    with pytest.raises(StoreDegradedError) as ei:
        store.put("full", 1)
    assert ei.value.reason == DEGRADED_ENOSPC
    assert store.degraded == DEGRADED_ENOSPC
    # Reads keep working while degraded.
    assert store.get("w3") == 3
    # Rejection 1: still degraded (no probe yet).
    with pytest.raises(StoreDegradedError):
        store.put("r1", 1)
    assert store.rejections == 1
    # Rejection 2 triggers the probe; the fault is spent (x1), so the
    # probing re-open succeeds and THIS write proceeds.
    assert store.put("r2", 2) > 0
    assert store.degraded == ""
    assert store.rejections == 2
    assert store.get("r2") == 2
    store.close()


def test_persistent_enospc_stays_degraded_until_space_returns(tmp_path):
    idx = _index_of(tmp_path, "write", "wal")
    fs = FaultFS(f"write:wal:enospc@{idx}x0")  # every write from idx on
    store = _mk(tmp_path / "s", fs=fs, probe_every=2)
    for i in range(5):
        store.put(f"w{i}", i)
    with pytest.raises(StoreDegradedError):
        store.put("full", 1)
    # Probes fail while the disk is still full.
    for _ in range(4):
        with pytest.raises(StoreDegradedError):
            store.put("still-full", 1)
    assert store.degraded == DEGRADED_ENOSPC
    # Space returns: the next scheduled probe re-arms automatically.
    fs.disarm()
    deadline = store.probe_every + 1
    for attempt in range(deadline):
        try:
            store.put("after-space", 7)
            break
        except StoreDegradedError:
            continue
    assert store.degraded == ""
    assert store.get("after-space") == 7
    # Zero acknowledged loss across the whole episode.
    items = dict(store.items())
    for i in range(5):
        assert items[f"w{i}"] == i
    store.close()


# -- fsync failure: fail-stop, never retried ----------------------------

def test_fsync_failure_is_never_retried(tmp_path):
    idx = _index_of(tmp_path, "fsync", "wal", sync=True)
    fs = FaultFS(f"fsync:wal:eio@{idx}x1")
    store = _mk(tmp_path / "s", fs=fs, sync=True)
    for i in range(5):
        store.put(f"w{i}", i)
    gen_before = store.stats()["wal_gen"]
    with pytest.raises(StoreDegradedError) as ei:
        store.put("unacked", 99)
    assert ei.value.reason == DEGRADED_FSYNC
    # The failed fsync fired exactly once — fail-stop re-opened onto a
    # fresh generation instead of retrying the poisoned one.
    assert len([f for f in fs.fired if f["op"] == "fsync"]) == 1
    assert store.stats()["wal_gen"] > gen_before
    # Acked ops survived; the unacked one may be a ghost (its record
    # reached the page cache before the fsync failed) but never a loss.
    items = dict(store.items())
    for i in range(5):
        assert items[f"w{i}"] == i
    assert items.get("unacked") in (None, 99)
    store.close()


def test_group_exit_fsync_failure_degrades(tmp_path):
    """A group's one flush carries :meth:`KVStore.sync_wal`'s handling:
    its failed fsync is never retried and the store turns read-only."""
    idx = _index_of(tmp_path, "fsync", "wal", sync=True)
    fs = FaultFS(f"fsync:wal:eio@{idx}x1")
    store = _mk(tmp_path / "s", fs=fs, sync=True)
    for i in range(5):
        store.put(f"w{i}", i)
    with pytest.raises(StoreDegradedError) as ei:
        with store.group():
            store.put("g1", 1)
            store.put("g2", 2)
    assert ei.value.reason == DEGRADED_FSYNC
    assert len([f for f in fs.fired if f["op"] == "fsync"]) == 1
    items = dict(store.items())
    for i in range(5):
        assert items[f"w{i}"] == i
    assert items.get("g1") in (None, 1) and items.get("g2") in (None, 2)
    store.close()


# -- read faults: bounded retry, then typed -----------------------------

def _flushed_store(home, fs=None) -> KVStore:
    store = _mk(home, fs=fs)
    for i in range(12):
        store.put(f"k{i:02d}", i)
    store.flush_memtable()
    return store


def test_transient_read_eio_is_retried(tmp_path):
    _flushed_store(tmp_path / "s").close()
    fs = FaultFS("read:sstable:eio@0x1")
    store = _mk(tmp_path / "s", fs=fs, read_retries=2)
    assert store.get("k03") == 3  # first read faulted, retry succeeded
    assert [f["op"] for f in fs.fired] == ["read"]
    assert store.degraded == ""  # reads never degrade the store
    store.close()


def test_persistent_read_eio_is_typed_with_attempts(tmp_path):
    _flushed_store(tmp_path / "s").close()
    fs = FaultFS("read:sstable:eio")
    store = _mk(tmp_path / "s", fs=fs, read_retries=2)
    with pytest.raises(StorageIOError) as ei:
        store.get("k03")
    assert ei.value.attempts == 3  # initial try + 2 retries
    assert store.degraded == ""
    store.close()


def test_scrub_quarantines_unreadable_sstable(tmp_path):
    fs = FaultFS("", armed=False)
    store = _flushed_store(tmp_path / "s", fs=fs)
    for i in range(12, 24):
        store.put(f"k{i:02d}", i)
    store.flush_memtable()
    n_files = sum(len(lv) for lv in store.manifest.levels)
    assert n_files >= 2
    # Persistent EIO on the next SSTable read: scrub's open of the
    # first run it checks fails every retry.
    nxt = fs.counters.get(("read", "sstable"), 0)
    fs.rules = FaultFS(f"read:sstable:eio@{nxt}x1").rules
    fs.arm()
    report = run_scrub(store, repair=True)
    fs.disarm()
    assert not report.clean
    assert any(f.reason == "io-error" for f in report.findings)
    assert len(report.quarantined) == 1
    assert (store.directory / "quarantine").exists()
    # The store keeps serving every key outside the quarantined range.
    survivors = dict(store.items())
    assert survivors  # the other run(s) still serve
    store.check_invariants()
    store.close()


# -- satellite: ENOSPC inside the flush protocol ------------------------

def test_enospc_at_wal_rotate_step_of_flush(tmp_path):
    """The flush protocol's WAL rotation hits a full disk: fail-stop,
    degraded entry, and the exact pre-flush state on re-open."""
    # Census: opening the store is wal-open index 0; the rotation inside
    # flush_memtable is index 1.
    fs = FaultFS("open:wal:enospc@1x1")
    store = _mk(tmp_path / "s", fs=fs)
    for i in range(3):
        store.put(f"w{i}", i)
    with pytest.raises(StoreDegradedError) as ei:
        store.flush_memtable()
    assert ei.value.reason == DEGRADED_ENOSPC
    # Every acked op survived (the old WAL generation still held them —
    # the manifest that would have obsoleted it never committed).
    assert dict(store.items()) == {f"w{i}": i for i in range(3)}
    # The fault cleared (x1): an explicit probe re-arms, and the
    # retried flush completes.
    assert store.try_rearm()
    assert store.degraded == ""
    assert store.flush_memtable() is not None
    store.close()
    clean = _mk(tmp_path / "s")
    assert dict(clean.items()) == {f"w{i}": i for i in range(3)}
    clean.check_invariants()
    clean.close()


def test_enospc_at_sstable_write_of_flush(tmp_path):
    fs = FaultFS("write:sstable:enospc@0x1")
    store = _mk(tmp_path / "s", fs=fs)
    for i in range(3):
        store.put(f"w{i}", i)
    with pytest.raises(StoreDegradedError):
        store.flush_memtable()
    assert store.degraded == DEGRADED_ENOSPC
    assert dict(store.items()) == {f"w{i}": i for i in range(3)}
    # No half-written SSTable survived (the atomic protocol unlinked
    # its tmp) and no manifest reference leaked.
    assert store.try_rearm()
    store.check_invariants()
    store.close()


# -- the fault-at-every-syscall sweep -----------------------------------

N_OPS = 20


def _attempts_per_key() -> "dict[str, list[int]]":
    per_key: "dict[str, list[int]]" = {}
    for i in range(1, N_OPS + 1):
        per_key.setdefault(f"k{i % 7}", []).append(i)
    return per_key


def _run_workload(home, fs) -> "dict[str, int]":
    """The scripted put stream; returns key -> last *acknowledged* value.

    Any escape that is not a typed :class:`StorageError` fails the
    sweep — that is the policy under test.
    """
    acked: "dict[str, int]" = {}
    try:
        store = _mk(home, fs=fs)
    except StorageError:
        return acked
    for i in range(1, N_OPS + 1):
        key = f"k{i % 7}"
        try:
            store.put(key, i)
            acked[key] = i
        except StorageError:
            pass
    try:
        store.close()
    except StorageError:
        pass
    return acked


def _verify_no_acked_loss(home, acked: "dict[str, int]") -> None:
    """Clean re-open: every acked op visible, ghosts bounded above."""
    store = _mk(home)
    items = dict(store.items())
    store.check_invariants()
    store.close()
    attempts = _attempts_per_key()
    for key, last_acked in acked.items():
        got = items.get(key)
        assert got is not None, f"{key}: acked value lost entirely"
        # Ghosts (durable-but-unacknowledged) may only be LATER
        # attempts on the same key — never an earlier or foreign value.
        assert got >= last_acked, f"{key}: acked {last_acked}, got {got}"
        assert got in attempts[key], f"{key}: foreign value {got}"
    for key, got in items.items():
        assert got in attempts.get(key, ()), f"{key}: invented value {got}"


def _syscall_census(tmp_path) -> "dict[tuple, int]":
    fs = FaultFS("", armed=False)
    _run_workload(tmp_path / "census", fs)
    return dict(fs.counters)


def _sweep(tmp_path) -> int:
    census = _syscall_census(tmp_path)
    assert census, "census saw no syscalls"
    runs = 0
    for (op, cls), total in sorted(census.items()):
        for j in range(total):
            kind = "eio" if (j % 2 == 0) else "enospc"
            fs = FaultFS(f"{op}:{cls}:{kind}@{j}x1")
            home = tmp_path / f"{op}-{cls}-{j}"
            acked = _run_workload(home, fs)
            _verify_no_acked_loss(home, acked)
            runs += 1
    return runs


def test_fault_at_every_syscall_exhaustive(tmp_path):
    assert _sweep(tmp_path) > 0
