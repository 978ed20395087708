"""The durable KV facade: WAL + memtable + leveled SSTables + manifest.

:class:`KVStore` composes the pieces of :mod:`repro.lsm.disk` into the
engine the serving stack plugs in: ``put``/``delete`` append to the WAL
(generation files, WOJ3-framed) and land in an in-memory memtable; a
full memtable flushes to a level-0 SSTable; leveled compaction is
*scheduled* by a :class:`~repro.lsm.disk.scheduler.DiskCompactionPolicy`
and executed one task per :meth:`maintain` call, so maintenance is
de-amortized exactly like ``LSMTree.maintain(budget=1)`` — a serving
loop is never stalled behind a full compaction cascade.

**The durability protocol.**  Every multi-file transition follows
write-new / commit-manifest / delete-old:

1. new SSTables appear atomically (tmp + fsync + rename) but are
   invisible until referenced;
2. one atomic manifest swap is the commit point;
3. files the new manifest no longer references are deleted *after* the
   swap — a crash between 2 and 3 strands garbage, never state, and the
   next :meth:`open` collects it.

A memtable flush additionally rotates the WAL *between* steps 1 and 2
(new generation opened before the manifest that obsoletes the old one
commits), so there is no interval in which an operation is in neither a
live WAL generation nor a referenced SSTable.  Recovery is therefore a
pure function of the surviving files: manifest -> live SSTables ->
WAL replay (``seq > last_flushed_seq``, contiguity enforced) -> the
exact acknowledged state, or a typed
:class:`~repro.util.errors.StorageCorruptionError` — never silence.

**The degradation policy (live I/O faults).**  Crashes are not the only
fault model: disks return ``EIO``, fill up (``ENOSPC``), and — the
fsyncgate lesson — an ``fsync`` that fails once may have silently
dropped the dirty pages it covered, so retrying it can acknowledge data
that never reached the platter.  The store's responses, mildest first:

* **transient read EIO** — bounded retry with backoff
  (``read_retries`` × ``retry_backoff``), then a typed
  :class:`~repro.util.errors.StorageIOError`; the store stays healthy.
* **any write-path fault** — *fail-stop*: the poisoned memtable/WAL
  generation is discarded (never re-flushed, never re-fsynced) and the
  store re-opens from its last durable state via the normal recovery
  path.  A transient write fault surfaces as ``StorageIOError`` with
  the store healthy again on a fresh generation.
* **ENOSPC or an acknowledgment fsync failure** — additionally enter
  **read-only degraded mode**: every subsequent ``put``/``delete``
  raises a typed :class:`~repro.util.errors.StoreDegradedError`
  (counted in ``rejections``), reads keep working, and every
  ``probe_every``-th rejection triggers :meth:`try_rearm` — a full
  probing re-open that leaves degraded mode automatically once the
  fault has cleared (space returned, controller recovered).

An operation that raises *after* its WAL record was flushed is a ghost
(durable but unacknowledged) — recovery may resurrect it, which is the
safe side of the ledger: acknowledged operations are never lost.
"""

from __future__ import annotations

import errno as _errno
import os
import time
from contextlib import contextmanager
from pathlib import Path

from repro.dam.records import pack_delete, pack_put
from repro.lsm.disk.manifest import (
    Manifest,
    commit_manifest,
    load_or_init_manifest,
)
from repro.lsm.disk.scheduler import (
    CompactionTask,
    DiskCompactionPolicy,
    HornDensityPolicy,
)
from repro.lsm.disk.sstable import (
    KIND_PUT,
    KIND_TOMBSTONE,
    SSTableMeta,
    SSTableReader,
    sstable_name,
    write_sstable,
)
from repro.lsm.disk.wal import (
    REC_DEL,
    REC_PUT,
    open_wal,
    replay_wal,
    wal_generations,
    wal_path,
)
from repro.obs.hooks import current_obs
from repro.util.atomic import remove_stale_tmp
from repro.util.errors import (
    InvalidInstanceError,
    StorageError,
    StorageIOError,
    StoreDegradedError,
)
from repro.util.fsio import resolve

#: Degraded-mode reason tags (``StoreDegradedError.reason``).
DEGRADED_ENOSPC = "enospc"
DEGRADED_FSYNC = "fsync-fail"
DEGRADED_IO = "io"


class KVStore:
    """A crash-safe ordered KV store over one directory.

    Parameters
    ----------
    directory:
        The store's home; created if missing.  One store per directory.
    memtable_capacity:
        Operations buffered before an automatic flush to level 0.
    size_ratio:
        Growth factor ``T`` between levels (and the L0 run budget).
    sync:
        ``True`` fsyncs the WAL at every acknowledged operation —
        survives OS crashes.  ``False`` leaves durability at the OS
        page cache (survives process kills, which is the chaos suite's
        fault model) and is ~an order of magnitude faster.
    policy:
        Compaction scheduler; default :class:`HornDensityPolicy`.
    auto_maintain:
        Run one scheduled compaction task after each automatic flush.
    fs:
        Filesystem handle override (``None`` = the ambient handle from
        :mod:`repro.util.fsio`, re-resolved per operation so a fault
        window installed mid-run is seen by live stores).
    read_retries:
        Transient read ``EIO`` retries before the typed error.
    retry_backoff:
        Seconds slept before retry ``n`` is ``retry_backoff * n``
        (``0`` disables sleeping — what the fault suites use).
    probe_every:
        While degraded, every ``probe_every``-th rejected write runs a
        :meth:`try_rearm` probe (``1`` probes on every rejection).
    """

    def __init__(
        self, directory: "str | os.PathLike", *,
        memtable_capacity: int = 256, size_ratio: int = 4,
        sync: bool = True, block_entries: int = 64,
        policy: "DiskCompactionPolicy | None" = None,
        auto_maintain: bool = True,
        fs=None, read_retries: int = 2, retry_backoff: float = 0.01,
        probe_every: int = 8,
    ) -> None:
        if memtable_capacity < 1 or size_ratio < 2:
            raise InvalidInstanceError(
                "need memtable_capacity >= 1 and size_ratio >= 2, got "
                f"{memtable_capacity}, {size_ratio}"
            )
        if read_retries < 0 or retry_backoff < 0 or probe_every < 1:
            raise InvalidInstanceError(
                "need read_retries >= 0, retry_backoff >= 0 and "
                f"probe_every >= 1, got {read_retries}, {retry_backoff}, "
                f"{probe_every}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.memtable_capacity = int(memtable_capacity)
        self.size_ratio = int(size_ratio)
        self.sync = bool(sync)
        self.block_entries = int(block_entries)
        self.policy = policy if policy is not None else HornDensityPolicy()
        self.auto_maintain = bool(auto_maintain)
        self._fs = fs
        self.read_retries = int(read_retries)
        self.retry_backoff = float(retry_backoff)
        self.probe_every = int(probe_every)
        obs = current_obs()
        self._metrics = obs.metrics if obs.enabled else None
        # -- degradation state ------------------------------------------
        self._degraded = ""  # "" = healthy, else a DEGRADED_* reason
        self.rejections = 0
        self.reopens = 0
        #: compaction tasks executed (cumulative; the stability harness
        #: samples this to attribute compaction-caused stall windows).
        self.compactions = 0
        #: the same, per scheduling regime ("capacity" / "density").
        self.compactions_by_regime: "dict[str, int]" = {}
        #: input entries merged by committed compactions (every source
        #: run plus the overlapped runs below it), in all and the most
        #: any one task merged.
        self.compacted_entries = 0
        self.largest_compaction = 0
        self._wal = None
        self._closed = False
        #: open :meth:`group` blocks; while > 0 writes defer their flush.
        self._groups = 0
        #: a grouped write appended since the last WAL flush.
        self._unflushed = False
        # -- recovery ---------------------------------------------------
        try:
            self._recover()
        except OSError as exc:
            raise StorageIOError(
                f"{self.directory}: open failed ({exc})",
                op="open",
                path=str(getattr(exc, "filename", "") or self.directory),
                errno=exc.errno or 0,
            ) from exc

    # -- recovery helpers ----------------------------------------------
    def _recover(self) -> None:
        """(Re)build the in-memory state from the durable files.

        Runs at open and after every fail-stop: discard open handles,
        collect crash litter, replay the WAL past the manifest frontier
        and continue writing in a fresh generation.  Raises the
        underlying ``OSError`` if the disk is still faulting — callers
        decide whether that means degraded mode or a typed open error.
        """
        self._discard_wal()
        remove_stale_tmp(self.directory)
        self.manifest = load_or_init_manifest(self.directory, fs=self._fs)
        self._gc_orphans()
        self._readers: "dict[int, SSTableReader]" = {}
        #: key -> (seq, kind, value); replay rebuilds the pre-crash one.
        self.memtable: "dict" = {}
        records, torn = replay_wal(
            self.directory,
            from_gen=self.manifest.wal_gen,
            after_seq=self.manifest.last_flushed_seq,
            fs=self._fs,
        )
        self.recovered_records = len(records)
        self.recovered_torn_bytes = int(torn)
        self._seq = self.manifest.last_flushed_seq
        for rec in records:
            self._seq = int(rec["seq"])
            if rec["type"] == REC_PUT:
                self.memtable[rec["key"]] = (
                    self._seq, KIND_PUT, rec["value"]
                )
            else:
                self.memtable[rec["key"]] = (self._seq, KIND_TOMBSTONE, None)
        # Never append to a replayed generation (JournalWriter truncates
        # at open): writing continues in a fresh generation.  The
        # manifest still points at the old one, so a second crash
        # replays both, in order — contiguity carries across.
        gens = wal_generations(self.directory)
        self._wal_gen = (gens[-1][0] + 1) if gens else self.manifest.wal_gen
        self._wal = open_wal(
            self.directory, self._wal_gen, sync=self.sync, fs=self._fs
        )
        self._unflushed = False
        if self._metrics is not None and self.recovered_records:
            self._metrics.counter(
                "kv_recovered_records_total",
                "WAL records replayed into the memtable at open",
            ).inc(self.recovered_records)

    def _discard_wal(self) -> None:
        """Release the WAL handle without flushing (fail-stop rule)."""
        wal, self._wal = self._wal, None
        if wal is not None:
            wal.abort()

    def _gc_orphans(self) -> None:
        """Delete files the manifest does not reference (crash litter)."""
        fsh = resolve(self._fs)
        live = {meta.name for meta in self.manifest.live_files()}
        for path in self.directory.glob("sst-*.sst"):
            if path.name not in live:
                fsh.unlink(path)
        for gen, path in wal_generations(self.directory):
            if gen < self.manifest.wal_gen:
                fsh.unlink(path)

    # -- degradation machinery ------------------------------------------
    @property
    def degraded(self) -> str:
        """``""`` while healthy, else the read-only degraded reason."""
        return self._degraded

    def health(self) -> dict:
        """Degradation snapshot for serving-side breakers."""
        return {
            "degraded": self._degraded,
            "rejections": self.rejections,
            "reopens": self.reopens,
        }

    def _fail_write(self, exc: OSError, op: str) -> None:
        """Fail-stop after a write-path fault: discard and re-open.

        The poisoned memtable/WAL generation is discarded — a failed
        fsync is *never* retried (fsyncgate: the page cache may have
        silently dropped the dirty pages it covered) — and the store
        re-opens from its last durable state.  ``ENOSPC`` and
        acknowledgment fsync failures enter read-only degraded mode;
        other transient faults surface as :class:`StorageIOError` with
        the store healthy again on a fresh WAL generation.
        """
        self._count("kv_io_errors_total", "write-path I/O faults observed")
        path = str(getattr(exc, "filename", "") or self.directory)
        try:
            self._recover()
            recovered = True
        except OSError:
            self._discard_wal()
            recovered = False
        self.reopens += 1
        self._count("kv_io_reopens_total", "fail-stop re-opens after faults")
        if exc.errno == _errno.ENOSPC:
            reason = DEGRADED_ENOSPC
        elif op == "fsync":
            reason = DEGRADED_FSYNC
        elif not recovered:
            reason = DEGRADED_IO
        else:
            raise StorageIOError(
                f"{self.directory}: {op} failed ({exc}); the store "
                "re-opened from its last durable state",
                op=op, path=path, errno=exc.errno or 0,
            ) from exc
        if not self._degraded:
            self._degraded = reason
            self._count(
                "kv_degraded_entries_total",
                "transitions into read-only degraded mode",
            )
        raise StoreDegradedError(
            f"{self.directory}: store is read-only degraded ({reason})",
            reason=reason, path=path, rejections=self.rejections,
        ) from exc

    def try_rearm(self) -> bool:
        """Probe the fault; leave degraded mode if it has cleared.

        The probe is a full re-open: recovery replays the durable
        state, and opening a fresh WAL generation exercises the very
        write (and, with ``sync=True``, fsync) path that failed.
        Called automatically on every ``probe_every``-th rejected
        write; safe to call explicitly at any time.  Returns ``True``
        when the store is healthy afterwards.
        """
        self._require_open()
        if not self._degraded:
            return True
        try:
            self._recover()
        except OSError:
            self._discard_wal()
            return False
        self._degraded = ""
        self._count(
            "kv_rearms_total", "degraded stores re-armed after probes"
        )
        return True

    def _retry_read(self, fn, path):
        """Run ``fn``, retrying transient ``EIO`` ``read_retries`` times.

        Anything still failing raises a typed :class:`StorageIOError`
        carrying the attempt count; non-EIO errors are not retried.
        """
        attempts = 0
        while True:
            try:
                return fn()
            except StorageIOError:
                raise  # already typed by a nested read
            except OSError as exc:
                attempts += 1
                self._count(
                    "kv_io_read_errors_total",
                    "read-path I/O faults observed",
                )
                if exc.errno != _errno.EIO or attempts > self.read_retries:
                    raise StorageIOError(
                        f"{path}: read failed after {attempts} "
                        f"attempt(s) ({exc})",
                        op="read", path=str(path), errno=exc.errno or 0,
                        attempts=attempts,
                    ) from exc
                self._count(
                    "kv_io_read_retries_total",
                    "transient read faults retried",
                )
                if self.retry_backoff:
                    time.sleep(self.retry_backoff * attempts)

    # -- write path -----------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise StorageError(f"{self.directory}: store is closed")

    def _require_writable(self) -> None:
        self._require_open()
        if not self._degraded:
            return
        self.rejections += 1
        self._count(
            "kv_degraded_rejections_total",
            "writes rejected while read-only degraded",
        )
        if self.rejections % self.probe_every == 0 and self.try_rearm():
            return  # the fault cleared; proceed with this write
        raise StoreDegradedError(
            f"{self.directory}: store is read-only degraded "
            f"({self._degraded}); write rejected",
            reason=self._degraded, path=str(self.directory),
            rejections=self.rejections,
        )

    def put(self, key, value) -> int:
        """Write ``key -> value``; returns the operation's sequence number.

        The operation is durable (to the configured ``sync`` level) when
        this returns, or inside a :meth:`group` when the group exits:
        WAL first, memtable second.
        """
        self._require_writable()
        self._seq += 1
        try:
            self._wal.append(pack_put(self._seq, key, value), REC_PUT)
        except OSError as exc:
            self._fail_write(exc, "write")
        if self._groups:
            self._unflushed = True  # the group's exit flushes it
        else:
            try:
                self._wal.flush()
            except OSError as exc:
                self._fail_write(exc, "fsync")
        self._count("kv_wal_appends_total", "WAL records acknowledged")
        self.memtable[key] = (self._seq, KIND_PUT, value)
        self._maybe_flush()
        return self._seq

    def delete(self, key) -> int:
        """Write a tombstone for ``key``; returns its sequence number."""
        self._require_writable()
        self._seq += 1
        try:
            self._wal.append(pack_delete(self._seq, key), REC_DEL)
        except OSError as exc:
            self._fail_write(exc, "write")
        if self._groups:
            self._unflushed = True  # the group's exit flushes it
        else:
            try:
                self._wal.flush()
            except OSError as exc:
                self._fail_write(exc, "fsync")
        self._count("kv_wal_appends_total", "WAL records acknowledged")
        self.memtable[key] = (self._seq, KIND_TOMBSTONE, None)
        self._maybe_flush()
        return self._seq

    @contextmanager
    def group(self):
        """Group commit: one WAL flush for every write inside the block.

        Inside the block ``put``/``delete`` append their WAL record and
        return without flushing; the block's exit flushes once, with
        :meth:`sync_wal`'s fault handling, and only when a write was
        appended.  A grouped write is therefore acknowledged at the
        exit, not at its return.  Blocks nest; only the outermost exit
        flushes.  Writes outside any block flush on their own, as
        always.

        A write fault inside the block fail-stops as outside it: closing
        the abandoned generation hands the block's earlier records to
        the OS, so the re-open replays them.  On a ``sync=True`` store
        they then stay at page-cache durability, since the exit's fsync
        covers the fresh generation only.
        """
        self._groups += 1
        try:
            yield self
        finally:
            self._groups -= 1
            if not self._groups and self._unflushed:
                self._unflushed = False
                if not self._closed:
                    self.sync_wal()

    def _maybe_flush(self) -> None:
        if len(self.memtable) < self.memtable_capacity:
            return
        self.flush_memtable()
        if self.auto_maintain:
            self.maintain()

    # -- read path ------------------------------------------------------
    def _reader(self, meta: SSTableMeta) -> SSTableReader:
        reader = self._readers.get(meta.file_id)
        if reader is None:
            path = self.directory / meta.name
            reader = self._retry_read(
                lambda: SSTableReader(path, fs=self._fs), path
            )
            self._readers[meta.file_id] = reader
        return reader

    def get(self, key, default=None):
        """The newest visible value for ``key`` (``default`` if absent
        or tombstoned).

        Reads keep working in degraded mode; transient ``EIO`` is
        retried ``read_retries`` times before the typed error.
        """
        self._require_open()
        hit = self.memtable.get(key)
        if hit is not None:
            _seq, kind, value = hit
            return value if kind == KIND_PUT else default
        for depth, level in enumerate(self.manifest.levels):
            best = None
            for meta in level:
                if meta.entries == 0 or not meta.overlaps_range(key, key):
                    continue
                found = self._retry_read(
                    lambda m=meta: self._reader(m).get(key),
                    self.directory / meta.name,
                )
                if found is not None and (best is None or found[0] > best[0]):
                    best = found
                if depth > 0:
                    # Levels >= 1 are key-disjoint: one run can hold key.
                    break
            if best is not None:
                _seq, kind, value = best
                return value if kind == KIND_PUT else default
        return default

    def items(self) -> "list[tuple]":
        """Every visible ``(key, value)`` pair, sorted by key.

        Full-scan semantics (newest sequence wins, tombstones hidden) —
        the differential oracle against the in-memory model.
        """
        self._require_open()
        newest: "dict" = {}
        for level in self.manifest.levels:
            for meta in level:
                rows = self._retry_read(
                    lambda m=meta: list(self._reader(m).iter_entries()),
                    self.directory / meta.name,
                )
                for k, seq, kind, value in rows:
                    cur = newest.get(k)
                    if cur is None or seq > cur[0]:
                        newest[k] = (seq, kind, value)
        for k, row in self.memtable.items():
            cur = newest.get(k)
            if cur is None or row[0] > cur[0]:
                newest[k] = row
        return sorted(
            (k, v) for k, (_s, kind, v) in newest.items()
            if kind == KIND_PUT
        )

    # -- flush and compaction -------------------------------------------
    def flush_memtable(self) -> "SSTableMeta | None":
        """Seal the memtable into a level-0 SSTable (None if empty).

        A fault anywhere in the protocol fail-stops: the store re-opens
        from the last committed manifest (acknowledged operations
        replay from their WAL generation) and a typed error surfaces.
        """
        self._require_writable()
        if not self.memtable:
            return None
        try:
            return self._flush_protocol()
        except OSError as exc:
            self._fail_write(exc, "flush")

    def _flush_protocol(self) -> SSTableMeta:
        entries = [
            (k, seq, kind, value)
            for k, (seq, kind, value) in sorted(self.memtable.items())
        ]
        meta = write_sstable(
            self.directory, self.manifest.next_file_id, entries,
            block_entries=self.block_entries, fs=self._fs,
        )
        # Rotate the WAL *before* the commit that obsoletes the old
        # generation: there is never an instant with no live home for
        # an acknowledged operation.
        self._wal.close()
        self._wal_gen += 1
        self._wal = open_wal(
            self.directory, self._wal_gen, sync=self.sync, fs=self._fs
        )
        self._unflushed = False
        levels = list(self.manifest.levels) or [()]
        levels[0] = levels[0] + (meta,)
        self.manifest = self.manifest.with_edit(
            next_file_id=self.manifest.next_file_id + 1,
            wal_gen=self._wal_gen,
            last_flushed_seq=self._seq,
            levels=tuple(levels),
        )
        commit_manifest(self.directory, self.manifest, fs=self._fs)
        fsh = resolve(self._fs)
        for gen, path in wal_generations(self.directory):
            if gen < self._wal_gen:
                fsh.unlink(path)
        self.memtable = {}
        self._count("kv_flushes_total", "memtable flushes to level 0")
        return meta

    def maintain(self, budget: int = 1) -> "list[CompactionTask]":
        """Run up to ``budget`` scheduled compaction tasks; returns them.

        A fault mid-compaction fail-stops exactly like a flush fault:
        outputs not yet committed by the manifest are garbage the
        re-open collects, never state.
        """
        self._require_open()
        done: "list[CompactionTask]" = []
        for _ in range(max(0, budget)):
            task = self.policy.choose(
                self.manifest,
                memtable_capacity=self.memtable_capacity,
                size_ratio=self.size_ratio,
            )
            if task is None:
                break
            try:
                self._execute(task)
            except OSError as exc:
                self._fail_write(exc, "compact")
            done.append(task)
            self.compactions += 1
            by_regime = self.compactions_by_regime
            by_regime[task.regime] = by_regime.get(task.regime, 0) + 1
            self._count(
                f"kv_compactions_{task.regime}_total",
                "compaction tasks by scheduling regime",
            )
        return done

    def drain_backlog(self, limit: int = 1000) -> int:
        """Compact until the scheduler is satisfied; returns task count."""
        total = 0
        while total < limit:
            if not self.maintain():
                break
            total += 1
        return total

    def _execute(self, task: CompactionTask) -> None:
        level = task.level
        levels = list(self.manifest.levels)
        chosen = {fid for fid in task.file_ids}
        srcs = [m for m in levels[level] if m.file_id in chosen]
        if len(srcs) != len(chosen):
            raise StorageError(
                f"compaction task names stale file ids {sorted(chosen)} "
                f"at level {level}"
            )
        below = levels[level + 1] if level + 1 < len(levels) else ()
        merged_below = [
            m for m in below if any(s.overlaps(m) for s in srcs)
        ]
        # Newest sequence wins per key across every input run.
        newest: "dict" = {}
        for meta in [*srcs, *merged_below]:
            rows = self._retry_read(
                lambda m=meta: list(self._reader(m).iter_entries()),
                self.directory / meta.name,
            )
            for k, seq, kind, value in rows:
                cur = newest.get(k)
                if cur is None or seq > cur[0]:
                    newest[k] = (seq, kind, value)
        target = level + 1
        # Tombstones retire only at the bottom: nothing deeper exists
        # for them to shadow, so dropping them cannot resurrect a key.
        lands_bottom = target >= len(levels) - 1
        rows = [
            (k, seq, kind, value)
            for k, (seq, kind, value) in sorted(newest.items())
            if not (lands_bottom and kind == KIND_TOMBSTONE)
        ]
        if self._metrics is not None and lands_bottom:
            retired = sum(
                1 for _k, (_s, kind, _v) in newest.items()
                if kind == KIND_TOMBSTONE
            )
            if retired:
                self._metrics.counter(
                    "kv_obligations_retired_total",
                    "tombstones finished at the bottom level",
                ).inc(retired)
        # Partitioned output keeps downstream merges incremental.
        run_entries = self.memtable_capacity * self.size_ratio
        out_metas: "list[SSTableMeta]" = []
        next_id = self.manifest.next_file_id
        for start in range(0, len(rows), run_entries):
            out_metas.append(write_sstable(
                self.directory, next_id, rows[start:start + run_entries],
                block_entries=self.block_entries, fs=self._fs,
            ))
            next_id += 1
        merged_ids = chosen | {m.file_id for m in merged_below}
        levels[level] = tuple(
            m for m in levels[level] if m.file_id not in chosen
        )
        while len(levels) <= target:
            levels.append(())
        survivors = [m for m in levels[target] if m.file_id not in merged_ids]
        levels[target] = tuple(sorted(
            [*survivors, *out_metas],
            key=lambda m: (m.min_key, m.file_id),
        ))
        while len(levels) > 1 and not levels[-1]:
            levels.pop()
        self.manifest = self.manifest.with_edit(
            next_file_id=next_id, levels=tuple(levels),
        )
        commit_manifest(self.directory, self.manifest, fs=self._fs)
        moved = sum(m.entries for m in [*srcs, *merged_below])
        self.compacted_entries += moved
        self.largest_compaction = max(self.largest_compaction, moved)
        fsh = resolve(self._fs)
        for meta in [*srcs, *merged_below]:
            self._readers.pop(meta.file_id, None)
            fsh.unlink(self.directory / meta.name)

    # -- lifecycle ------------------------------------------------------
    def sync_wal(self) -> None:
        """Force the WAL to the configured durability level now."""
        self._require_open()
        if self._wal is None:
            return  # degraded with no live generation: nothing to sync
        try:
            self._wal.flush()
        except OSError as exc:
            self._fail_write(exc, "fsync")

    def close(self) -> None:
        """Flush the WAL and release file handles (state stays on disk)."""
        if self._closed:
            return
        wal, self._wal = self._wal, None
        if wal is not None:
            try:
                wal.close()
            except OSError:
                # Fail-stop even on the way out: the flush's records
                # were never acknowledged, so a torn tail is legal.
                wal.abort()
        self._readers.clear()
        self._closed = True

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection ---------------------------------------------------
    def _sstable_bytes(self, name: str) -> int:
        try:
            return (self.directory / name).stat().st_size
        except OSError:
            return 0

    def stats(self) -> dict:
        """A JSON-friendly snapshot for ``kv stats`` and benchmarks."""
        return {
            "directory": str(self.directory),
            "seq": self._seq,
            "memtable": len(self.memtable),
            "manifest_version": self.manifest.version,
            "wal_gen": self._wal_gen,
            "last_flushed_seq": self.manifest.last_flushed_seq,
            "levels": [
                {
                    "runs": len(level),
                    "entries": sum(m.entries for m in level),
                    "tombstones": sum(m.tombstones for m in level),
                    # On-disk footprint of the level's SSTables; a run
                    # whose file vanished underneath us (scrub moved it
                    # to quarantine) counts 0 rather than failing stats.
                    "bytes": sum(
                        self._sstable_bytes(m.name) for m in level
                    ),
                }
                for level in self.manifest.levels
            ],
            "recovered_records": self.recovered_records,
            "recovered_torn_bytes": self.recovered_torn_bytes,
            "compactions": self.compactions,
            "compactions_by_regime": dict(self.compactions_by_regime),
            "compacted_entries": self.compacted_entries,
            "largest_compaction": self.largest_compaction,
            "degraded": self._degraded,
            "rejections": self.rejections,
            "io_reopens": self.reopens,
        }

    def check_invariants(self) -> None:
        """Structural self-audit; raises :class:`StorageError` on drift.

        Mirrors ``LSMTree.check_invariants``: levels >= 1 key-disjoint
        and sorted, every referenced file present, no sequence above the
        WAL frontier recorded as flushed.
        """
        seen: "set[int]" = set()
        for depth, level in enumerate(self.manifest.levels):
            for meta in level:
                if meta.file_id in seen:
                    raise StorageError(
                        f"file id {meta.file_id} referenced twice"
                    )
                seen.add(meta.file_id)
                if not (self.directory / meta.name).exists():
                    raise StorageError(
                        f"manifest references missing file {meta.name}"
                    )
                if meta.file_id >= self.manifest.next_file_id:
                    raise StorageError(
                        f"file id {meta.file_id} >= next_file_id "
                        f"{self.manifest.next_file_id}"
                    )
            if depth >= 1:
                for a, b in zip(level, level[1:]):
                    if not a.max_key < b.min_key:
                        raise StorageError(
                            f"level {depth} runs {a.name} and {b.name} "
                            "overlap or are out of order"
                        )
        if self.manifest.last_flushed_seq > self._seq:
            raise StorageError(
                f"flushed seq {self.manifest.last_flushed_seq} is ahead "
                f"of the operation counter {self._seq}"
            )

    def _count(self, name: str, help: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name, help).inc()
