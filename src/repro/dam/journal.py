"""Crash-consistent execution journal for schedule execution.

A journal is a segmented, append-only file that makes an executor run
durable: if the process is killed mid-run — a real ``kill -9``, not a
simulated one — the journal holds everything needed to reconstruct the
machine state at the last durable step and resume, with completion times
byte-identical to an uninterrupted run.

**File layout.**  An 8-byte header (``b"WOJ1"`` magic + little-endian
``u32`` version) followed by records.  Each record is::

    u32 payload length | u32 CRC-32 of payload | payload (UTF-8 JSON)

**Segments.**  Long-running (serving) journals rotate: with
``max_segment_bytes`` set, :class:`JournalWriter` closes the current
segment when the next record would overflow it and continues in a new
file.  Segment 0 is the base path; segment ``i`` is ``<path>.<i>``.
Every segment carries its own header; records are split only at record
boundaries, never mid-record.  :func:`scan_journal` reads the whole
chain and :meth:`RecoveryManager.repair` repairs it, so rotation is
invisible to recovery.  The torn-tail rule extends naturally: only the
*last* segment of the chain may end torn (including a half-written
header from a crash during rotation); damage in any earlier segment is
corruption, because rotation flushes and closes a segment before
opening its successor.

Five record types flow through a journal, all JSON objects with a
``"type"`` key:

* ``meta`` — run configuration written once at open (instance shape,
  executor options, anything the writer wants to persist);
* ``flush`` — one realized flush: ``{"t", "src", "dest", "msgs"}``;
* ``fault`` — a fault decision the executor observed (failed/partial
  outcome, stall skip) — audit trail, not needed for state recovery;
* ``checkpoint`` — a full :class:`~repro.dam.trace.CheckpointRecord`
  snapshot (message locations + completion steps at the end of a step);
* ``end`` — the run completed; nothing to recover.

**Torn-tail rule.**  A crash can leave a partially written final record.
On scan, a record that *extends past the end of the file*, or whose
checksum/JSON fails *at the physical tail*, is a torn tail: it is
discarded (and :meth:`RecoveryManager.repair` truncates it away) and the
valid prefix is used.  A record that fails its checksum with more data
*after* it cannot be a tear — appends never leave holes — so that is
:class:`~repro.util.errors.JournalCorruptionError`.  The net guarantee:
recovery either reproduces the uninterrupted run exactly or raises a
typed error; it never returns a wrong answer.

**Durable-step rule.**  A step's flush records may be half-written when
the process dies, so a step ``t`` counts as durable only with evidence it
finished: a later record (any record with step > ``t``), a checkpoint at
step >= ``t``, or an ``end`` record.  Flushes of a non-durable trailing
step are dropped; resuming re-executes that step, which is safe because
the reconstructed state never saw it.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.core.worms import WORMSInstance
from repro.dam.schedule import Flush, FlushSchedule
from repro.dam.simulator import SimulationResult
from repro.dam.trace import CheckpointRecord, _apply_step, _initial_state
from repro.obs.hooks import current_obs
from repro.obs.profile import PHASE_JOURNAL, PHASE_RECOVER
from repro.util.compact_json import compact_json
from repro.util.errors import InvalidInstanceError, JournalCorruptionError
from repro.util.fsio import resolve

MAGIC = b"WOJ1"
VERSION = 1
_HEADER = MAGIC + struct.pack("<I", VERSION)
_PREFIX = struct.Struct("<II")  # payload length, CRC-32

#: Record types.
REC_META = "meta"
REC_FLUSH = "flush"
REC_FAULT = "fault"
REC_CHECKPOINT = "checkpoint"
REC_END = "end"
#: A key-range diversion (breaker-open handoff to a neighbor shard) or
#: its merge-back.  Informational for recovery — replaying the
#: run re-derives the same diversions — but the record makes the handoff
#: durable *at the moment it happened*, which is what lets an operator
#: audit where a message's ownership moved.  Scanning, compaction, and
#: ``last_durable_step`` all pass unknown-to-them types through, so old
#: readers tolerate these records.
REC_DIVERT = "divert"
#: A multi-tenant SLO enforcement decision (door closures + tenant queue
#: purges) journaled at the epoch boundary it was taken, sealed behind a
#: checkpoint like ``divert`` records.  Replaying the run re-derives the
#: same decision (it is a pure function of the config), but the durable
#: record is what lets a restarted shard-per-process worker learn about
#: a purge whose chunk dispatch died with its process.  Unknown to old
#: readers — which pass unrecognized types through, like ``divert``.
REC_SLO = "slo"
#: The serving driver of a run whose ``meta`` names none, journaled once
#: at its first breaker trip: before it, the run is the unsupervised
#: loop's byte for byte; after it, recovery must re-derive under the
#: named driver.  Passed through by scanning and compaction.
REC_DRIVER = "driver"


#: Smallest permitted rotation threshold: a header plus a tiny record.
MIN_SEGMENT_BYTES = 64


def encode_record(record: dict) -> bytes:
    """Serialize one record to its on-disk bytes (length | crc | payload)."""
    payload = compact_json(record)
    return _PREFIX.pack(len(payload), zlib.crc32(payload)) + payload


def segment_path(path: "str | os.PathLike", index: int) -> Path:
    """Path of segment ``index`` of the journal at ``path`` (0 = base)."""
    base = Path(path)
    return base if index == 0 else Path(f"{base}.{index}")


def journal_segments(path: "str | os.PathLike") -> "list[Path]":
    """The existing segment chain of the journal at ``path``, in order.

    Enumeration stops at the first gap, so an orphan ``<path>.7`` with no
    ``<path>.6`` is never silently folded into the chain.
    """
    segments: "list[Path]" = []
    i = 0
    while True:
        p = segment_path(path, i)
        if not p.exists():
            break
        segments.append(p)
        i += 1
    return segments


def flush_record(t: int, flush: Flush) -> dict:
    """The journal record for one realized flush at step ``t``."""
    return {"type": REC_FLUSH, "t": int(t), "src": int(flush.src),
            "dest": int(flush.dest), "msgs": [int(m) for m in flush.messages]}


def checkpoint_record(cp: CheckpointRecord) -> dict:
    """The journal record for a state snapshot."""
    return {"type": REC_CHECKPOINT, "t": int(cp.step),
            "locations": list(cp.locations),
            "completions": list(cp.completions)}


def fault_record(t: int, kind: str, src: int, dest: int, detail: str) -> dict:
    """The journal record for one fault decision the executor observed."""
    return {"type": REC_FAULT, "t": int(t), "kind": kind, "src": int(src),
            "dest": int(dest), "detail": detail}


def divert_record(t: int, src_shard: int, dst_shard: int,
                  msgs: "list[int] | tuple[int, ...]" = ()) -> dict:
    """The journal record for a key-range diversion (or its merge-back).

    ``src_shard == dst_shard`` records a merge-back (the overlay was
    removed); otherwise arrivals for ``src_shard``'s range now land on
    ``dst_shard`` and ``msgs`` lists the spill-queue messages handed
    over with the switch.
    """
    return {"type": REC_DIVERT, "t": int(t), "from": int(src_shard),
            "to": int(dst_shard), "msgs": [int(m) for m in msgs]}


def driver_record(t: int, driver: dict) -> dict:
    """The journal record naming a serving run's driver at step ``t``
    (``driver`` is the same payload as a journal meta's ``"driver"``)."""
    return {"type": REC_DRIVER, "t": int(t), "driver": dict(driver)}


def slo_record(t: int, door, purge) -> dict:
    """The journal record for one epoch's SLO enforcement decision.

    ``door`` is the set of tenants whose admission door is closed after
    this boundary; ``purge`` the tenants whose queued messages are
    purged at step ``t``.  Sorted lists, so the record's bytes are a
    pure function of the decision.
    """
    return {"type": REC_SLO, "t": int(t),
            "door": sorted(int(x) for x in door),
            "purge": sorted(int(x) for x in purge)}


class JournalWriter:
    """Append-only journal file handle.

    The header (and ``meta`` record, if given) are written and synced at
    open, so even an immediately-killed run leaves an identifiable
    journal.  ``append`` buffers; call :meth:`flush` at durability points
    (the executors flush at every checkpoint).  With ``sync=True`` every
    flush also ``fsync``\\ s — slower, but survives OS-level crashes, not
    just process kills.

    With ``max_segment_bytes`` set the journal rotates: when the next
    record would push the current segment past the limit, the segment is
    flushed and closed and writing continues in ``<path>.<n>``.  Records
    never span segments.  (A single record larger than the limit still
    gets written — into a fresh segment of its own — so rotation can
    delay but never lose a record.)

    With ``compact_every_rotations=N`` (N >= 1) the writer additionally
    runs :func:`repro.dam.compaction.compact_journal` over its own chain
    every ``N`` rotations, right after sealing a segment.  Compaction
    only ever rewrites *sealed* segments — the freshly opened tail this
    writer keeps appending to is untouched — and recovery is provably
    unchanged (the compaction module's safety rules), so the background
    trigger is invisible to everything but disk usage.
    """

    def __init__(self, path: "str | os.PathLike", *,
                 meta: "dict | None" = None, sync: bool = False,
                 max_segment_bytes: "int | None" = None,
                 compact_every_rotations: int = 0,
                 fs=None) -> None:
        if max_segment_bytes is not None and (
            max_segment_bytes < MIN_SEGMENT_BYTES
        ):
            raise InvalidInstanceError(
                f"max_segment_bytes must be >= {MIN_SEGMENT_BYTES}, "
                f"got {max_segment_bytes}"
            )
        if compact_every_rotations < 0:
            raise InvalidInstanceError(
                "compact_every_rotations must be >= 0, "
                f"got {compact_every_rotations}"
            )
        self.path = Path(path)
        self.sync = bool(sync)
        self.max_segment_bytes = max_segment_bytes
        self.compact_every_rotations = int(compact_every_rotations)
        self._rotations_since_compaction = 0
        self._segment_index = 0
        # Observability is bound at open: a writer created under the
        # disabled default does zero instrumentation work per record.
        obs = current_obs()
        self._metrics = obs.metrics if obs.enabled else None
        self._profiler = obs.profiler if obs.enabled else None
        # The fs handle is re-resolved per operation (None = ambient),
        # so a chaos window can install a FaultFS mid-run and the next
        # append sees it; fault-free runs pay one attribute read.
        self._fs = fs
        fsh = resolve(fs)
        self._f = fsh.open(self.path, "wb")
        fsh.write(self._f, _HEADER)
        self._segment_bytes = len(_HEADER)
        if meta is not None:
            self.append({"type": REC_META, **meta})
        self.flush()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._f.closed

    @property
    def n_segments(self) -> int:
        """Number of segments written so far (1 without rotation)."""
        return self._segment_index + 1

    def _rotate(self) -> None:
        """Seal the current segment and continue in the next one."""
        self.flush()
        self._f.close()
        self._segment_index += 1
        fsh = resolve(self._fs)
        self._f = fsh.open(segment_path(self.path, self._segment_index), "wb")
        fsh.write(self._f, _HEADER)
        self._segment_bytes = len(_HEADER)
        if self._metrics is not None:
            self._metrics.counter(
                "journal_rotations_total", "journal segments sealed"
            ).inc()
        if self.compact_every_rotations:
            self._rotations_since_compaction += 1
            if (
                self._rotations_since_compaction
                >= self.compact_every_rotations
            ):
                self._rotations_since_compaction = 0
                # Local import: repro.dam.compaction imports this module.
                from repro.dam.compaction import compact_journal

                compact_journal(self.path)

    def append(self, record: dict) -> None:
        """Buffer one record (see :meth:`flush` for durability)."""
        blob = encode_record(record)
        if (
            self.max_segment_bytes is not None
            and self._segment_bytes > len(_HEADER)
            and self._segment_bytes + len(blob) > self.max_segment_bytes
        ):
            self._rotate()
        resolve(self._fs).write(self._f, blob)
        self._segment_bytes += len(blob)
        if self._metrics is not None:
            records = self._metrics.counter(
                "journal_records_total", "journal records appended"
            )
            records.inc()
            records.labels(type=record.get("type", "?")).inc()
            self._metrics.counter(
                "journal_bytes_total", "journal bytes appended"
            ).inc(len(blob))

    def flush(self) -> None:
        """Push buffered records to the OS (and disk, with ``sync=True``)."""
        if self._profiler is not None:
            t0 = self._profiler.clock()
            self._f.flush()
            if self.sync:
                resolve(self._fs).fsync(self._f)
                self._metrics.counter(
                    "journal_fsyncs_total", "fsyncs issued by sync writers"
                ).inc()
            self._profiler.add(PHASE_JOURNAL, self._profiler.clock() - t0)
            return
        self._f.flush()
        if self.sync:
            resolve(self._fs).fsync(self._f)

    def close(self) -> None:
        """Flush and close; safe to call twice."""
        if not self._f.closed:
            self.flush()
            self._f.close()

    def abort(self) -> None:
        """Close *without* flushing; the tail may land torn.

        For fail-stop callers discarding a poisoned generation after an
        I/O fault: an fsync that failed must never be retried (the page
        cache may have silently dropped the dirty pages), so the only
        safe exit is to release the handle and let recovery replay the
        durable prefix.  Safe to call twice.
        """
        if not self._f.closed:
            self._f.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class JournalScan:
    """Result of reading a journal chain: valid record prefix + tail state."""

    records: tuple[dict, ...]
    #: bytes of header(s) + fully valid records across the whole chain.
    valid_bytes: int
    #: total bytes on disk across the whole chain.
    file_bytes: int
    #: why the tail was discarded ("" if the chain ended on a boundary).
    torn_reason: str
    #: the segment files scanned, in chain order (always >= 1 entry).
    segments: "tuple[str, ...]" = ()
    #: valid bytes *within the last segment* (its repair truncation point).
    tail_valid_bytes: int = 0

    @property
    def torn_bytes(self) -> int:
        """Bytes of torn tail a crash left behind (0 for a clean chain)."""
        return self.file_bytes - self.valid_bytes

    @property
    def n_segments(self) -> int:
        return max(1, len(self.segments))


def _scan_segment(path: Path, data: bytes) -> "tuple[list[dict], int, str]":
    """Scan one segment: ``(records, valid_bytes, torn_reason)``.

    Raises :class:`JournalCorruptionError` for a bad magic value or a
    damaged record that is provably not a tear (data follows it).
    """
    if len(data) >= len(_HEADER) and data[: len(_HEADER)] != _HEADER:
        raise JournalCorruptionError(
            f"{path}: bad journal header {data[:8]!r} "
            f"(expected {_HEADER!r})",
            offset=0, reason="bad-magic",
        )
    if len(data) < len(_HEADER):
        # Truncated inside the header: the whole file is a torn tail.
        return [], 0, "truncated header"
    offset = len(_HEADER)
    records: list[dict] = []
    while offset < len(data):
        if len(data) - offset < _PREFIX.size:
            return records, offset, "truncated record prefix"
        length, crc = _PREFIX.unpack_from(data, offset)
        end = offset + _PREFIX.size + length
        if end > len(data):
            return records, offset, "record extends past end of file"
        payload = data[offset + _PREFIX.size:end]
        bad = ""
        if zlib.crc32(payload) != crc:
            bad = "bad-crc"
        else:
            try:
                record = json.loads(payload)
                if not isinstance(record, dict) or "type" not in record:
                    bad = "bad-payload"
            except (ValueError, UnicodeDecodeError):
                bad = "bad-payload"
        if bad:
            if end == len(data):
                # Damaged final record: a torn write, not corruption.
                return records, offset, f"torn final record ({bad})"
            raise JournalCorruptionError(
                f"{path}: record at byte {offset} fails its "
                f"{'checksum' if bad == 'bad-crc' else 'decode'} with "
                f"{len(data) - end} byte(s) of journal after it — "
                "this is corruption, not a torn tail",
                offset=offset, reason=bad,
            )
        records.append(record)
        offset = end
    return records, offset, ""


def scan_journal(path: "str | os.PathLike", *, fs=None) -> JournalScan:
    """Read the journal chain at ``path``, tolerating a torn tail.

    Implements the torn-tail rule from the module docstring, extended to
    segment chains: only the last segment may end torn.  Raises
    :class:`JournalCorruptionError` for a bad header, a damaged record
    that is provably not a tear (data follows it), or a damaged non-final
    segment (rotation seals segments, so mid-chain damage cannot be a
    crash artifact).
    """
    fsh = resolve(fs)
    segments = journal_segments(path)
    if not segments:
        # Preserve the single-file error shape (FileNotFoundError).
        fsh.read_bytes(Path(path))
    records: list[dict] = []
    total_valid = 0
    total_bytes = 0
    tail_reason = ""
    tail_valid = 0
    for i, seg in enumerate(segments):
        data = fsh.read_bytes(seg)
        total_bytes += len(data)
        seg_records, valid, reason = _scan_segment(seg, data)
        if reason and i != len(segments) - 1:
            raise JournalCorruptionError(
                f"{seg}: segment {i} of {len(segments)} is damaged "
                f"({reason}) but a later segment exists — rotation seals "
                "segments, so this is corruption, not a torn tail",
                offset=valid, reason="mid-chain-tear",
            )
        records.extend(seg_records)
        total_valid += valid
        if i == len(segments) - 1:
            tail_reason = reason
            tail_valid = valid
    return JournalScan(
        tuple(records), total_valid, total_bytes, tail_reason,
        segments=tuple(str(s) for s in segments),
        tail_valid_bytes=tail_valid,
    )


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`RecoveryManager.recover` did, for reports and the CLI."""

    result: SimulationResult
    #: the step recovery resumed from (the last durable step).
    resumed_from_step: int
    #: step of the checkpoint snapshot the state was rebuilt on.
    checkpoint_step: int
    #: journaled flushes replayed on top of the checkpoint.
    replayed_flushes: int
    #: torn bytes the crash left (0 if the journal ended cleanly).
    torn_bytes: int
    torn_reason: str
    #: True when the journal holds an ``end`` record (nothing was lost).
    run_completed: bool


class RecoveryManager:
    """Scan, repair, and resume from an execution journal after a kill.

    Typical use (also what ``python -m repro recover`` does)::

        rm = RecoveryManager("run.journal")
        rm.repair()                        # drop the torn tail in place
        report = rm.recover(instance, reference_schedule)

    ``reference_schedule`` is the realized schedule of the uninterrupted
    run; with a deterministic executor it is re-derived by re-running the
    planner/executor with the journal's own ``meta`` configuration.  The
    recovered completion times are checked against an uninterrupted
    replay (:func:`repro.dam.validator.validate_recovery`), so the result
    is byte-identical or a typed error — never silently wrong.
    """

    def __init__(self, path: "str | os.PathLike") -> None:
        self.path = Path(path)
        self._scan: "JournalScan | None" = None

    def scan(self, *, refresh: bool = False) -> JournalScan:
        """Read the journal (cached; ``refresh=True`` to re-read)."""
        if self._scan is None or refresh:
            self._scan = scan_journal(self.path)
        return self._scan

    @property
    def meta(self) -> "dict | None":
        """The journal's ``meta`` record payload (None if it didn't survive)."""
        for rec in self.scan().records:
            if rec["type"] == REC_META:
                return {k: v for k, v in rec.items() if k != "type"}
        return None

    @property
    def run_completed(self) -> bool:
        """True iff the journal carries an ``end`` record."""
        return any(r["type"] == REC_END for r in self.scan().records)

    def repair(self) -> int:
        """Truncate the torn tail off the chain in place; returns bytes cut.

        A torn tail always lives in the last segment.  If that segment is
        a rotation successor holding no valid records (a crash during or
        just after rotation), the file is deleted outright so the chain
        ends at its sealed predecessor; otherwise it is truncated to its
        valid prefix.
        """
        scan = self.scan()
        if scan.torn_bytes:
            tail = Path(scan.segments[-1]) if scan.segments else self.path
            fsh = resolve(None)
            if (
                len(scan.segments) > 1
                and scan.tail_valid_bytes <= len(_HEADER)
            ):
                fsh.unlink(tail)
            else:
                with fsh.open(tail, "r+b") as f:
                    fsh.truncate(f, scan.tail_valid_bytes)
            self.scan(refresh=True)
        return scan.torn_bytes

    # ------------------------------------------------------------------
    def last_durable_step(self) -> int:
        """The newest step with evidence it fully executed (see module doc)."""
        records = self.scan().records
        completed = any(r["type"] == REC_END for r in records)
        max_cp = max((r["t"] for r in records
                      if r["type"] == REC_CHECKPOINT), default=-1)
        steps = sorted({r["t"] for r in records if r["type"] == REC_FLUSH})
        if not steps:
            return max(max_cp, 0)
        last = steps[-1]
        if completed or max_cp >= last:
            return max(last, max_cp)
        # No evidence step `last` finished: it is not durable.
        durable = steps[-2] if len(steps) >= 2 else 0
        return max(durable, max_cp, 0)

    def recovered_checkpoint(self, instance: WORMSInstance) -> CheckpointRecord:
        """Rebuild the machine state at the last durable step.

        Starts from the newest journaled checkpoint (or the instance's
        initial state if none survived), then applies every durable
        journaled flush after it.  Raises
        :class:`JournalCorruptionError` if no records survived or the
        journal belongs to a different instance.
        """
        return self._recover_state(instance)[0]

    def _recover_state(
        self, instance: WORMSInstance
    ) -> "tuple[CheckpointRecord, int]":
        """(state at last durable step, step of the snapshot it grew from)."""
        records = self.scan().records
        if not records:
            raise JournalCorruptionError(
                f"{self.path}: no usable records survived (journal "
                f"truncated to {self.scan().file_bytes} byte(s))",
                reason="no-records",
            )
        n = instance.n_messages
        meta = self.meta
        if meta is not None and meta.get("n_messages", n) != n:
            raise JournalCorruptionError(
                f"{self.path}: journal is for "
                f"{meta['n_messages']} messages, instance has {n}",
                reason="instance-mismatch",
            )
        base: "CheckpointRecord | None" = None
        for rec in records:
            if rec["type"] == REC_CHECKPOINT and (
                base is None or rec["t"] > base.step
            ):
                if len(rec["locations"]) != n or len(rec["completions"]) != n:
                    raise JournalCorruptionError(
                        f"{self.path}: checkpoint at step {rec['t']} has "
                        f"{len(rec['locations'])} message slots, instance "
                        f"has {n}",
                        reason="instance-mismatch",
                    )
                base = CheckpointRecord(
                    int(rec["t"]),
                    tuple(int(v) for v in rec["locations"]),
                    tuple(int(v) for v in rec["completions"]),
                )
        if base is None:
            location, completion = _initial_state(instance)
            base = CheckpointRecord(0, tuple(location), tuple(completion))
        durable = self.last_durable_step()
        if durable <= base.step:
            return base, base.step
        location = list(base.locations)
        completion = list(base.completions)
        targets = instance.targets
        by_step: dict[int, list[Flush]] = {}
        for rec in records:
            if rec["type"] == REC_FLUSH and base.step < rec["t"] <= durable:
                by_step.setdefault(int(rec["t"]), []).append(
                    Flush(int(rec["src"]), int(rec["dest"]),
                          tuple(int(m) for m in rec["msgs"]))
                )
        for t in sorted(by_step):
            _apply_step(t, by_step[t], location, completion, targets)
        state = CheckpointRecord(durable, tuple(location), tuple(completion))
        return state, base.step

    def _check_prefix(self, schedule: FlushSchedule, durable: int) -> int:
        """Verify durable journaled flushes appear in ``schedule``'s prefix."""
        replayed = 0
        for rec in self.scan().records:
            if rec["type"] != REC_FLUSH or rec["t"] > durable:
                continue
            f = Flush(int(rec["src"]), int(rec["dest"]),
                      tuple(int(m) for m in rec["msgs"]))
            if f not in schedule.flushes_at(int(rec["t"])):
                raise JournalCorruptionError(
                    f"{self.path}: journaled flush {f!r} at step "
                    f"{rec['t']} is not in the reference schedule — the "
                    "journal belongs to a different run",
                    reason="schedule-mismatch",
                )
            replayed += 1
        return replayed

    def recover(
        self, instance: WORMSInstance, schedule: FlushSchedule, *,
        repair: bool = True,
    ) -> RecoveryReport:
        """Full recovery: repair the tail, restore state, resume, validate.

        Resumes ``schedule`` from the reconstructed state via
        :func:`repro.dam.trace.resume_simulation` and asserts the result
        matches an uninterrupted replay exactly
        (:func:`~repro.dam.validator.validate_recovery`).  Returns a
        :class:`RecoveryReport`; raises a typed error on any damage the
        torn-tail rule cannot absorb.
        """
        from repro.dam.validator import validate_recovery

        obs = current_obs()
        with obs.tracer.span(
            "journal.recover", category="journal", path=str(self.path)
        ) as span:
            t0 = obs.profiler.clock() if obs.enabled else 0.0
            scan = self.scan()
            torn_bytes, torn_reason = scan.torn_bytes, scan.torn_reason
            if repair:
                self.repair()
            cp, base_step = self._recover_state(instance)
            replayed = self._check_prefix(schedule, cp.step)
            result = validate_recovery(instance, schedule, cp)
            if obs.enabled:
                obs.profiler.add(
                    PHASE_RECOVER, obs.profiler.clock() - t0
                )
                span.set("resumed_from_step", cp.step)
                span.set("replayed_flushes", replayed)
                span.set("torn_bytes", torn_bytes)
                obs.metrics.counter(
                    "journal_recoveries_total", "successful recoveries"
                ).inc()
                obs.metrics.counter(
                    "journal_replayed_flushes_total",
                    "journaled flushes replayed during recovery",
                ).inc(replayed)
                obs.metrics.counter(
                    "journal_torn_bytes_total",
                    "torn tail bytes discarded by repair",
                ).inc(torn_bytes)
        return RecoveryReport(
            result=result,
            resumed_from_step=cp.step,
            checkpoint_step=base_step,
            replayed_flushes=replayed,
            torn_bytes=torn_bytes,
            torn_reason=torn_reason,
            run_completed=self.run_completed,
        )
