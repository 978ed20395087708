"""Crash-consistent execution journal for schedule execution.

A journal is a segmented, append-only file that makes an executor run
durable: if the process is killed mid-run — a real ``kill -9``, not a
simulated one — the journal holds everything needed to reconstruct the
machine state at the last durable step and resume, with completion times
byte-identical to an uninterrupted run.

**File layout.**  An 8-byte header (``b"WOJ3"`` magic + little-endian
``u32`` version 3) followed by records.  Each record is::

    u32 payload length | u32 CRC-32 of payload | payload

The payload is a kind byte and a body (:mod:`repro.dam.records`):
checkpoints (and a WAL's puts and deletes) are packed integers,
``meta`` and the rare kinds one JSON object each.  A file of an older
format (``WOJ1``, JSON payloads; ``WOJ2``, one record per realized
flush) is refused with a typed ``bad-version`` error; no reader of
either is kept.

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

A journal holds what recovery reads, each record scanned back as a
dict with a ``"type"`` key:

* ``meta`` — run configuration written once at open (instance shape,
  executor options, anything the writer wants to persist);
* ``checkpoint`` — the durability mark at the end of a step: per shard,
  the number of flushes its realized
  :class:`~repro.dam.schedule.FlushLog` holds through the step and an
  8-byte digest of them (:class:`~repro.dam.schedule.LogDigest`); a
  batch run's also carries its full
  :class:`~repro.dam.trace.CheckpointRecord` snapshot (message
  locations + completion steps), a serving run's its ``arrived`` and
  ``completed`` counts;
* ``driver`` — the serving driver of a run whose meta names none;
* ``end`` — the run completed; nothing to recover.

A realized schedule is a pure function of the run's configuration, so
no flush is journaled: recovery re-derives the run and compares its
digests with the journal's.

**Torn-tail rule.**  A crash can leave a partially written final record.
On scan, a record that *extends past the end of the file*, or whose
checksum or payload fails *at the physical tail*, is a torn tail: it is
discarded (and :meth:`RecoveryManager.repair` truncates it away) and the
valid prefix is used.  A record that fails its checksum with more data
*after* it cannot be a tear — appends never leave holes — so that is
:class:`~repro.util.errors.JournalCorruptionError`.  The net guarantee:
recovery either reproduces the uninterrupted run exactly or raises a
typed error; it never returns a wrong answer.

**Durable-step rule.**  The durable step is the newest checkpoint's (0
before the first): a checkpoint is appended and flushed after its
step's work, and a run's ``end`` follows a checkpoint at its last step.

**Durable-prefix rule.**  The newest checkpoint's per-shard flush
counts and digests must equal those of the reference run's realized
logs through its step, or the journal belongs to a different run (a
typed ``schedule-mismatch``).  :class:`RecoveryFold` holds the one copy
of both rules; batch and serve recovery call it, and a live shard
restart reads its own sealing checkpoint back (:func:`read_record`).
"""

from __future__ import annotations

import os
import struct
import zlib
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

from repro.core.worms import WORMSInstance
from repro.dam.records import (
    REC_CHECKPOINT,
    REC_END,
    REC_META,
    decode,
)
from repro.dam.schedule import FlushLog, FlushSchedule, log_digest
from repro.dam.simulator import SimulationResult
from repro.dam.trace import CheckpointRecord, _initial_state
from repro.obs.hooks import current_obs
from repro.obs.profile import PHASE_JOURNAL, PHASE_RECOVER
from repro.util.compact_json import compact_json
from repro.util.errors import InvalidInstanceError, JournalCorruptionError
from repro.util.fsio import resolve

MAGIC = b"WOJ3"
VERSION = 3
_HEADER = MAGIC + struct.pack("<I", VERSION)
#: The headers of the retired versions: ``WOJ1`` (JSON payloads) and
#: ``WOJ2`` (a record per realized flush and fault).
_RETIRED = tuple(b"WOJ%d" % v + struct.pack("<I", v) for v in (1, 2))
_PREFIX = struct.Struct("<II")  # payload length, CRC-32

#: The serving driver of a run whose ``meta`` names none (a JSON record
#: besides the codec's kinds), journaled once at its first breaker trip:
#: before it, the run is the unsupervised loop's byte for byte; after
#: it, recovery must re-derive under the named driver.
REC_DRIVER = "driver"


#: Smallest permitted rotation threshold: a header plus a tiny record.
MIN_SEGMENT_BYTES = 64


def frame(payload: bytes) -> bytes:
    """One record's on-disk bytes: ``length | crc | payload``."""
    return _PREFIX.pack(len(payload), zlib.crc32(payload)) + payload


def encode_record(record: dict) -> bytes:
    """One record's on-disk bytes, its payload one JSON object."""
    return frame(compact_json(record))


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


def driver_record(t: int, driver: dict) -> dict:
    """The journal record naming a serving run's driver at step ``t``
    (``driver`` is the same payload as a journal meta's ``"driver"``)."""
    return {"type": REC_DRIVER, "t": int(t), "driver": dict(driver)}


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
    delay but never lose a record.)  :meth:`read_last` reads the newest
    record back.
    """

    def __init__(self, path: "str | os.PathLike", *,
                 meta: "dict | None" = None, sync: bool = False,
                 max_segment_bytes: "int | None" = None,
                 fs=None) -> None:
        if max_segment_bytes is not None and (
            max_segment_bytes < MIN_SEGMENT_BYTES
        ):
            raise InvalidInstanceError(
                f"max_segment_bytes must be >= {MIN_SEGMENT_BYTES}, "
                f"got {max_segment_bytes}"
            )
        self.path = Path(path)
        self.sync = bool(sync)
        self.max_segment_bytes = max_segment_bytes
        self._segment_index = 0
        # Offset of the newest record in the current segment: rotation
        # happens before a record is written, so the newest record is
        # always in the current segment.
        self._last_offset = -1
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

    def append(self, record: "dict | bytes", kind: str = "") -> None:
        """Buffer one record (see :meth:`flush` for durability).

        ``record`` is a dict, written as one JSON payload (``meta`` and
        the rare kinds), or a payload a :mod:`repro.dam.records` packer
        built, whose record type is ``kind``.
        """
        if isinstance(record, dict):
            kind = record.get("type", "?")
            blob = encode_record(record)
        else:
            blob = frame(record)
        if (
            self.max_segment_bytes is not None
            and self._segment_bytes > len(_HEADER)
            and self._segment_bytes + len(blob) > self.max_segment_bytes
        ):
            self._rotate()
        resolve(self._fs).write(self._f, blob)
        self._last_offset = self._segment_bytes
        self._segment_bytes += len(blob)
        if self._metrics is not None:
            records = self._metrics.counter(
                "journal_records_total", "journal records appended"
            )
            records.inc()
            records.labels(type=kind).inc()
            self._metrics.counter(
                "journal_bytes_total", "journal bytes appended"
            ).inc(len(blob))

    def read_last(self) -> dict:
        """The newest record, read back from disk (call :meth:`flush`
        first; :func:`read_record`)."""
        return read_record(segment_path(self.path, self._segment_index),
                           self._last_offset, fs=self._fs)

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
        """Close *without* an fsync; the tail may land torn.

        Closing the buffered file still hands what :meth:`append`
        buffered to the OS (no fsync follows): a KV store committing a
        group relies on it, since its fail-stop re-open replays those
        records.  For fail-stop callers discarding a poisoned generation
        after an I/O fault: an fsync that failed must never be retried
        (the page cache may have silently dropped the dirty pages), so
        the only safe exit is to release the handle and let recovery
        replay the durable prefix.  Safe to call twice.
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

    #: the valid records, decoded (empty when a ``sink`` took them).
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
    #: chain offset just past each record (segment headers included), so
    #: a cut at byte ``b`` keeps exactly the records ending at or before
    #: it: every cut inside a record leaves it torn.  (An int64 array:
    #: one machine word per record.)
    ends: "array[int] | tuple[int, ...]" = ()

    @property
    def torn_bytes(self) -> int:
        """Bytes of torn tail a crash left behind (0 for a clean chain)."""
        return self.file_bytes - self.valid_bytes

    @property
    def n_segments(self) -> int:
        return max(1, len(self.segments))


def _scan_segment(
    path: Path, data: bytes, add
) -> "tuple[array[int], int, str]":
    """Scan one segment: ``(ends, valid_bytes, torn_reason)``.

    Each valid record is passed to ``add`` in order; ``ends[i]`` is the
    segment offset just past the ``i``-th.  Raises
    :class:`JournalCorruptionError` for the header of a retired version
    of the format (``bad-version``), any other wrong header (``bad-magic``)
    or a damaged record that is provably not a tear (data follows it).
    """
    header = data[: len(_HEADER)]
    if len(header) == len(_HEADER) and header != _HEADER:
        if header in _RETIRED:
            raise JournalCorruptionError(
                f"{path}: journal format {header[:4]!r} is no longer "
                f"read; this build reads {MAGIC.decode()} version {VERSION}",
                offset=0, reason="bad-version",
            )
        raise JournalCorruptionError(
            f"{path}: bad journal header {header!r} "
            f"(expected {_HEADER!r})",
            offset=0, reason="bad-magic",
        )
    if len(data) < len(_HEADER):
        # Truncated inside the header: the whole file is a torn tail.
        return array("q"), 0, "truncated header"
    offset = len(_HEADER)
    ends = array("q")
    while offset < len(data):
        if len(data) - offset < _PREFIX.size:
            return ends, offset, "truncated record prefix"
        length, crc = _PREFIX.unpack_from(data, offset)
        end = offset + _PREFIX.size + length
        if end > len(data):
            return ends, offset, "record extends past end of file"
        payload = data[offset + _PREFIX.size:end]
        bad = ""
        if zlib.crc32(payload) != crc:
            bad = "bad-crc"
        else:
            try:
                record = decode(payload)
            except (ValueError, struct.error):
                bad = "bad-payload"
        if bad:
            if end == len(data):
                # Damaged final record: a torn write, not corruption.
                return ends, offset, f"torn final record ({bad})"
            raise JournalCorruptionError(
                f"{path}: record at byte {offset} fails its "
                f"{'checksum' if bad == 'bad-crc' else 'decode'} with "
                f"{len(data) - end} byte(s) of journal after it — "
                "this is corruption, not a torn tail",
                offset=offset, reason=bad,
            )
        add(record)
        ends.append(end)
        offset = end
    return ends, offset, ""


def scan_journal(path: "str | os.PathLike", *, fs=None,
                 sink=None) -> JournalScan:
    """Read the journal chain at ``path`` in one pass, tolerating a torn tail.

    Implements the torn-tail rule from the module docstring, extended to
    segment chains: only the last segment may end torn.  Raises
    :class:`JournalCorruptionError` for a bad header, a damaged record
    that is provably not a tear (data follows it), or a damaged non-final
    segment (rotation seals segments, so mid-chain damage cannot be a
    crash artifact).  The scan records where each record ends
    (:attr:`JournalScan.ends`), which fixes the scan of every truncated
    prefix of the chain without reading it again.

    With ``sink``, each valid record is passed to it as it is decoded
    and not kept: the scan's ``records`` are empty, so a caller that
    folds them (:class:`RecoveryManager`) never holds them all.
    """
    fsh = resolve(fs)
    segments = journal_segments(path)
    if not segments:
        # Preserve the single-file error shape (FileNotFoundError).
        fsh.read_bytes(Path(path))
    records: list[dict] = []
    add = records.append if sink is None else sink
    ends = array("q")
    total_valid = 0
    total_bytes = 0
    tail_reason = ""
    tail_valid = 0
    for i, seg in enumerate(segments):
        data = fsh.read_bytes(seg)
        seg_ends, valid, reason = _scan_segment(seg, data, add)
        if reason and i != len(segments) - 1:
            raise JournalCorruptionError(
                f"{seg}: segment {i} of {len(segments)} is damaged "
                f"({reason}) but a later segment exists — rotation seals "
                "segments, so this is corruption, not a torn tail",
                offset=valid, reason="mid-chain-tear",
            )
        ends.extend(total_bytes + end for end in seg_ends)
        total_bytes += len(data)
        total_valid += valid
        if i == len(segments) - 1:
            tail_reason = reason
            tail_valid = valid
    return JournalScan(
        tuple(records), total_valid, total_bytes, tail_reason,
        segments=tuple(str(s) for s in segments),
        tail_valid_bytes=tail_valid,
        ends=ends,
    )


def read_record(path: "str | os.PathLike", offset: int, *,
                fs=None) -> dict:
    """The one record framed at byte ``offset`` of the segment file
    ``path``, read back from disk without scanning what precedes it.

    Raises :class:`JournalCorruptionError` (``bad-crc`` or
    ``bad-payload``) when the bytes there are not a whole record.
    """
    fsh = resolve(fs)
    with fsh.open(path, "rb") as f:
        f.seek(offset)
        prefix = fsh.read(f, _PREFIX.size)
        whole = len(prefix) == _PREFIX.size
        if whole:
            length, crc = _PREFIX.unpack(prefix)
            payload = fsh.read(f, length)
            whole = len(payload) == length and zlib.crc32(payload) == crc
    if not whole:
        raise JournalCorruptionError(
            f"{path}: no whole record at byte {offset}",
            offset=offset, reason="bad-crc",
        )
    try:
        return decode(payload)
    except (ValueError, struct.error) as exc:
        raise JournalCorruptionError(
            f"{path}: record at byte {offset} does not decode ({exc})",
            offset=offset, reason="bad-payload",
        ) from exc


def check_digests(checkpoint: dict,
                  logs: "Mapping[int, FlushLog] | list[FlushLog]",
                  source: str = "journal", *,
                  shard: "int | None" = None) -> int:
    """The durable-prefix rule at one checkpoint: each shard's journaled
    flush count and digest equal those of ``logs[shard]`` (its realized
    reference log) through the checkpoint's step.

    ``shard`` restricts the check to one shard.  Returns the number of
    flushes the checked digests cover; raises
    :class:`JournalCorruptionError` (``schedule-mismatch``) naming the
    first shard that differs — the journal belongs to a different run.
    """
    t = int(checkpoint["t"])
    flushes, digests = checkpoint["flushes"], checkpoint["digests"]
    if len(flushes) != len(logs):
        raise JournalCorruptionError(
            f"{source}: checkpoint at step {t} digests {len(flushes)} "
            f"shard(s), the reference run has {len(logs)} — the journal "
            "belongs to a different run",
            reason="schedule-mismatch",
        )
    covered = 0
    for sid, (n, digest) in enumerate(zip(flushes, digests)):
        if shard is not None and sid != shard:
            continue
        m, ref = log_digest(logs[sid], t)
        if (n, digest) != (m, ref.hex()):
            raise JournalCorruptionError(
                f"{source}: shard {sid}'s realized log through step {t} "
                f"is {m} flushes with digest {ref.hex()}, the journal's "
                f"checkpoint says {n} with {digest} — the journal belongs "
                "to a different run",
                reason="schedule-mismatch",
            )
        covered += n
    return covered


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`RecoveryManager.recover` did, for reports and the CLI."""

    result: SimulationResult
    #: the step recovery resumed from (the last durable step).
    resumed_from_step: int
    #: step of the checkpoint snapshot the state was rebuilt on (the
    #: same step: recovery resumes from the newest checkpoint).
    checkpoint_step: int
    #: flushes the checked checkpoint digest covers (the realized
    #: schedule through the durable step).
    replayed_flushes: int
    #: torn bytes the crash left (0 if the journal ended cleanly).
    torn_bytes: int
    torn_reason: str
    #: True when the journal holds an ``end`` record (nothing was lost).
    run_completed: bool


class RecoveryFold:
    """Recovery state of a journal prefix, folded one record at a time.

    The one implementation of the durable-step and durable-prefix rules.
    :class:`RecoveryManager` folds a whole scan; a sweep that feeds the
    records of one scan one at a time holds, after record ``k``, exactly
    the recovery of the journal truncated anywhere inside record
    ``k + 1`` (the torn-tail rule keeps whole records only), so every
    byte offset of a journal needs one fold, not one re-read per offset.
    ``source`` names the journal in error messages.
    """

    def __init__(self, source: str = "journal") -> None:
        self.source = source
        self.n_records = 0
        #: the first ``meta`` record's payload (None until one is folded).
        self.meta: "dict | None" = None
        #: the first ``driver`` record's driver payload, if any.
        self.driver: "dict | None" = None
        #: True once an ``end`` record is folded.
        self.completed = False
        #: the newest checkpoint record (the first one at its step).
        self.checkpoint: "dict | None" = None

    @classmethod
    def of(cls, records, source: str = "journal") -> "RecoveryFold":
        """The fold of ``records`` run to the end."""
        fold = cls(source)
        for record in records:
            fold.add(record)
        return fold

    def add(self, record: dict) -> None:
        """Fold one scanned record in (records arrive in journal order)."""
        kind = record["type"]
        if kind == REC_CHECKPOINT:
            if self.checkpoint is None or record["t"] > self.checkpoint["t"]:
                self.checkpoint = record
        elif kind == REC_META:
            if self.meta is None:
                self.meta = {k: v for k, v in record.items() if k != "type"}
        elif kind == REC_DRIVER:
            if self.driver is None:
                self.driver = record["driver"]
        elif kind == REC_END:
            self.completed = True
        self.n_records += 1

    def last_durable_step(self) -> int:
        """The newest checkpoint's step, 0 before the first (see module
        doc)."""
        return 0 if self.checkpoint is None else int(self.checkpoint["t"])

    def check_prefix(self, logs: "Mapping[int, FlushLog]") -> int:
        """The durable-prefix rule at the newest checkpoint
        (:func:`check_digests`; 0 before the first checkpoint)."""
        if self.checkpoint is None:
            return 0
        return check_digests(self.checkpoint, logs, self.source)

    def state(self, instance: WORMSInstance) -> CheckpointRecord:
        """The state at the last durable step: the newest checkpoint's
        snapshot (or the instance's initial state)."""
        if not self.n_records:
            raise JournalCorruptionError(
                f"{self.source}: no usable records survived",
                reason="no-records",
            )
        n = instance.n_messages
        meta = self.meta
        if meta is not None and meta.get("n_messages", n) != n:
            raise JournalCorruptionError(
                f"{self.source}: journal is for "
                f"{meta['n_messages']} messages, instance has {n}",
                reason="instance-mismatch",
            )
        cp = self.checkpoint
        if cp is None:
            location, completion = _initial_state(instance)
            return CheckpointRecord(0, tuple(location), tuple(completion))
        if len(cp["locations"]) != n or len(cp["completions"]) != n:
            raise JournalCorruptionError(
                f"{self.source}: checkpoint at step {cp['t']} has "
                f"{len(cp['locations'])} message slots, instance has {n}",
                reason="instance-mismatch",
            )
        return CheckpointRecord(
            int(cp["t"]),
            tuple(int(v) for v in cp["locations"]),
            tuple(int(v) for v in cp["completions"]),
        )

    def recover(
        self, instance: WORMSInstance, schedule: FlushSchedule, *,
        torn_bytes: int = 0, torn_reason: str = "",
    ) -> RecoveryReport:
        """Restore the state, check the durable prefix against
        ``schedule``, resume and validate (see
        :meth:`RecoveryManager.recover`)."""
        from repro.dam.validator import validate_recovery

        cp = self.state(instance)
        reference = FlushLog()
        for t, f in schedule.iter_timed():
            reference.append(t, f.src, f.dest, f.messages)
        replayed = self.check_prefix({0: reference})
        result = validate_recovery(instance, schedule, cp)
        return RecoveryReport(
            result=result,
            resumed_from_step=cp.step,
            checkpoint_step=cp.step,
            replayed_flushes=replayed,
            torn_bytes=torn_bytes,
            torn_reason=torn_reason,
            run_completed=self.completed,
        )


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
        self._fold: "RecoveryFold | None" = None

    def scan(self, *, refresh: bool = False) -> JournalScan:
        """Read and fold the journal (cached; ``refresh=True`` to re-read).

        The returned scan holds the chain's framing (valid and torn
        bytes, segments, record ends) but no ``records``: each is folded
        (:meth:`fold`) as it is decoded, so the manager never holds a
        dict per record.
        """
        if self._scan is None or refresh:
            fold = RecoveryFold(str(self.path))
            self._scan = scan_journal(self.path, sink=fold.add)
            self._fold = fold
        return self._scan

    def fold(self) -> RecoveryFold:
        """The :class:`RecoveryFold` of the current scan, run to the end."""
        self.scan()
        return self._fold

    @property
    def meta(self) -> "dict | None":
        """The journal's ``meta`` record payload (None if it didn't survive)."""
        return self.fold().meta

    @property
    def run_completed(self) -> bool:
        """True iff the journal carries an ``end`` record."""
        return self.fold().completed

    def repair(self) -> int:
        """Truncate the torn tail off the chain in place; returns bytes cut.

        A torn tail always lives in the last segment.  If that segment is
        a rotation successor holding no valid records (a crash during or
        just after rotation), the file is deleted outright so the chain
        ends at its sealed predecessor; otherwise it is truncated to its
        valid prefix.

        The chain is not read again: the cut bytes held no valid record,
        so the fold stands and the cached scan is updated to the chain as
        it now is on disk.
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
                segments = scan.segments[:-1]
                valid = scan.valid_bytes - scan.tail_valid_bytes
                self._scan = replace(
                    scan, valid_bytes=valid, file_bytes=valid,
                    torn_reason="", segments=segments,
                    tail_valid_bytes=Path(segments[-1]).stat().st_size,
                )
            else:
                with fsh.open(tail, "r+b") as f:
                    fsh.truncate(f, scan.tail_valid_bytes)
                self._scan = replace(
                    scan, file_bytes=scan.valid_bytes,
                    # A file cut inside its header still reads as one.
                    torn_reason=(
                        "truncated header"
                        if scan.tail_valid_bytes < len(_HEADER) else ""
                    ),
                )
        return scan.torn_bytes

    def last_durable_step(self) -> int:
        """The newest step with evidence it fully executed (see module doc)."""
        return self.fold().last_durable_step()

    def recover(
        self, instance: WORMSInstance, schedule: FlushSchedule, *,
        repair: bool = True,
    ) -> RecoveryReport:
        """Full recovery: repair the tail, restore state, resume, validate.

        Folds the whole journal (:class:`RecoveryFold`), checks the
        newest checkpoint's digest against ``schedule``, resumes it from
        that checkpoint's snapshot via
        :func:`repro.dam.trace.resume_simulation` and asserts the result
        matches an uninterrupted replay exactly
        (:func:`~repro.dam.validator.validate_recovery`).  Returns a
        :class:`RecoveryReport`; raises a typed error on any damage the
        torn-tail rule cannot absorb.
        """
        obs = current_obs()
        with obs.tracer.span(
            "journal.recover", category="journal", path=str(self.path)
        ) as span:
            t0 = obs.profiler.clock() if obs.enabled else 0.0
            scan = self.scan()
            if repair:
                self.repair()
            report = self.fold().recover(
                instance, schedule,
                torn_bytes=scan.torn_bytes, torn_reason=scan.torn_reason,
            )
            if obs.enabled:
                obs.profiler.add(
                    PHASE_RECOVER, obs.profiler.clock() - t0
                )
                span.set("resumed_from_step", report.resumed_from_step)
                span.set("replayed_flushes", report.replayed_flushes)
                span.set("torn_bytes", report.torn_bytes)
                obs.metrics.counter(
                    "journal_recoveries_total", "successful recoveries"
                ).inc()
                obs.metrics.counter(
                    "journal_replayed_flushes_total",
                    "realized flushes a recovery's checkpoint digest covered",
                ).inc(report.replayed_flushes)
                obs.metrics.counter(
                    "journal_torn_bytes_total",
                    "torn tail bytes discarded by repair",
                ).inc(report.torn_bytes)
        return report
