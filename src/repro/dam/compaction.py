"""Journal compaction: drop sealed records a later checkpoint supersedes.

A long-lived rotating journal (:class:`~repro.dam.journal.JournalWriter`
with ``max_segment_bytes``) accumulates flush and fault records that
recovery will never read again: :meth:`RecoveryFold.state`
rebuilds state from the *newest* checkpoint and replays only flushes
strictly after it.  Once a checkpoint at step ``C`` exists, every flush
or fault record with ``t <= C`` is dead weight — kept bytes that cost
scan time and disk but can never influence recovery.

:func:`compact_journal` reclaims them, under three safety rules that
keep recovery **exactly** what it was (pinned by the every-offset kill
sweep in ``tests/dam/test_compaction.py``):

* **Only sealed segments are touched.**  A segment is *sealed* when a
  later segment exists: rotation flushes and closes a segment before
  opening its successor, so sealed segments can never end torn and are
  never appended to again.  The active tail segment — the only place a
  crash can tear — is left byte-for-byte alone, so compaction commutes
  with :meth:`RecoveryManager.repair`.
* **The supersession bar comes from sealed evidence only.**  The cutoff
  ``C`` is the newest checkpoint step *within the sealed segments*.
  Recovery's base checkpoint is the newest in the whole chain, hence
  ``>= C`` whatever the (possibly torn) tail holds, so a dropped flush
  (``t <= C``) could never have been replayed and a dropped checkpoint
  (``t < C``) could never have been the base.  The ``meta`` record and
  the bar checkpoint itself always survive.
* **Rewrites are atomic.**  Each compacted segment is rewritten through
  :func:`repro.util.atomic.atomic_write_bytes` (tmp + fsync + rename),
  so a crash mid-compaction leaves either the old or the new bytes —
  both valid journals.  Segments left empty keep their header so
  :func:`~repro.dam.journal.journal_segments` chain enumeration (which
  stops at the first gap) still sees an unbroken chain.

``python -m repro compact <journal>`` exposes this on the CLI.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.dam.journal import (
    REC_CHECKPOINT,
    REC_FAULT,
    REC_FLUSH,
    _HEADER,
    _scan_segment,
    journal_segments,
)
from repro.obs.hooks import current_obs
from repro.util.atomic import atomic_write_bytes
from repro.util.errors import JournalCorruptionError


@dataclass(frozen=True)
class CompactionReport:
    """What :func:`compact_journal` did."""

    #: segment files whose bytes were rewritten.
    segments_compacted: int
    #: segments in the chain (sealed + active tail).
    segments_total: int
    #: the supersession bar: newest checkpoint step in sealed segments
    #: (-1 when no sealed checkpoint existed and nothing could be dropped).
    checkpoint_step: int
    #: dropped record counts by type (flush / fault / checkpoint).
    dropped: "dict[str, int]" = field(default_factory=dict)
    bytes_before: int = 0
    bytes_after: int = 0

    @property
    def records_dropped(self) -> int:
        """Total records removed."""
        return sum(self.dropped.values())

    @property
    def bytes_reclaimed(self) -> int:
        """Disk bytes returned by this compaction."""
        return self.bytes_before - self.bytes_after


def compact_journal(path: "str | os.PathLike") -> CompactionReport:
    """Compact the sealed segments of the journal chain at ``path``.

    Returns a :class:`CompactionReport` (a no-op report when the journal
    has fewer than two segments or no sealed checkpoint).  Raises
    :class:`~repro.util.errors.JournalCorruptionError` if a sealed
    segment is damaged — rotation seals segments, so mid-chain damage is
    corruption, exactly as in :func:`~repro.dam.journal.scan_journal`.
    """
    segments = journal_segments(path)
    if not segments:
        # Preserve the single-file error shape (FileNotFoundError).
        Path(path).read_bytes()
    obs = current_obs()
    with obs.tracer.span(
        "journal.compact", category="journal", path=str(path)
    ) as span:
        report = _compact(path, segments)
        if obs.enabled:
            span.set("segments_compacted", report.segments_compacted)
            span.set("records_dropped", report.records_dropped)
            span.set("bytes_reclaimed", report.bytes_reclaimed)
            metrics = obs.metrics
            metrics.counter(
                "journal_compactions_total", "compact_journal() invocations"
            ).inc()
            dropped = metrics.counter(
                "journal_compaction_dropped_total",
                "records removed by compaction",
            )
            for kind, n in sorted(report.dropped.items()):
                dropped.inc(n)
                dropped.labels(type=kind).inc(n)
            metrics.counter(
                "journal_compaction_bytes_reclaimed_total",
                "journal bytes reclaimed by compaction",
            ).inc(report.bytes_reclaimed)
    return report


def _compact(path, segments: "list[Path]") -> CompactionReport:
    sealed = segments[:-1]
    if not sealed:
        return CompactionReport(0, len(segments), -1)
    per_segment: "list[tuple[Path, bytes, list[dict], array[int]]]" = []
    for i, seg in enumerate(sealed):
        data = seg.read_bytes()
        records: "list[dict]" = []
        ends, valid, reason = _scan_segment(seg, data, records.append)
        if reason:
            raise JournalCorruptionError(
                f"{seg}: sealed segment {i} of {len(segments)} is damaged "
                f"({reason}) — rotation seals segments, so this is "
                "corruption, not a torn tail",
                offset=valid, reason="mid-chain-tear",
            )
        per_segment.append((seg, data, records, ends))
    bar = max(
        (
            int(rec["t"])
            for _seg, _data, records, _ends in per_segment
            for rec in records
            if rec["type"] == REC_CHECKPOINT
        ),
        default=-1,
    )
    if bar < 0:
        return CompactionReport(0, len(segments), -1)
    dropped: "dict[str, int]" = {}
    compacted = 0
    bytes_before = 0
    bytes_after = 0
    for seg, data, records, ends in per_segment:
        bytes_before += len(data)
        # Kept records are copied as they are framed on disk.
        kept: "list[bytes]" = [_HEADER]
        changed = False
        for rec, start, end in zip(records, [len(_HEADER), *ends], ends):
            kind = rec["type"]
            if (
                (kind in (REC_FLUSH, REC_FAULT) and int(rec["t"]) <= bar)
                or (kind == REC_CHECKPOINT and int(rec["t"]) < bar)
            ):
                dropped[kind] = dropped.get(kind, 0) + 1
                changed = True
                continue
            kept.append(data[start:end])
        if not changed:
            bytes_after += len(data)
            continue
        atomic_write_bytes(seg, b"".join(kept))
        bytes_after += seg.stat().st_size
        compacted += 1
    return CompactionReport(
        compacted, len(segments), bar,
        dropped=dropped,
        bytes_before=bytes_before,
        bytes_after=bytes_after,
    )
