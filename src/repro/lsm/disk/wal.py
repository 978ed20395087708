"""Write-ahead log for the on-disk KV engine.

A WAL generation *is* a ``WOJ3`` journal — same 8-byte header, same
``u32 length | u32 CRC-32 | payload`` record framing, written through
the very :class:`~repro.dam.journal.JournalWriter` the execution
journals use — so every journal property (torn-tail tolerance,
kill-at-every-offset exactness, typed corruption errors, the typed
``bad-version`` refusal of a ``WOJ1`` or ``WOJ2`` file) is inherited
rather than re-proven.

**Records.**  The ``meta`` record is JSON; each operation is packed
(:mod:`repro.dam.records`): a kind byte, the ``i64`` sequence number,
then the key — raw UTF-8 for a ``str`` key, compact JSON for any other —
and, for a put, the value as compact JSON.  Replay reads them back as
``{"type": "put", "seq", "key", "value"}`` and
``{"type": "del", "seq", "key"}`` (a tuple key or value reads back as a
list, as JSON has it).

**Generations instead of segments.**  Where a serving journal rotates by
size, the WAL rotates at *memtable flushes*: generation ``g`` holds
exactly the operations that arrived while memtable ``g`` was filling.
Files are named ``wal-<g>.log``.  A flush seals the current generation,
opens ``g+1``, and then commits a manifest pointing at ``g+1`` — after
which every record in generations ``< g+1`` is redundant with SSTable
bytes and the files are garbage.  (:class:`~repro.lsm.disk.kvstore
.KVStore` deletes them on the next open; a crash between commit and
deletion is therefore invisible.)

**Recovery rules.**  Replay reads generations ``>= manifest.wal_gen`` in
order and applies records with ``seq > manifest.last_flushed_seq``:

* only the **newest** generation may end torn (the crash signature);
  a tear in any earlier generation is corruption, because a generation
  is flushed and closed before its successor opens — the same sealing
  argument as journal segment chains;
* applied sequence numbers must be **contiguous** from
  ``last_flushed_seq + 1``: operations are assigned consecutive
  sequence numbers at the door, so a gap is evidence of a silently
  lost record and raises a typed
  :class:`~repro.util.errors.StorageCorruptionError` — never a silently
  smaller store.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from repro.dam.journal import JournalWriter, scan_journal
from repro.dam.records import REC_DEL, REC_META, REC_PUT
from repro.util.errors import StorageCorruptionError
from repro.util.fsio import resolve

#: meta "policy" tag distinguishing KV WALs from execution journals.
WAL_POLICY = "kv-wal"

_WAL_NAME = re.compile(r"^wal-(\d{6})\.log$")


def wal_path(directory: "str | os.PathLike", gen: int) -> Path:
    """The file holding WAL generation ``gen``."""
    return Path(directory) / f"wal-{gen:06d}.log"


def wal_generations(directory: "str | os.PathLike") -> "list[tuple[int, Path]]":
    """All WAL generation files in ``directory``, ``(gen, path)`` sorted."""
    found = []
    for entry in Path(directory).iterdir():
        m = _WAL_NAME.match(entry.name)
        if m:
            found.append((int(m.group(1)), entry))
    return sorted(found)


def open_wal(
    directory: "str | os.PathLike", gen: int, *, sync: bool = True,
    fs=None,
) -> JournalWriter:
    """Open (create) WAL generation ``gen`` for appending.

    The returned writer is a plain :class:`JournalWriter`; callers
    append :func:`~repro.dam.records.pack_put` /
    :func:`~repro.dam.records.pack_delete` payloads and flush at their
    acknowledgment points.  ``fs`` overrides the filesystem
    handle (fault-injection seam; see :mod:`repro.util.fsio`).
    """
    return JournalWriter(
        wal_path(directory, gen),
        meta={"policy": WAL_POLICY, "gen": int(gen)},
        sync=sync,
        fs=fs,
    )


def replay_wal(
    directory: "str | os.PathLike", *,
    from_gen: int, after_seq: int, repair: bool = True, fs=None,
) -> "tuple[list[dict], int]":
    """Replay generations ``>= from_gen``; returns ``(records, torn_bytes)``.

    ``records`` are the put/del payloads with ``seq > after_seq``, in
    sequence order, already checked for the contiguity rule.  With
    ``repair=True`` a torn tail on the newest generation is truncated
    away in place (older stale generations are left for the store's GC).
    Raises :class:`StorageCorruptionError` on a torn non-final
    generation or a sequence gap; record-level corruption propagates as
    the scanner's own :class:`~repro.util.errors.JournalCorruptionError`
    (a WAL generation *is* a journal).
    """
    fsh = resolve(fs)
    gens = [(g, p) for g, p in wal_generations(directory) if g >= from_gen]
    torn_total = 0
    applied: "list[dict]" = []
    expected = int(after_seq) + 1
    for i, (gen, path) in enumerate(gens):
        scan = scan_journal(path, fs=fsh)
        last = i == len(gens) - 1
        if scan.torn_bytes and not last:
            raise StorageCorruptionError(
                f"{path}: WAL generation {gen} ends torn "
                f"({scan.torn_reason}) but generation "
                f"{gens[i + 1][0]} exists — generations are sealed "
                "before their successor opens, so this is corruption",
                path=str(path), offset=scan.valid_bytes,
                reason="wal-mid-chain-tear",
            )
        if scan.torn_bytes and last and repair:
            with fsh.open(path, "r+b") as f:
                fsh.truncate(f, scan.tail_valid_bytes)
        torn_total += scan.torn_bytes
        for rec in scan.records:
            if rec["type"] == REC_META:
                continue
            if rec["type"] not in (REC_PUT, REC_DEL):
                raise StorageCorruptionError(
                    f"{path}: unknown WAL record type {rec['type']!r}",
                    path=str(path), reason="bad-payload",
                )
            seq = int(rec["seq"])
            if seq <= after_seq:
                continue  # already durable in SSTables
            if seq != expected:
                raise StorageCorruptionError(
                    f"{path}: WAL sequence jumps to {seq}, expected "
                    f"{expected} — a record was lost without a trace",
                    path=str(path), reason="seq-gap",
                )
            expected += 1
            applied.append(rec)
    return applied, torn_total
