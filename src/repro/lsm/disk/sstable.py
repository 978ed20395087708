"""On-disk SSTable format: checksummed blocks, bloom filter, sparse index.

An SSTable file is an immutable sorted run, written once through
:func:`repro.util.atomic.atomic_write_bytes` (tmp + fsync + rename) so
it exists either completely or not at all — a half-written run is
impossible by construction, which is why SSTable creation needs no
torn-tail rule of its own.  The threats that remain are *in-place*
damage (bit rot, misdirected writes), and every region of the file is
independently CRC-32 checksummed so damage is detected at read time,
localized to a block, and surfaced as a typed
:class:`~repro.util.errors.StorageCorruptionError` — never a silently
wrong value.

File layout::

    header   b"WSST" + u32 version                          (8 bytes)
    blocks   repeat: u32 len | u32 CRC-32 | payload         (JSON entries)
    bloom    u32 len | u32 CRC-32 | payload                 (JSON filter)
    index    u32 len | u32 CRC-32 | payload                 (JSON block map)
    footer   u64 bloom_off | u64 index_off | u64 n_entries
             | u32 CRC-32 of the previous 24 bytes | b"TSSW" (32 bytes)

A block payload is a JSON list of ``[key, seq, kind, value]`` rows
(``kind``: 0 = put, 1 = tombstone), sorted by key, unique keys per file.
The index maps each block to ``[offset, length, n, first_key,
last_key]``; a point read touches the footer, index, bloom, and exactly
one data block.  The bloom filter (double hashing over two CRC-32
streams) makes a negative probe cost zero block reads — the read/write
asymmetry the paper's model charges for, now in real bytes.  A writer
builds it in one vectorized pass over the file's keys
(:meth:`BloomFilter.add_all`), which sets the same bits as adding the
keys one at a time; probes hash one key with the scalar rule.
"""

from __future__ import annotations

import errno as _errno
import json
import os
import struct
import zlib
from dataclasses import dataclass
from itertools import repeat
from operator import or_
from pathlib import Path

import numpy as np

from repro.util.atomic import atomic_write_bytes
from repro.util.compact_json import compact_json
from repro.util.errors import InvalidInstanceError, StorageCorruptionError
from repro.util.fsio import resolve

SST_MAGIC = b"WSST"
SST_VERSION = 1
_SST_HEADER = SST_MAGIC + struct.pack("<I", SST_VERSION)
_SECTION = struct.Struct("<II")  # payload length, CRC-32
_FOOTER = struct.Struct("<QQQI4s")  # bloom_off, index_off, n_entries, crc, magic
FOOTER_MAGIC = b"TSSW"

#: entry kinds on disk.
KIND_PUT = 0
KIND_TOMBSTONE = 1


#: the second CRC-32 stream's seed (double hashing).
_H2_SEED = 0x9747B28C


def _key_hashes(keys) -> "tuple[list[int], list[int]]":
    """The filter's two hashes of each of ``keys``: CRC-32 streams over
    its compact-JSON bytes; ``h2`` is odd, so the probe stride is never 0.

    Both hash every key through C-level ``map``s, so a whole file's keys
    cost no Python frame per key beyond the JSON encoder's.
    """
    encoded = list(map(compact_json, keys))
    h1 = list(map(zlib.crc32, encoded))
    h2 = list(map(or_, map(zlib.crc32, encoded, repeat(_H2_SEED)), repeat(1)))
    return h1, h2


class BloomFilter:
    """A classic m-bit, k-hash bloom filter over JSON-encoded keys.

    Double hashing from two seeded CRC-32 streams: cheap stdlib hashes,
    deterministic across processes (no ``PYTHONHASHSEED`` exposure).
    Key ``x`` sets bits ``(h1 + i*h2) mod m`` for ``i < k``; bit ``p``
    is bit ``p & 7`` of byte ``p >> 3``.
    """

    def __init__(self, m_bits: int, k_hashes: int,
                 bits: "bytearray | None" = None) -> None:
        if m_bits < 8 or not 1 <= k_hashes <= 16:
            raise InvalidInstanceError(
                f"bloom needs m_bits >= 8, 1 <= k_hashes <= 16, got "
                f"{m_bits}, {k_hashes}"
            )
        self.m = int(m_bits)
        self.k = int(k_hashes)
        n_bytes = -(-self.m // 8)
        if bits is not None and len(bits) != n_bytes:
            raise InvalidInstanceError(
                f"bloom of {self.m} bits needs {n_bytes} byte(s), got "
                f"{len(bits)}"
            )
        self.bits = bits if bits is not None else bytearray(n_bytes)

    @classmethod
    def for_entries(cls, n: int, bits_per_key: int = 10) -> "BloomFilter":
        m = max(64, n * bits_per_key)
        k = max(1, min(16, round(0.6931 * m / max(1, n))))
        return cls(m, k)

    def _positions(self, key) -> "list[int]":
        (h1,), (h2,) = _key_hashes((key,))
        return [(h1 + i * h2) % self.m for i in range(self.k)]

    def add(self, key) -> None:
        for pos in self._positions(key):
            self.bits[pos >> 3] |= 1 << (pos & 7)

    def add_all(self, keys) -> None:
        """:meth:`add` every key in one vectorized pass: the same bits.

        Positions form one ``(n, k)`` int64 array; with ``k <= 16`` and
        32-bit hashes every ``h1 + i*h2`` stays below ``2**36``.
        """
        h1, h2 = (np.array(h, dtype=np.int64)[:, None]
                  for h in _key_hashes(keys))
        positions = (h1 + np.arange(self.k, dtype=np.int64) * h2) % self.m
        flags = np.zeros(len(self.bits) * 8, dtype=bool)
        flags[positions.ravel()] = True
        bits = np.frombuffer(self.bits, dtype=np.uint8)  # a writable view
        bits |= np.packbits(flags, bitorder="little")

    def __contains__(self, key) -> bool:
        return all(
            self.bits[pos >> 3] & (1 << (pos & 7))
            for pos in self._positions(key)
        )

    def to_payload(self) -> dict:
        return {"m": self.m, "k": self.k, "bits": bytes(self.bits).hex()}

    @classmethod
    def from_payload(cls, payload: dict) -> "BloomFilter":
        """Rebuild a filter; an inconsistent payload (``m < 8``, ``k``
        outside ``[1, 16]``, ``bits`` not ``ceil(m/8)`` bytes) raises
        :class:`InvalidInstanceError`."""
        return cls(int(payload["m"]), int(payload["k"]),
                   bytearray.fromhex(payload["bits"]))


@dataclass(frozen=True)
class SSTableMeta:
    """What the manifest records about one SSTable file."""

    name: str
    file_id: int
    entries: int
    tombstones: int
    min_key: object
    max_key: object
    min_seq: int
    max_seq: int
    blocks: int

    def to_payload(self) -> dict:
        return {
            "name": self.name, "id": self.file_id,
            "entries": self.entries, "tombstones": self.tombstones,
            "min_key": self.min_key, "max_key": self.max_key,
            "min_seq": self.min_seq, "max_seq": self.max_seq,
            "blocks": self.blocks,
        }

    @classmethod
    def from_payload(cls, p: dict) -> "SSTableMeta":
        return cls(
            name=str(p["name"]), file_id=int(p["id"]),
            entries=int(p["entries"]), tombstones=int(p["tombstones"]),
            min_key=p["min_key"], max_key=p["max_key"],
            min_seq=int(p["min_seq"]), max_seq=int(p["max_seq"]),
            blocks=int(p["blocks"]),
        )

    def overlaps(self, other: "SSTableMeta") -> bool:
        """True iff the key ranges of the two files intersect."""
        if self.entries == 0 or other.entries == 0:
            return False
        return not (
            self.max_key < other.min_key or other.max_key < self.min_key
        )

    def overlaps_range(self, lo, hi) -> bool:
        if self.entries == 0:
            return False
        return not (self.max_key < lo or hi < self.min_key)


def _section(payload: bytes) -> bytes:
    return _SECTION.pack(len(payload), zlib.crc32(payload)) + payload


def sstable_name(file_id: int) -> str:
    """Canonical file name for SSTable ``file_id``."""
    return f"sst-{file_id:06d}.sst"


def write_sstable(
    directory: "str | os.PathLike", file_id: int,
    entries: "list[tuple]", *,
    block_entries: int = 64, bloom_bits_per_key: int = 10,
    fs=None,
) -> SSTableMeta:
    """Write ``entries`` as SSTable ``file_id``; returns its manifest meta.

    ``entries`` are ``(key, seq, kind, value)`` rows sorted strictly by
    key (unique keys — the caller merges versions before writing).  The
    file appears atomically; a kill at any byte of the write leaves no
    trace under the final name.
    """
    if block_entries < 1:
        raise InvalidInstanceError(
            f"block_entries must be >= 1, got {block_entries}"
        )
    keys = [e[0] for e in entries]
    if any(not keys[i] < keys[i + 1] for i in range(len(keys) - 1)):
        raise InvalidInstanceError(
            "SSTable entries must be strictly sorted by key"
        )
    bloom = BloomFilter.for_entries(len(entries), bloom_bits_per_key)
    bloom.add_all(keys)
    blob = bytearray(_SST_HEADER)
    index: "list[list]" = []
    for start in range(0, len(entries), block_entries):
        piece = entries[start:start + block_entries]
        payload = compact_json(
            [[k, int(s), int(kd), v] for k, s, kd, v in piece]
        )
        offset = len(blob)
        blob += _section(payload)
        index.append(
            [offset, len(blob) - offset, len(piece),
             piece[0][0], piece[-1][0]]
        )
    bloom_off = len(blob)
    blob += _section(compact_json(bloom.to_payload()))
    index_off = len(blob)
    blob += _section(compact_json({"blocks": index}))
    packed = struct.pack("<QQQ", bloom_off, index_off, len(entries))
    blob += packed + struct.pack("<I", zlib.crc32(packed)) + FOOTER_MAGIC
    name = sstable_name(file_id)
    atomic_write_bytes(Path(directory) / name, bytes(blob), fs=fs)
    seqs = [int(e[1]) for e in entries]
    return SSTableMeta(
        name=name, file_id=int(file_id),
        entries=len(entries),
        tombstones=sum(1 for e in entries if e[2] == KIND_TOMBSTONE),
        min_key=entries[0][0] if entries else None,
        max_key=entries[-1][0] if entries else None,
        min_seq=min(seqs) if seqs else 0,
        max_seq=max(seqs) if seqs else 0,
        blocks=len(index),
    )


@dataclass(frozen=True)
class BlockFinding:
    """One damaged region a verify pass located."""

    path: str
    #: block index (-1: the failure is structural — footer/index/bloom).
    block: int
    offset: int
    reason: str
    #: key range the damage covers (from the index; None if unknown).
    first_key: object = None
    last_key: object = None
    #: entries the damaged region held (0 if unknown).
    entries_lost: int = 0


class SSTableReader:
    """Random access over one SSTable file, verifying CRCs as it reads.

    The footer, index, and bloom filter are read and verified once at
    open; data blocks are read from disk per probe and verified each
    time (bit rot between scrubs must never return a wrong value).
    Structural damage raises :class:`StorageCorruptionError` at open;
    block damage raises at the probe that touches the block.
    """

    def __init__(self, path: "str | os.PathLike", *, fs=None) -> None:
        self.path = Path(path)
        self._fs = fs
        data = resolve(fs).read_bytes(self.path)
        self._size = len(data)
        if len(data) < len(_SST_HEADER) + _FOOTER.size:
            raise StorageCorruptionError(
                f"{self.path}: {len(data)} byte(s) is too short to be an "
                "SSTable",
                path=str(self.path), offset=0, reason="bad-footer",
            )
        if data[: len(_SST_HEADER)] != _SST_HEADER:
            raise StorageCorruptionError(
                f"{self.path}: bad SSTable header {data[:8]!r}",
                path=str(self.path), offset=0, reason="bad-magic",
            )
        foot = data[-_FOOTER.size:]
        bloom_off, index_off, n_entries, crc, magic = _FOOTER.unpack(foot)
        if magic != FOOTER_MAGIC or zlib.crc32(foot[:24]) != crc:
            raise StorageCorruptionError(
                f"{self.path}: SSTable footer fails its checksum",
                path=str(self.path), offset=self._size - _FOOTER.size,
                reason="bad-footer",
            )
        self.n_entries = int(n_entries)
        index_payload = self._read_section(data, index_off, "bad-index")
        try:
            self._index = json.loads(index_payload)["blocks"]
        except (ValueError, KeyError, TypeError):
            raise StorageCorruptionError(
                f"{self.path}: SSTable index does not decode",
                path=str(self.path), offset=index_off, reason="bad-index",
            ) from None
        bloom_payload = self._read_section(data, bloom_off, "bad-bloom")
        try:
            self._bloom = BloomFilter.from_payload(json.loads(bloom_payload))
        except (ValueError, KeyError, TypeError, InvalidInstanceError):
            raise StorageCorruptionError(
                f"{self.path}: SSTable bloom filter does not decode",
                path=str(self.path), offset=bloom_off, reason="bad-bloom",
            ) from None
        #: data block reads this reader performed (bloom effectiveness).
        self.block_reads = 0

    def _read_section(self, data: bytes, offset: int, reason: str) -> bytes:
        if not (len(_SST_HEADER) <= offset <= len(data) - _SECTION.size):
            raise StorageCorruptionError(
                f"{self.path}: section offset {offset} outside file",
                path=str(self.path), offset=offset, reason=reason,
            )
        length, crc = _SECTION.unpack_from(data, offset)
        end = offset + _SECTION.size + length
        if end > len(data):
            raise StorageCorruptionError(
                f"{self.path}: section at {offset} extends past end of file",
                path=str(self.path), offset=offset, reason=reason,
            )
        payload = data[offset + _SECTION.size:end]
        if zlib.crc32(payload) != crc:
            raise StorageCorruptionError(
                f"{self.path}: section at byte {offset} fails its CRC-32",
                path=str(self.path), offset=offset, reason=reason,
            )
        return payload

    def may_contain(self, key) -> bool:
        """Bloom probe: False means definitely absent (no block read)."""
        return key in self._bloom

    def _read_block(self, i: int) -> "list[list]":
        offset, length, _n, _fk, _lk = self._index[i]
        fsh = resolve(self._fs)
        with fsh.open(self.path, "rb") as f:
            f.seek(offset)
            data = fsh.read(f, length)
        self.block_reads += 1
        if len(data) != length:
            raise StorageCorruptionError(
                f"{self.path}: block {i} at byte {offset} is truncated",
                path=str(self.path), offset=offset, reason="bad-block",
            )
        length_field, crc = _SECTION.unpack_from(data, 0)
        payload = data[_SECTION.size:]
        if length_field != len(payload) or zlib.crc32(payload) != crc:
            raise StorageCorruptionError(
                f"{self.path}: block {i} at byte {offset} fails its "
                "CRC-32 — quarantine and scrub this run",
                path=str(self.path), offset=offset, reason="bad-block",
            )
        try:
            rows = json.loads(payload)
        except ValueError:
            raise StorageCorruptionError(
                f"{self.path}: block {i} at byte {offset} does not decode",
                path=str(self.path), offset=offset, reason="bad-block",
            ) from None
        return rows

    def get(self, key) -> "tuple[int, int, object] | None":
        """Point probe: ``(seq, kind, value)`` or None if absent."""
        if not self._index or not self.may_contain(key):
            return None
        lo, hi = 0, len(self._index) - 1
        found = -1
        while lo <= hi:
            mid = (lo + hi) // 2
            _o, _l, _n, first, last = self._index[mid]
            if key < first:
                hi = mid - 1
            elif key > last:
                lo = mid + 1
            else:
                found = mid
                break
        if found < 0:
            return None
        for k, seq, kind, value in self._read_block(found):
            if k == key:
                return int(seq), int(kind), value
        return None

    def iter_entries(self):
        """All ``(key, seq, kind, value)`` rows in key order (verified)."""
        for i in range(len(self._index)):
            for k, seq, kind, value in self._read_block(i):
                yield k, int(seq), int(kind), value

    def _scrub_block(self, i: int, *, retries: int = 1) -> "list[list]":
        """Read block ``i`` for a scrub pass, retrying transient ``EIO``.

        A fault that persists past ``retries`` attempts propagates to
        the caller, which records the block as unreadable (reason
        ``io-error``) — scrub treats a block the disk will not return
        exactly like one that fails its CRC: salvage around it.
        """
        attempt = 0
        while True:
            try:
                return self._read_block(i)
            except OSError as exc:
                if exc.errno != _errno.EIO or attempt >= retries:
                    raise
                attempt += 1

    def verify(self) -> "list[BlockFinding]":
        """Scrub every data block; returns findings (empty = clean).

        A finding is a block that fails its CRC, does not decode, *or*
        cannot be read at all (persistent ``EIO`` -> ``io-error``).
        """
        findings: "list[BlockFinding]" = []
        for i, (offset, _length, n, first, last) in enumerate(self._index):
            try:
                self._scrub_block(i)
            except (StorageCorruptionError, OSError) as exc:
                findings.append(BlockFinding(
                    path=str(self.path), block=i, offset=offset,
                    reason=getattr(exc, "reason", "") or "io-error",
                    first_key=first, last_key=last,
                    entries_lost=int(n),
                ))
        return findings

    def salvage(self) -> "tuple[list[tuple], list[BlockFinding]]":
        """Entries from intact blocks plus findings for the damaged ones."""
        good: "list[tuple]" = []
        findings: "list[BlockFinding]" = []
        for i, (offset, _length, n, first, last) in enumerate(self._index):
            try:
                rows = self._scrub_block(i)
            except (StorageCorruptionError, OSError) as exc:
                findings.append(BlockFinding(
                    path=str(self.path), block=i, offset=offset,
                    reason=getattr(exc, "reason", "") or "io-error",
                    first_key=first, last_key=last,
                    entries_lost=int(n),
                ))
                continue
            good.extend(
                (k, int(s), int(kd), v) for k, s, kd, v in rows
            )
        return good, findings
