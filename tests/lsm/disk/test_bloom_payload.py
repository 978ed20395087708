"""A bloom payload that passes its CRC but is inconsistent is corruption.

The bloom section's CRC only proves the bytes are the ones written.  A
payload written inconsistent (a bug, or a crafted file) must still
surface as a typed ``StorageCorruptionError(reason="bad-bloom")`` at
open, not as an ``IndexError`` at the first probe or an untyped
validation error.  Each case here rebuilds a real SSTable around a
doctored bloom payload with every CRC and the footer recomputed.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import pytest

from repro.lsm.disk.sstable import (
    _FOOTER,
    _SECTION,
    FOOTER_MAGIC,
    KIND_PUT,
    BloomFilter,
    SSTableReader,
    write_sstable,
)
from repro.util.errors import InvalidInstanceError, StorageCorruptionError


def _with_bloom(path: Path, doctor) -> Path:
    """Rewrite ``path`` with its bloom payload passed through ``doctor``;
    every CRC and the footer stay valid."""
    data = path.read_bytes()
    bloom_off, index_off, n_entries, _crc, _magic = _FOOTER.unpack(
        data[-_FOOTER.size:])
    length, _ = _SECTION.unpack_from(data, bloom_off)
    start = bloom_off + _SECTION.size
    payload = doctor(json.loads(data[start:start + length]))
    raw = json.dumps(payload, separators=(",", ":")).encode()
    bloom = _SECTION.pack(len(raw), zlib.crc32(raw)) + raw
    index = data[index_off:-_FOOTER.size]
    new_index_off = bloom_off + len(bloom)
    packed = struct.pack("<QQQ", bloom_off, new_index_off, n_entries)
    footer = packed + struct.pack("<I", zlib.crc32(packed)) + FOOTER_MAGIC
    path.write_bytes(data[:bloom_off] + bloom + index + footer)
    return path


def _sstable(tmp_path: Path) -> Path:
    rows = [(f"key-{i:03d}", i + 1, KIND_PUT, i) for i in range(37)]
    meta = write_sstable(tmp_path, 1, rows, block_entries=8)
    return tmp_path / meta.name


def _edit(**fields):
    return lambda payload: {**payload, **fields}


def test_rewriter_keeps_a_consistent_file_readable(tmp_path: Path) -> None:
    path = _with_bloom(_sstable(tmp_path), lambda payload: payload)
    reader = SSTableReader(path)
    assert reader.get("key-005") == (6, KIND_PUT, 5)
    assert reader.get("absent") is None


@pytest.mark.parametrize("doctor", [
    lambda p: {**p, "bits": p["bits"][:-2]},  # one byte short
    lambda p: {**p, "bits": p["bits"] + "00"},  # one byte long
    lambda p: {**p, "bits": ""},
    _edit(m=4),
    _edit(m=0),
    _edit(k=0),
    _edit(k=17),
    lambda p: {**p, "bits": p["bits"][:-1]},  # odd-length hex
    lambda p: {"m": p["m"], "k": p["k"]},  # no bits at all
    lambda p: [p["m"], p["k"], p["bits"]],  # not an object
], ids=["short-bits", "long-bits", "empty-bits", "m-4", "m-0", "k-0",
        "k-17", "odd-hex", "no-bits", "not-object"])
def test_inconsistent_bloom_is_typed_corruption(tmp_path: Path,
                                                doctor) -> None:
    path = _with_bloom(_sstable(tmp_path), doctor)
    with pytest.raises(StorageCorruptionError) as exc:
        SSTableReader(path)
    assert exc.value.reason == "bad-bloom"


def test_from_payload_checks_the_length_invariant() -> None:
    good = BloomFilter.for_entries(7).to_payload()
    assert good["m"] % 8 != 0  # a partial last byte
    assert BloomFilter.from_payload(good).to_payload() == good
    for bad in ({**good, "bits": good["bits"][:-2]}, {**good, "m": 4},
                {**good, "k": 0}, {**good, "k": 17}):
        with pytest.raises(InvalidInstanceError):
            BloomFilter.from_payload(bad)
