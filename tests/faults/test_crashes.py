"""Tests for the file-layer crash injection primitives."""

from __future__ import annotations

import pytest

from repro.faults import flip_byte, tear_last_record, truncate_at
from repro.util.errors import InvalidInstanceError


@pytest.fixture
def victim(tmp_path):
    path = tmp_path / "victim.bin"
    path.write_bytes(bytes(range(100)))
    return path


def test_truncate_copies_by_default(victim, tmp_path):
    out = truncate_at(victim, 10, out=tmp_path / "cut.bin")
    assert out.read_bytes() == bytes(range(10))
    assert victim.stat().st_size == 100  # original untouched


def test_truncate_in_place(victim):
    assert truncate_at(victim, 0, in_place=True) == victim
    assert victim.stat().st_size == 0


def test_truncate_requires_destination(victim):
    with pytest.raises(InvalidInstanceError):
        truncate_at(victim, 10)


def test_truncate_range_checked(victim, tmp_path):
    for bad in (-1, 101):
        with pytest.raises(InvalidInstanceError):
            truncate_at(victim, bad, out=tmp_path / "x.bin")
    # Both boundary offsets are legal (0 and filesize).
    assert truncate_at(victim, 100, out=tmp_path / "full.bin").stat() \
        .st_size == 100


def test_tear_last_record(victim, tmp_path):
    out = tear_last_record(victim, 7, out=tmp_path / "torn.bin")
    assert out.read_bytes() == bytes(range(93))
    with pytest.raises(InvalidInstanceError):
        tear_last_record(victim, 101, out=tmp_path / "y.bin")


def test_flip_byte(victim, tmp_path):
    out = flip_byte(victim, 3, out=tmp_path / "flip.bin")
    data = out.read_bytes()
    assert data[3] == 3 ^ 0xFF
    assert data[:3] == bytes(range(3)) and data[4:] == bytes(range(4, 100))
    with pytest.raises(InvalidInstanceError):
        flip_byte(victim, 100, out=tmp_path / "z.bin")
    with pytest.raises(InvalidInstanceError):
        flip_byte(victim, 0, xor=0, out=tmp_path / "z.bin")
