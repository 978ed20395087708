"""File-layer crash injection for execution journals.

Where :mod:`repro.faults.injector` models a faulty *machine*, this module
models a faulty *filesystem interaction*: the damage a real kill, power
cut, or bit rot leaves in an append-only journal file.  Three primitives
cover the failure modes the journal's torn-tail rule must absorb or
detect (see :mod:`repro.dam.journal`):

* :func:`truncate_at` — the file ends mid-record (process killed while
  the tail was being written);
* :func:`tear_last_record` — a short write chopped bytes off the final
  record only;
* :func:`flip_byte` — bit rot / a misdirected write damaged a byte in
  place (mid-file flips must surface as typed corruption errors, never
  as silently wrong recoveries).

All functions operate on a *copy* by default (``out=`` path), because
tests and fuzzers want to damage the same reference journal many ways;
pass ``in_place=True`` to damage the original.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

from repro.util.errors import InvalidInstanceError


def _materialize(path: Path, out: "Path | None", in_place: bool) -> Path:
    if in_place:
        return path
    if out is None:
        raise InvalidInstanceError(
            "crash injection needs an output path (or in_place=True)"
        )
    shutil.copyfile(path, out)
    return out


def truncate_at(
    path: "str | os.PathLike", offset: int, *,
    out: "str | os.PathLike | None" = None, in_place: bool = False,
) -> Path:
    """Cut the journal to its first ``offset`` bytes (a kill mid-append).

    ``offset`` may be any value in ``[0, filesize]`` — byte granularity
    is the point: the kill-at-any-offset property quantifies over all of
    them.  Returns the damaged file's path.
    """
    path = Path(path)
    size = path.stat().st_size
    if not (0 <= offset <= size):
        raise InvalidInstanceError(
            f"truncation offset {offset} outside file of {size} byte(s)"
        )
    target = _materialize(path, Path(out) if out is not None else None,
                          in_place)
    with open(target, "r+b") as f:
        f.truncate(offset)
    return target


def tear_last_record(
    path: "str | os.PathLike", n_bytes: int = 1, *,
    out: "str | os.PathLike | None" = None, in_place: bool = False,
) -> Path:
    """Chop ``n_bytes`` off the end of the file (a short final write)."""
    path = Path(path)
    size = path.stat().st_size
    if not (0 <= n_bytes <= size):
        raise InvalidInstanceError(
            f"cannot tear {n_bytes} byte(s) off a {size}-byte file"
        )
    return truncate_at(path, size - n_bytes, out=out, in_place=in_place)


def flip_byte(
    path: "str | os.PathLike", offset: int, *, xor: int = 0xFF,
    out: "str | os.PathLike | None" = None, in_place: bool = False,
) -> Path:
    """XOR the byte at ``offset`` with ``xor`` (bit rot in place).

    Aim it at a record's checksum bytes to exercise the corruption
    detector, or anywhere in a payload — CRC-32 catches both.
    """
    path = Path(path)
    size = path.stat().st_size
    if not (0 <= offset < size):
        raise InvalidInstanceError(
            f"flip offset {offset} outside file of {size} byte(s)"
        )
    if not (1 <= xor <= 0xFF):
        raise InvalidInstanceError(f"xor mask must be in [1, 255], got {xor}")
    target = _materialize(path, Path(out) if out is not None else None,
                          in_place)
    with open(target, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ xor]))
    return target
