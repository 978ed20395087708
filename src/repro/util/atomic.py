"""Atomic file replacement: the tmp + fsync + rename discipline.

Several subsystems must rewrite a file so that a crash at *any* byte
offset leaves either the complete old contents or the complete new
contents on disk — never a prefix, never a mix.  The KV manifest
(:mod:`repro.lsm.disk.manifest`) and SSTable creation
(:mod:`repro.lsm.disk.sstable`) both follow the same three-step protocol:

1. write the new bytes to a temporary file *in the same directory* (so
   the final rename cannot cross a filesystem boundary);
2. flush and ``fsync`` the temporary file, so its bytes are durable
   before they can become visible under the final name;
3. ``os.replace`` it over the destination — atomic on POSIX — and
   ``fsync`` the directory so the rename itself is durable.

A crash before step 3 leaves the destination untouched (plus a stray
``*.tmp-*`` file, which :func:`remove_stale_tmp` reclaims); a crash
after step 3 leaves the new contents.  There is no in-between, which is
what the kill-at-every-offset fuzz suites quantify over.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

from repro.util.fsio import resolve

#: Infix every temporary file carries, so stale ones are recognizable.
TMP_INFIX = ".tmp-"


def fsync_dir(path: "str | os.PathLike", *, of=None, fs=None) -> None:
    """``fsync`` a directory so a rename inside it is durable.

    Silently skipped on platforms where directories cannot be opened
    for syncing (Windows); the rename is still atomic there.  If the
    directory *does* open but its ``fsync`` fails, the error is
    re-raised — that failure means the rename may not survive a power
    cut, and swallowing it would silently drop durability.

    ``of`` names the file whose rename this sync covers (fault-
    injection handles classify by it); ``fs`` overrides the ambient
    filesystem handle (see :mod:`repro.util.fsio`).
    """
    resolve(fs).fsync_dir(path, of=of)


def atomic_write_bytes(
    path: "str | os.PathLike", data: bytes, *, fsync: bool = True,
    fs=None,
) -> Path:
    """Replace ``path`` with ``data`` atomically; returns the path.

    With ``fsync=True`` (the default) the new bytes are durable before
    the rename and the rename is durable before return.  ``fsync=False``
    keeps the atomicity (a reader never sees a partial file) but trades
    power-cut durability for speed — appropriate only where the caller
    syncs at a coarser granularity.

    If the write or sync of the temporary file fails, the stray tmp is
    unlinked before the error propagates — under ``ENOSPC`` a stranded
    tmp would make the disk-full condition it reports *worse* until the
    next :func:`remove_stale_tmp` sweep.

    ``fs`` overrides the ambient filesystem handle (injection point
    for :class:`repro.faults.iofaults.FaultFS`).
    """
    fsh = resolve(fs)
    path = Path(path)
    tmp = path.with_name(f"{path.name}{TMP_INFIX}{os.getpid()}")
    try:
        with fsh.open(tmp, "wb") as f:
            fsh.write(f, data)
            f.flush()
            if fsync:
                fsh.fsync(f)
        fsh.replace(tmp, path)
    except OSError:
        # Best-effort reclaim via the real unlink: the injected fault
        # is the error being reported, not the cleanup's to repeat.
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    if fsync:
        fsync_dir(path.parent, of=path, fs=fsh)
    return path


def remove_stale_tmp(directory: "str | os.PathLike") -> int:
    """Delete leftover ``*.tmp-*`` files a crash stranded; returns count.

    Safe to run at any time: a temporary file is only ever observable
    between steps 1 and 3 of the protocol, and the writer that created
    it is gone by the time anyone calls this (recovery runs first).
    """
    removed = 0
    for entry in Path(directory).iterdir():
        if TMP_INFIX in entry.name and entry.is_file():
            entry.unlink()
            removed += 1
    return removed
