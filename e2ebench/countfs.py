"""A pass-through fs handle that counts bytes and fsyncs per file class.

Installed with :func:`repro.util.fsio.install`, :class:`CountingFS` sits
in the program's own storage seam: every journal, WAL, SSTable and
manifest syscall goes through it.  Each call does exactly what
:class:`~repro.util.fsio.RealFS` does, so the files on disk are
byte-identical (``e2ebench/tests/test_e2e_countfs.py`` pins that), and
only adds to a counter keyed by the file's class (the same
classification :mod:`repro.faults.iofaults` injects faults by).

The counts feed ``write_amp``, ``space_amp`` and the ``util.fsio.*``
per-layer metrics.
"""

from __future__ import annotations

from repro.faults.iofaults import PATH_CLASSES, classify_path
from repro.util.fsio import RealFS


class CountingFS(RealFS):
    """:class:`RealFS` plus per-class byte and fsync counters."""

    __slots__ = ("bytes_written", "bytes_read", "fsyncs", "_class_of")

    def __init__(self) -> None:
        self.bytes_written = dict.fromkeys(PATH_CLASSES, 0)
        self.bytes_read = dict.fromkeys(PATH_CLASSES, 0)
        self.fsyncs = dict.fromkeys(PATH_CLASSES, 0)
        self._class_of: "dict[str, str]" = {}

    def _cls(self, path) -> str:
        key = str(path)
        cls = self._class_of.get(key)
        if cls is None:
            cls = self._class_of[key] = classify_path(key)
        return cls

    def read(self, f, n: int = -1) -> bytes:
        data = f.read(n)
        self.bytes_read[self._cls(f.name)] += len(data)
        return data

    def read_bytes(self, path) -> bytes:
        data = super().read_bytes(path)
        self.bytes_read[self._cls(path)] += len(data)
        return data

    def write(self, f, data: bytes) -> int:
        n = f.write(data)
        self.bytes_written[self._cls(f.name)] += n
        return n

    def fsync(self, f) -> None:
        super().fsync(f)
        self.fsyncs[self._cls(f.name)] += 1

    def fsync_dir(self, path, *, of=None) -> None:
        super().fsync_dir(path, of=of)
        self.fsyncs[self._cls(path if of is None else of)] += 1

    @property
    def total_written(self) -> int:
        """Bytes written through the seam, every class together."""
        return sum(self.bytes_written.values())

    @property
    def total_fsyncs(self) -> int:
        """File and directory fsyncs, every class together."""
        return sum(self.fsyncs.values())
