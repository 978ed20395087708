"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this package derive from
:class:`ReproError`, so callers can catch package errors without also
swallowing programming mistakes (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class InvalidInstanceError(ReproError):
    """A WORMS or scheduling instance violates a structural invariant.

    Examples: a message targets a non-leaf node, a tree edge points to an
    unknown node id, ``P`` or ``B`` is non-positive.
    """


class InvalidScheduleError(ReproError):
    """A flush or task schedule violates the model constraints.

    Raised by the validators in :mod:`repro.dam.validator` and
    :mod:`repro.scheduling.cost` when a schedule uses more than ``P``
    parallel slots, flushes a message that is not at the source node,
    violates the space requirement, or leaves messages/tasks unfinished.
    """


class JournalError(ReproError):
    """Base class for execution-journal failures (:mod:`repro.dam.journal`)."""


class JournalCorruptionError(JournalError):
    """A journal is damaged beyond the torn-tail rule.

    Raised when a record *before* the physical tail fails its checksum or
    cannot be decoded (bit rot, overwritten bytes), or when the journal
    header/required records are missing entirely.  A damaged *tail* is
    never an error — torn final records are the expected signature of a
    crash and are repaired by discarding them (see ``docs/MODEL.md``).

    Attributes
    ----------
    offset:
        Byte offset of the damaged region (-1 if not applicable).
    reason:
        Machine-friendly tag (``bad-magic``, ``bad-crc``, ``bad-payload``,
        ``no-records``, ``instance-mismatch``, ``schedule-mismatch``).
    """

    def __init__(self, message: str, *, offset: int = -1,
                 reason: str = "") -> None:
        super().__init__(message)
        self.offset = offset
        self.reason = reason

    def __reduce__(self):
        # Keyword-only attributes ride in the state dict: the 3-tuple
        # form reconstructs via ``cls(*args)`` (all kwargs default) and
        # then restores ``__dict__``, so diagnostics survive a process
        # boundary (multiprocessing pipes pickle raised errors).
        return (type(self), self.args, dict(self.__dict__))


class StorageError(ReproError):
    """Base class for on-disk KV engine failures (:mod:`repro.lsm.disk`)."""


class StorageCorruptionError(StorageError):
    """On-disk KV state is damaged beyond what recovery can absorb.

    The disk engine's sibling of :class:`JournalCorruptionError` (the
    WAL itself raises that class — it *is* a ``WOJ3`` journal).  Raised
    when an SSTable block, index, bloom filter, or footer fails its
    CRC-32; when the manifest is unreadable; or when recovery finds
    evidence of silently lost records (a sequence gap, a torn non-final
    WAL generation).  Never raised for a torn tail of the *newest* WAL
    generation — that is the expected signature of a crash and is
    repaired by truncation.

    Attributes
    ----------
    path:
        The damaged file ("" when the damage spans the store).
    offset:
        Byte offset of the damaged region (-1 if not applicable).
    reason:
        Machine-friendly tag (``bad-magic``, ``bad-crc``, ``bad-footer``,
        ``bad-block``, ``bad-index``, ``bad-bloom``, ``missing-file``,
        ``seq-gap``, ``wal-mid-chain-tear``, ``no-manifest``).
    """

    def __init__(self, message: str, *, path: str = "", offset: int = -1,
                 reason: str = "") -> None:
        super().__init__(message)
        self.path = path
        self.offset = offset
        self.reason = reason

    def __reduce__(self):
        # See JournalCorruptionError.__reduce__: keyword-only diagnostics
        # survive pickling across a worker-process boundary.
        return (type(self), self.args, dict(self.__dict__))


class StorageIOError(StorageError):
    """A disk operation failed at the syscall layer and stayed failed.

    The typed surface of a live I/O fault (``EIO`` and friends) — as
    opposed to :class:`StorageCorruptionError`, which is about *bytes
    that read back wrong*.  Raised when a read keeps failing after the
    bounded retry policy, or when a write-path syscall fails in a way
    that forces a fail-stop re-open (a failed ``fsync`` is never
    retried; see the fsyncgate discussion in ``docs/STORAGE.md``).

    Attributes
    ----------
    op:
        The operation that failed (``open``, ``read``, ``write``,
        ``fsync``, ``fsync-dir``, ``replace``, ``unlink``).
    path:
        The file the operation targeted ("" if not applicable).
    errno:
        The OS error number carried by the underlying ``OSError``
        (0 if unknown).
    attempts:
        How many times the operation was tried before giving up
        (1 for fail-stop operations that are never retried).
    """

    def __init__(self, message: str, *, op: str = "", path: str = "",
                 errno: int = 0, attempts: int = 1) -> None:
        super().__init__(message)
        self.op = op
        self.path = path
        self.errno = errno
        self.attempts = attempts

    def __reduce__(self):
        # See JournalCorruptionError.__reduce__: keyword-only diagnostics
        # survive pickling across a worker-process boundary.
        return (type(self), self.args, dict(self.__dict__))


class StoreDegradedError(StorageError):
    """The store is in read-only degraded mode and rejected a write.

    Entered when the disk says it cannot durably accept more bytes
    (``ENOSPC`` anywhere on the write path, or repeated write-path
    ``EIO``): reads keep working, writes raise this error and are
    counted, and the store periodically probes the disk so it can
    re-arm automatically once space returns.  Because the memtable and
    the poisoned WAL generation are discarded *before* entering
    degraded mode, nothing the store ever acknowledged is lost.

    Attributes
    ----------
    reason:
        Why the store degraded (``enospc``, ``fsync-fail``, ``io``).
    path:
        The file whose operation triggered degradation ("").
    rejections:
        Writes rejected since the store degraded (including this one).
    """

    def __init__(self, message: str, *, reason: str = "", path: str = "",
                 rejections: int = 0) -> None:
        super().__init__(message)
        self.reason = reason
        self.path = path
        self.rejections = rejections

    def __reduce__(self):
        # See JournalCorruptionError.__reduce__: keyword-only diagnostics
        # survive pickling across a worker-process boundary.
        return (type(self), self.args, dict(self.__dict__))


class ExecutionStalledError(InvalidScheduleError):
    """An executor made no progress and exhausted its recovery options.

    Raised by :class:`repro.policies.executor.GatedExecutor` when a
    flush list deadlocks (e.g. it is not laminar) or retries stall and
    no re-plan is left, or the run passes ``max_steps``.  Carries the stalled state so the failure
    is diagnosable:

    Attributes
    ----------
    step:
        1-based step at which progress stopped (-1 if unknown).
    parked_messages:
        ``(msg_id, node)`` pairs for every undelivered message and its
        current location.
    blocking_flush:
        The highest-priority pending flush that could not run (None if
        nothing was pending).
    pending_flushes:
        All flushes still pending when execution stalled, in priority
        order.
    shard_id:
        The serving shard that stalled (None outside the serve stack or
        when the stall is not attributable to one shard).
    epoch:
        0-based planning epoch in which the stall was detected (-1 when
        not raised from an epoch-driven loop).
    last_durable_step:
        The newest journal-durable step at the time of the stall (-1
        when no journal was attached), so supervision and the CLI can
        report how much of the run is recoverable without re-scanning.
    """

    def __init__(
        self,
        message: str,
        *,
        step: int = -1,
        parked_messages: "tuple[tuple[int, int], ...]" = (),
        blocking_flush: object = None,
        pending_flushes: tuple = (),
        shard_id: "int | None" = None,
        epoch: int = -1,
        last_durable_step: int = -1,
    ) -> None:
        super().__init__(message)
        self.step = step
        self.parked_messages = tuple(parked_messages)
        self.blocking_flush = blocking_flush
        self.pending_flushes = tuple(pending_flushes)
        self.shard_id = shard_id
        self.epoch = epoch
        self.last_durable_step = last_durable_step

    def __reduce__(self):
        # See JournalCorruptionError.__reduce__: keep the stall state
        # (step, shard, parked messages, ...) across pickling so a
        # worker process can report a diagnosable failure to its parent.
        return (type(self), self.args, dict(self.__dict__))
