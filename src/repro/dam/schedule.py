"""Flush-schedule data types.

A *flush* moves up to ``B`` messages across one tree edge; a *schedule* is
a sequence of time steps, each holding at most ``P`` flushes (Section 2.1).
These types are deliberately dumb containers — all semantics (message
locations, space requirements) live in the simulator/validator so that a
schedule can be inspected, sliced, and serialized freely.

An *executed* flush has one layout, a :class:`FlushLog` run; a journal
checkpoint carries each log's :class:`LogDigest` through its step.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator

_BIG_ENDIAN = sys.byteorder == "big"


@dataclass(frozen=True, slots=True)
class Flush:
    """Move ``messages`` from node ``src`` to its child ``dest``."""

    src: int
    dest: int
    messages: tuple[int, ...]

    def __post_init__(self) -> None:
        # Normalize: deterministic ordering makes schedules comparable.
        object.__setattr__(self, "messages", tuple(sorted(self.messages)))

    @property
    def size(self) -> int:
        """Number of messages moved by this flush."""
        return len(self.messages)

    def __repr__(self) -> str:
        return f"Flush({self.src}->{self.dest}, {len(self.messages)} msgs)"


@dataclass(slots=True)
class FlushPlan:
    """A priority-ordered flush list as parallel lists: what the planner
    returns and the flush gate takes.

    Flush ``i`` moves ``msgs[i]`` (ascending ids) from ``src[i]`` to its
    child ``dest[i]``; ``parking[i]`` of those messages do not complete
    at ``dest[i]`` (the gate's admission cost).
    """

    src: list[int]
    dest: list[int]
    msgs: list[tuple[int, ...]]
    parking: list[int]

    @classmethod
    def of(cls, flushes: "Iterable[Flush]", targets) -> "FlushPlan":
        """The plan of a :class:`Flush` list; ``targets[m]`` is message
        ``m``'s target (a list or a mapping)."""
        flushes = list(flushes)
        return cls(
            [f.src for f in flushes],
            [f.dest for f in flushes],
            [f.messages for f in flushes],
            [
                sum(1 for m in f.messages if targets[m] != f.dest)
                for f in flushes
            ],
        )

    def flushes(self) -> "list[Flush]":
        """The plan as :class:`Flush` objects, in order."""
        return list(map(Flush, self.src, self.dest, self.msgs))

    def __len__(self) -> int:
        return len(self.src)


@dataclass
class FlushSchedule:
    """A sequence of time steps; ``steps[t]`` holds the flushes at step t+1.

    Time steps are 1-based in the paper; ``steps[0]`` is time step 1.
    """

    steps: list[list[Flush]] = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        """Number of time steps (= total IO cost of running the schedule)."""
        return len(self.steps)

    @property
    def n_flushes(self) -> int:
        """Total number of flushes across all steps."""
        return sum(len(step) for step in self.steps)

    @property
    def n_message_moves(self) -> int:
        """Total message-hops performed (work measure)."""
        return sum(f.size for step in self.steps for f in step)

    def add(self, time_step: int, flush: Flush) -> None:
        """Place ``flush`` at 1-based ``time_step``, growing as needed."""
        if time_step < 1:
            raise ValueError(f"time steps are 1-based, got {time_step}")
        steps = self.steps
        while len(steps) < time_step:
            steps.append([])
        steps[time_step - 1].append(flush)

    def flushes_at(self, time_step: int) -> list[Flush]:
        """Flushes scheduled at 1-based ``time_step`` (empty if beyond end)."""
        if 1 <= time_step <= len(self.steps):
            return self.steps[time_step - 1]
        return []

    def iter_timed(self) -> Iterator[tuple[int, Flush]]:
        """Yield ``(time_step, flush)`` pairs in time order (1-based)."""
        for i, step in enumerate(self.steps, start=1):
            for flush in step:
                yield i, flush

    def trim(self) -> "FlushSchedule":
        """Drop trailing empty steps in place; returns self for chaining."""
        while self.steps and not self.steps[-1]:
            self.steps.pop()
        return self

    def max_parallelism(self) -> int:
        """Largest number of flushes in any single step."""
        return max((len(step) for step in self.steps), default=0)

    @classmethod
    def from_timed(cls, timed: Iterable[tuple[int, Flush]]) -> "FlushSchedule":
        """Build a schedule from ``(time_step, flush)`` pairs (1-based)."""
        sched = cls()
        for t, flush in timed:
            sched.add(t, flush)
        return sched

    def __repr__(self) -> str:
        return f"FlushSchedule({self.n_steps} steps, {self.n_flushes} flushes)"


class FlushLog:
    """A realized schedule held flat, in step order: :attr:`runs` is one
    ``i32`` array in which each executed flush is a ``t, src, dest, n,
    m1..mn`` run, its message ids ascending (as :class:`Flush` sorts
    them).  :meth:`schedule` builds the objects only when read."""

    __slots__ = ("runs",)

    def __init__(self, runs=()) -> None:
        self.runs = array("i", runs)

    def append(self, t: int, src: int, dest: int, msgs) -> None:
        """Log a flush of ``msgs`` (ascending) at step ``t``."""
        runs = self.runs
        runs.extend((t, src, dest, len(msgs)))
        runs.extend(msgs)

    def __iter__(self) -> Iterator[tuple[int, int, int, tuple[int, ...]]]:
        """``(t, src, dest, msgs)`` of each flush, in log order."""
        runs = self.runs
        i, end = 0, len(runs)
        while i < end:
            t, src, dest, n = runs[i:i + 4]
            j = i + 4 + n
            yield t, src, dest, tuple(runs[i + 4:j])
            i = j

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def schedule(self) -> FlushSchedule:
        """The log as a :class:`FlushSchedule`."""
        schedule = FlushSchedule()
        for t, src, dest, msgs in self:
            schedule.add(t, Flush(src, dest, msgs))
        return schedule


class LogDigest:
    """The running digest of one :class:`FlushLog` through a step: how
    many flushes its runs hold up to there, and an 8-byte BLAKE2b of
    those runs as little-endian ``i32`` words.

    :meth:`advance` hashes only the runs appended since the previous
    call, and stops at the first run past the step, so a log that
    already holds later steps (a process driver merges a chunk ahead)
    is digested through the step alone.  Steps passed must not
    decrease.
    """

    __slots__ = ("flushes", "_offset", "_hash")

    def __init__(self) -> None:
        #: flushes digested so far.
        self.flushes = 0
        self._offset = 0
        self._hash = hashlib.blake2b(digest_size=8)

    def advance(self, log: FlushLog, step: int) -> bytes:
        """The digest of ``log`` through ``step``."""
        runs = log.runs
        lo = i = self._offset
        end = len(runs)
        n = 0
        while i < end and runs[i] <= step:
            i += 4 + runs[i + 3]
            n += 1
        if n:
            chunk = runs[lo:i]
            if _BIG_ENDIAN:
                chunk.byteswap()
            self._hash.update(chunk)
            self._offset = i
            self.flushes += n
        return self._hash.digest()


def log_digest(log: FlushLog, step: int) -> "tuple[int, bytes]":
    """``(flushes, digest)`` of ``log`` through ``step``
    (:class:`LogDigest` from scratch)."""
    digest = LogDigest()
    value = digest.advance(log, step)
    return digest.flushes, value
