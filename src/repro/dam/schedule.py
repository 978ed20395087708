"""Flush-schedule data types.

A *flush* moves up to ``B`` messages across one tree edge; a *schedule* is
a sequence of time steps, each holding at most ``P`` flushes (Section 2.1).
These types are deliberately dumb containers — all semantics (message
locations, space requirements) live in the simulator/validator so that a
schedule can be inspected, sliced, and serialized freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

_set = object.__setattr__


@dataclass(frozen=True, slots=True)
class Flush:
    """Move ``messages`` from node ``src`` to its child ``dest``."""

    src: int
    dest: int
    messages: tuple[int, ...]

    def __post_init__(self) -> None:
        # Normalize: deterministic ordering makes schedules comparable.
        object.__setattr__(self, "messages", tuple(sorted(self.messages)))

    @classmethod
    def presorted(
        cls, src: int, dest: int, messages: tuple[int, ...]
    ) -> "Flush":
        """A flush whose ``messages`` tuple is already in ascending order.

        Skips the normalizing sort of ``__init__``; the planning kernel
        emits its flushes this way (its message tuples are sorted by
        construction).  The caller guarantees the order.
        """
        flush = object.__new__(cls)
        _set(flush, "src", src)
        _set(flush, "dest", dest)
        _set(flush, "messages", messages)
        return flush

    @property
    def size(self) -> int:
        """Number of messages moved by this flush."""
        return len(self.messages)

    def __repr__(self) -> str:
        return f"Flush({self.src}->{self.dest}, {len(self.messages)} msgs)"


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
        while len(self.steps) < time_step:
            self.steps.append([])
        self.steps[time_step - 1].append(flush)

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
