"""IO-trace recording: what a schedule does, step by step.

Replaying a schedule with :func:`record_trace` produces a
:class:`ScheduleTrace` with per-step aggregates that the analysis layer
and operators care about:

* slot utilization (flushes used vs ``P``) and payload utilization
  (messages moved vs ``P * B``) per step;
* message moves per tree level per step (where in the tree the work
  happens over time — cascades and drain phases are visible here);
* cumulative completions over time (the purge-progress curve).

**Crash/recovery:** traces can carry :class:`CheckpointRecord` entries —
JSON-serializable snapshots of the machine state (message locations and
completion steps) at the *end* of a step.  A run killed at step ``t``
can be resumed from the latest checkpoint with
:func:`resume_simulation`, and the recovered completion times are
guaranteed to match an uninterrupted replay
(:func:`repro.dam.validator.validate_recovery` checks exactly that).

The trace assumes the schedule is already validated; it does not re-check
constraints (use :mod:`repro.dam.validator` for that).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.worms import WORMSInstance
from repro.dam.schedule import FlushSchedule
from repro.dam.simulator import SimulationResult
from repro.util.errors import InvalidScheduleError


@dataclass(frozen=True)
class CheckpointRecord:
    """Machine state at the *end* of 1-based step ``step``.

    ``locations[i]`` is message ``i``'s node at the start of step
    ``step + 1``; ``completions[i]`` is its completion step, or 0 if it
    is still in flight.  Records are plain data and JSON-round-trippable
    so they can be persisted alongside a trace and used to resume a
    killed run.
    """

    step: int
    locations: tuple[int, ...]
    completions: tuple[int, ...]

    def to_json(self) -> str:
        """Serialize to a single JSON line (trace-file friendly)."""
        return json.dumps(
            {
                "type": "checkpoint",
                "step": self.step,
                "locations": list(self.locations),
                "completions": list(self.completions),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CheckpointRecord":
        """Inverse of :meth:`to_json`."""
        data = json.loads(text)
        if data.get("type") != "checkpoint":
            raise InvalidScheduleError(
                f"not a checkpoint record: {text[:80]!r}"
            )
        return cls(
            step=int(data["step"]),
            locations=tuple(int(v) for v in data["locations"]),
            completions=tuple(int(v) for v in data["completions"]),
        )


@dataclass(frozen=True)
class ScheduleTrace:
    """Per-step aggregates of a flush schedule (all arrays step-indexed)."""

    n_steps: int
    #: flushes used per step (<= P).
    flushes_per_step: np.ndarray
    #: messages moved per step (<= P * B).
    moves_per_step: np.ndarray
    #: moves_by_level[t, d] = messages crossing edges into depth d+1 at step t.
    moves_by_level: np.ndarray
    #: completions[t] = messages completed at step t+1 (1-based steps).
    completions_per_step: np.ndarray
    P: int
    B: int
    #: periodic state snapshots (empty unless requested at record time).
    checkpoints: tuple[CheckpointRecord, ...] = ()

    def latest_checkpoint_before(self, step: int) -> "CheckpointRecord | None":
        """The newest checkpoint with ``checkpoint.step <= step``."""
        best = None
        for cp in self.checkpoints:
            if cp.step <= step and (best is None or cp.step > best.step):
                best = cp
        return best

    @property
    def slot_utilization(self) -> np.ndarray:
        """Fraction of the ``P`` flush slots used per step."""
        if self.P == 0:
            return np.zeros(self.n_steps)
        return self.flushes_per_step / self.P

    @property
    def payload_utilization(self) -> np.ndarray:
        """Fraction of the ``P * B`` message-move capacity used per step."""
        cap = self.P * self.B
        return self.moves_per_step / cap if cap else np.zeros(self.n_steps)

    def cumulative_completions(self) -> np.ndarray:
        """Running total of completed messages after each step."""
        return np.cumsum(self.completions_per_step)

    def summary_lines(self) -> list[str]:
        """Human-readable trace summary (used by examples and the CLI)."""
        lines = [
            f"steps: {self.n_steps}",
            f"mean slot utilization: {self.slot_utilization.mean():.2f}",
            f"mean payload utilization: {self.payload_utilization.mean():.2f}",
        ]
        levels = self.moves_by_level.sum(axis=0)
        for d, total in enumerate(levels):
            lines.append(f"moves into depth {d + 1}: {int(total)}")
        return lines


def record_trace(
    instance: WORMSInstance,
    schedule: FlushSchedule,
    *,
    checkpoint_every: "int | None" = None,
) -> ScheduleTrace:
    """Replay ``schedule`` and record the per-step aggregates.

    With ``checkpoint_every=k``, a :class:`CheckpointRecord` is captured
    for the initial state, after every ``k``-th step, and after the
    final step, enabling :func:`resume_simulation` from any of them.
    """
    topo = instance.topology
    heights = topo.heights
    n_steps = schedule.n_steps
    height = max(1, topo.height)
    flushes = np.zeros(n_steps, dtype=np.int64)
    moves = np.zeros(n_steps, dtype=np.int64)
    by_level = np.zeros((n_steps, height), dtype=np.int64)
    completions = np.zeros(n_steps, dtype=np.int64)
    targets = instance.targets

    checkpoints: list[CheckpointRecord] = []
    if checkpoint_every is not None:
        if checkpoint_every < 1:
            raise InvalidScheduleError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        location, completion = _initial_state(instance)
        # The initial state is checkpoint 0, so latest_checkpoint_before
        # always has an answer for any step >= 0.
        checkpoints.append(
            CheckpointRecord(0, tuple(location), tuple(completion))
        )
        for t, step_flushes in enumerate(schedule.steps, start=1):
            i = t - 1
            for flush in step_flushes:
                flushes[i] += 1
                moves[i] += flush.size
                depth = int(heights[flush.dest])
                by_level[i, depth - 1] += flush.size
            completions[i] += _apply_step(
                t, step_flushes, location, completion, targets
            )
            if t % checkpoint_every == 0 or t == n_steps:
                checkpoints.append(
                    CheckpointRecord(t, tuple(location), tuple(completion))
                )
    else:
        for t, flush in schedule.iter_timed():
            i = t - 1
            flushes[i] += 1
            moves[i] += flush.size
            depth = int(heights[flush.dest])  # edge enters this depth
            by_level[i, depth - 1] += flush.size
            completions[i] += sum(
                1 for m in flush.messages if int(targets[m]) == flush.dest
            )

    return ScheduleTrace(
        n_steps=n_steps,
        flushes_per_step=flushes,
        moves_per_step=moves,
        moves_by_level=by_level,
        completions_per_step=completions,
        P=instance.P,
        B=instance.B,
        checkpoints=tuple(checkpoints),
    )


# ----------------------------------------------------------------------
# Crash/recovery replay
# ----------------------------------------------------------------------
def _initial_state(instance: WORMSInstance) -> "tuple[list[int], list[int]]":
    """Start-of-run (locations, completions); same conventions as simulate."""
    location = [instance.start_of(m) for m in range(instance.n_messages)]
    completion = [0] * instance.n_messages
    return location, completion


def _apply_step(
    t: int,
    step_flushes,
    location: "list[int]",
    completion: "list[int]",
    targets,
) -> int:
    """Apply one step's flushes to the state; returns completions this step.

    Assumes a validated schedule — no violation checking (use the
    simulator for diagnosis).
    """
    return sum(
        _apply_flush(t, f.dest, f.messages, location, completion, targets)
        for f in step_flushes
    )


def _apply_flush(t: int, dest: int, msgs, location: "list[int]",
                 completion: "list[int]", targets) -> int:
    """:func:`_apply_step` for one flush of ``msgs`` into ``dest``."""
    done = 0
    for m in msgs:
        location[m] = dest
        if dest == int(targets[m]) and completion[m] == 0:
            completion[m] = t
            done += 1
    return done


def checkpoint_at(
    instance: WORMSInstance, schedule: FlushSchedule, step: int
) -> CheckpointRecord:
    """Replay steps ``1..step`` and snapshot the machine state.

    This is the state a run killed *after* step ``step`` would recover
    from; ``step`` may be 0 (the initial state) up to ``n_steps``.
    """
    if not (0 <= step <= schedule.n_steps):
        raise InvalidScheduleError(
            f"checkpoint step {step} outside schedule of {schedule.n_steps} "
            "steps"
        )
    targets = instance.targets
    location, completion = _initial_state(instance)
    for t in range(1, step + 1):
        _apply_step(t, schedule.steps[t - 1], location, completion, targets)
    return CheckpointRecord(step, tuple(location), tuple(completion))


def resume_simulation(
    instance: WORMSInstance,
    schedule: FlushSchedule,
    checkpoint: CheckpointRecord,
) -> SimulationResult:
    """Resume a killed run from ``checkpoint`` and finish the schedule.

    Replays only steps ``checkpoint.step + 1 .. n_steps`` on top of the
    recovered state; completions from before the kill come straight from
    the checkpoint.  For a checkpoint captured from the same schedule,
    the returned completion times are identical to an uninterrupted
    replay (``validate_recovery`` asserts this).
    """
    n = instance.n_messages
    if len(checkpoint.locations) != n or len(checkpoint.completions) != n:
        raise InvalidScheduleError(
            f"checkpoint is for {len(checkpoint.locations)} messages, "
            f"instance has {n}"
        )
    targets = instance.targets
    location = list(checkpoint.locations)
    completion = list(checkpoint.completions)
    for t in range(checkpoint.step + 1, schedule.n_steps + 1):
        _apply_step(t, schedule.steps[t - 1], location, completion, targets)
    return SimulationResult(
        completion_times=np.asarray(completion, dtype=np.int64),
        n_steps=schedule.n_steps,
    )
