"""Raise-style validation wrappers around the simulator.

:func:`~repro.dam.simulator.simulate` returns the full diagnosis; the
``validate_*`` functions raise
:class:`~repro.util.errors.InvalidScheduleError` with the first few
violations formatted, which is what tests and the pipeline's internal
assertions want.  :func:`validate_recovery` checks the
crash/recovery contract: resuming from a trace checkpoint must reproduce
the uninterrupted run's completion times exactly.
"""

from __future__ import annotations

from repro.core.worms import WORMSInstance
from repro.dam.schedule import FlushSchedule
from repro.dam.simulator import SimulationResult, Violation, simulate
from repro.util.errors import InvalidScheduleError

#: How many violations to include in an exception message.
_REPORT_LIMIT = 5


def _raise(header: str, violations: list[Violation]) -> None:
    shown = "\n  ".join(repr(v) for v in violations[:_REPORT_LIMIT])
    extra = len(violations) - _REPORT_LIMIT
    if extra > 0:
        shown += f"\n  ... and {extra} more"
    raise InvalidScheduleError(f"{header}:\n  {shown}")


def validate_overfilling(
    instance: WORMSInstance, schedule: FlushSchedule
) -> SimulationResult:
    """Check the *overfilling* conditions (flush validity + completion).

    Space-requirement violations are permitted.  Returns the simulation
    result on success; raises :class:`InvalidScheduleError` otherwise.
    """
    result = simulate(instance, schedule)
    if result.violations:
        _raise("schedule is not overfilling", result.violations)
    return result


def validate_valid(
    instance: WORMSInstance, schedule: FlushSchedule
) -> SimulationResult:
    """Check full validity (overfilling + space requirement).

    Returns the simulation result on success; raises
    :class:`InvalidScheduleError` otherwise.
    """
    result = simulate(instance, schedule)
    if result.violations:
        _raise("schedule is not overfilling", result.violations)
    if result.space_violations:
        _raise("schedule violates the space requirement", result.space_violations)
    return result


def validate_recovery(
    instance: WORMSInstance,
    schedule: FlushSchedule,
    checkpoint,
) -> SimulationResult:
    """Check that resuming from ``checkpoint`` matches the full replay.

    Runs the schedule uninterrupted, resumes it from ``checkpoint`` (a
    :class:`~repro.dam.trace.CheckpointRecord`), and raises
    :class:`InvalidScheduleError` on any completion-time divergence —
    that would mean the checkpoint state is stale or belongs to a
    different schedule.  Returns the recovered result on success.
    """
    from repro.dam.trace import resume_simulation  # avoid import cycle

    full = simulate(instance, schedule)
    recovered = resume_simulation(instance, schedule, checkpoint)
    mismatches = [
        (m, int(full.completion_times[m]), int(recovered.completion_times[m]))
        for m in range(instance.n_messages)
        if int(full.completion_times[m]) != int(recovered.completion_times[m])
    ]
    if mismatches:
        shown = ", ".join(
            f"msg {m}: full={a} recovered={b}" for m, a, b in mismatches[:_REPORT_LIMIT]
        )
        extra = len(mismatches) - _REPORT_LIMIT
        if extra > 0:
            shown += f", ... and {extra} more"
        raise InvalidScheduleError(
            f"recovery from checkpoint at step {checkpoint.step} diverges "
            f"from the uninterrupted run: {shown}"
        )
    return recovered
