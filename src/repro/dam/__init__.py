"""Disk Access Machine (DAM) model: schedules, simulation, validation.

The DAM model (Aggarwal & Vitter) charges one IO per time step; in one IO
up to ``P`` disjoint sets of ``B`` contiguous elements move.  For WORMS,
one time step therefore performs up to ``P`` flushes of up to ``B``
messages each (Section 2.1 of the paper).

* :mod:`repro.dam.schedule` — the :class:`Flush`/:class:`FlushSchedule`
  data types every scheduler produces, :class:`FlushLog`, a realized
  schedule held flat, and :class:`LogDigest`, what a journal checkpoint
  keeps of one.
* :mod:`repro.dam.simulator` — replays a schedule against a WORMS instance,
  tracking message locations, completion times, and node occupancy.
* :mod:`repro.dam.validator` — checks the paper's validity conditions
  (valid / overfilling) and raises precise errors.
"""

from repro.dam.journal import (
    JournalScan,
    JournalWriter,
    RecoveryManager,
    RecoveryReport,
    scan_journal,
)
from repro.dam.schedule import (
    Flush,
    FlushLog,
    FlushPlan,
    FlushSchedule,
    LogDigest,
)
from repro.dam.simulator import SimulationResult, simulate
from repro.dam.trace import (
    CheckpointRecord,
    ScheduleTrace,
    checkpoint_at,
    record_trace,
    resume_simulation,
)
from repro.dam.validator import (
    validate_overfilling,
    validate_recovery,
    validate_valid,
)

__all__ = [
    "Flush",
    "FlushLog",
    "FlushPlan",
    "FlushSchedule",
    "LogDigest",
    "simulate",
    "SimulationResult",
    "validate_valid",
    "validate_overfilling",
    "validate_recovery",
    "ScheduleTrace",
    "CheckpointRecord",
    "record_trace",
    "checkpoint_at",
    "resume_simulation",
    "JournalWriter",
    "JournalScan",
    "RecoveryManager",
    "RecoveryReport",
    "scan_journal",
]
