"""Fault injection for the DAM machine: plans, injectors, events.

The paper's guarantees assume a fault-free DAM machine — every scheduled
flush succeeds and every IO completes in its step.  This package models
the transient failures real write-optimized stores see and is consumed
by two layers:

* :func:`repro.dam.simulator.simulate` accepts an injector for
  *open-loop* replay (what happens to a fixed schedule under faults —
  it breaks, and the violation report shows how);
* :class:`repro.policies.executor.GatedExecutor` consults an
  injector *closed-loop* while executing, retrying and re-planning so
  the realized schedule stays valid (see ``docs/MODEL.md``).
"""

from repro.faults.bursts import (
    BurstInjector,
    BurstPlan,
    PHASE_CALM,
    PHASE_FAILED,
    PHASE_PARTIAL,
    PHASE_STALL,
    make_injector,
)
from repro.faults.chaos import (
    CHAOS_CORRUPT,
    CHAOS_DISK_FAULT,
    CHAOS_KILL,
    CHAOS_KILL_WORKER,
    CHAOS_KINDS,
    CHAOS_STALL,
    ChaosConfig,
    ChaosEvent,
    ChaosInjector,
    ChaosPlan,
)
from repro.faults.crashes import (
    flip_byte,
    tear_last_record,
    truncate_at,
)
from repro.faults.iofaults import (
    CHAOS_DISK_FAULT_SPECS,
    FaultFS,
    FaultRule,
    chaos_disk_fault_spec,
    classify_path,
    parse_plan,
    parse_rule,
)
from repro.faults.injector import (
    FaultEvent,
    FaultInjector,
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_PARTIAL,
)
from repro.faults.plan import (
    DEGRADED_P,
    FAILED_FLUSH,
    FAULT_KINDS,
    FaultPlan,
    NODE_STALL,
    PARTIAL_FLUSH,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultEvent",
    "BurstPlan",
    "BurstInjector",
    "make_injector",
    "PHASE_CALM",
    "PHASE_STALL",
    "PHASE_PARTIAL",
    "PHASE_FAILED",
    "ChaosConfig",
    "ChaosEvent",
    "ChaosInjector",
    "ChaosPlan",
    "CHAOS_KILL",
    "CHAOS_STALL",
    "CHAOS_CORRUPT",
    "CHAOS_KILL_WORKER",
    "CHAOS_DISK_FAULT",
    "CHAOS_KINDS",
    "FaultFS",
    "FaultRule",
    "parse_plan",
    "parse_rule",
    "classify_path",
    "chaos_disk_fault_spec",
    "CHAOS_DISK_FAULT_SPECS",
    "truncate_at",
    "tear_last_record",
    "flip_byte",
    "FAULT_KINDS",
    "FAILED_FLUSH",
    "PARTIAL_FLUSH",
    "NODE_STALL",
    "DEGRADED_P",
    "OUTCOME_OK",
    "OUTCOME_FAILED",
    "OUTCOME_PARTIAL",
]
