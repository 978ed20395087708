"""Resilience analysis: completion-time inflation under injected faults.

For each policy, the sweep takes the policy's planned flush order,
executes it closed-loop through :class:`GatedExecutor` under a
parameterized :class:`FaultPlan`, validates the realized schedule with
the fault-free validator (resilient execution must never trade validity
for progress), and reports mean and p99 completion-time inflation
relative to the same policy's own fault-free execution.

This is the experiment "On Performance Stability in LSM-based Storage
Systems" motivates: it is not the *average* that faults destroy first
but the *tail*, and policies differ sharply in how gracefully their
tails degrade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.stats import summarize
from repro.core.worms import WORMSInstance
from repro.dam.schedule import Flush, FlushSchedule
from repro.dam.validator import validate_valid
from repro.faults.bursts import make_injector
from repro.util.errors import ExecutionStalledError
from repro.policies.base import Policy
from repro.policies.eager import EagerPolicy
from repro.policies.greedy_batch import GreedyBatchPolicy
from repro.policies.lazy_threshold import LazyThresholdPolicy
from repro.policies.online import OnlineDensityPolicy
from repro.policies.executor import (
    DEFAULT_RETRY_BUDGET,
    GatedExecutor,
    ResilienceStats,
)
from repro.policies.worms_policy import WormsPolicy


def default_resilience_policies() -> "list[Policy]":
    """The five policies the resilience report compares."""
    return [
        EagerPolicy(),
        LazyThresholdPolicy(),
        GreedyBatchPolicy(),
        WormsPolicy(),
        OnlineDensityPolicy(),
    ]


@dataclass(frozen=True)
class ResilienceCell:
    """One (policy, fault rate) cell of the resilience sweep."""

    policy: str
    fault_rate: float
    mean: float
    p99: float
    max: int
    n_steps: int
    #: mean / p99 completion time over the policy's own fault-free run.
    mean_inflation: float
    p99_inflation: float
    #: what the recovery machinery did (retries, redeliveries, replans).
    stats: ResilienceStats
    #: set when recovery was exhausted and execution raised
    #: :class:`ExecutionStalledError` — the cell then carries the error's
    #: diagnostics instead of completion statistics.
    stalled: bool = False
    stalled_step: int = -1
    parked: int = 0
    blocking: str = ""

    def row(self) -> "list":
        """Flat row for bench tables."""
        if self.stalled:
            stall = f"@{self.stalled_step}:{self.parked}p"
        else:
            stall = "-"
        return [
            self.policy,
            self.fault_rate,
            "-" if self.stalled else round(self.mean, 1),
            "-" if self.stalled else round(self.p99, 1),
            self.n_steps,
            "-" if self.stalled else round(self.mean_inflation, 2),
            "-" if self.stalled else round(self.p99_inflation, 2),
            self.stats.failed_attempts + self.stats.partial_deliveries,
            self.stats.replans,
            stall,
        ]


def _ordered_flushes(schedule: FlushSchedule) -> "list[Flush]":
    """A schedule's flushes in time order = the executor priority order."""
    return [f for _t, f in schedule.iter_timed()]


def resilience_sweep(
    instance: WORMSInstance,
    policies: "Iterable[Policy] | None" = None,
    *,
    fault_rates: Sequence[float] = (0.05, 0.1, 0.2),
    seed: int = 0,
    retry_budget: int = DEFAULT_RETRY_BUDGET,
    max_replans: int = 4,
    burst: bool = False,
) -> "list[ResilienceCell]":
    """Run every policy under every fault rate; returns one cell per pair.

    Each policy's planned order is first executed fault-free through the
    same executor (the zero-overhead path: no fault query is made) to
    establish its baseline; inflation is relative
    to that baseline, so the numbers isolate *fault* cost from policy
    cost.  All realized schedules are validated.

    With ``burst=True`` each rate parameterizes a Markov-modulated
    :class:`~repro.faults.BurstInjector` (correlated stall -> partial ->
    failed escalation on a random subtree) instead of independent
    per-flush faults.  A cell whose execution exhausts recovery is
    reported with the :class:`ExecutionStalledError` diagnostics (stall
    step, parked messages, blocking flush) rather than aborting the
    whole sweep.
    """
    if policies is None:
        policies = default_resilience_policies()
    cells: list[ResilienceCell] = []
    for policy in policies:
        ordered = _ordered_flushes(policy.schedule(instance))
        clean_exec = GatedExecutor(instance)
        clean_sched = clean_exec.run(list(ordered))
        clean = validate_valid(instance, clean_sched)
        clean_stats = summarize(clean.completion_times, clean_sched.n_steps)
        for rate in fault_rates:
            executor = GatedExecutor(
                instance,
                make_injector(rate, burst=burst, seed=seed,
                              topology=instance.topology),
                retry_budget=retry_budget,
                max_replans=max_replans,
            )
            try:
                sched = executor.run(list(ordered))
            except ExecutionStalledError as exc:
                cells.append(
                    ResilienceCell(
                        policy=policy.name,
                        fault_rate=rate,
                        mean=float("nan"),
                        p99=float("nan"),
                        max=0,
                        n_steps=exc.step,
                        mean_inflation=float("nan"),
                        p99_inflation=float("nan"),
                        stats=executor.stats,
                        stalled=True,
                        stalled_step=exc.step,
                        parked=len(exc.parked_messages),
                        blocking=repr(exc.blocking_flush),
                    )
                )
                continue
            sim = validate_valid(instance, sched)
            s = summarize(sim.completion_times, sched.n_steps)
            cells.append(
                ResilienceCell(
                    policy=policy.name,
                    fault_rate=rate,
                    mean=s.mean,
                    p99=s.p99,
                    max=s.max,
                    n_steps=s.n_steps,
                    mean_inflation=s.mean / max(clean_stats.mean, 1e-9),
                    p99_inflation=s.p99 / max(clean_stats.p99, 1e-9),
                    stats=executor.stats,
                )
            )
    return cells


def format_resilience_report(
    cells: "list[ResilienceCell]", *, title: str = "resilience under faults"
) -> str:
    """Render sweep cells as the aligned table the CLI and bench print."""
    headers = ["policy", "rate", "mean", "p99", "IOs",
               "mean-x", "p99-x", "retries", "replans", "stalled"]
    rows = [c.row() for c in cells]
    widths = [
        max(len(h), *(len(str(v)) for v in col)) if rows else len(h)
        for h, col in zip(headers, zip(*rows) if rows else [[]] * len(headers))
    ]
    lines = [f"== {title} =="]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))
    lines.append(
        "note: mean-x/p99-x = completion-time inflation vs the policy's own "
        "fault-free run; retries = failed + partial flush attempts; "
        "stalled = @step:parked-count when recovery was exhausted."
    )
    return "\n".join(lines)
