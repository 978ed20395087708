"""Fault-tolerant execution of priority-ordered flush lists.

:class:`ResilientExecutor` is the batch adapter of
:class:`~repro.policies.executor.GatedExecutor` with a fault source
attached (see :mod:`repro.faults`).  The per-step recovery semantics
live in the one flush gate,
:meth:`repro.policies.engine.ShardEngine.step`:

* **bounded retry with exponential backoff** — a flush that fails (or
  partially applies) stays in the priority order but becomes eligible
  again only after ``2^(attempts-1)`` steps, so a flaky edge does not
  monopolize IO slots;
* **re-admission** — the undelivered remainder of a partial flush
  replaces the original flush at the *same* priority position, so
  redelivery keeps the intended order;
* **fault-aware admission** (``fault_aware=True``, off by default) — a
  node observed stalled is remembered until its window closes
  (:meth:`~repro.faults.injector.FaultInjector.stall_window_end`) and
  flushes touching it are parked without re-probing; while capacity is
  degraded (``effective_p < P``) the scarce slots go to *completion*
  flushes (flushes that park nothing) first, so tail latency degrades
  before throughput does.  Both only engage while a fault window is
  active.

This module adds the batch-only rungs of the recovery ladder on top:

* **waiting** — a step where nothing could be attempted because of a
  stall window or backoff is a real (idle) step, not rolled back;
* **re-planning** — when some flush exhausts its retry budget, or the
  executor deadlocks outright (non-laminar input), the surviving
  in-flight messages are re-planned from their current locations: the
  WORMS pipeline (reduction -> MPHTF -> Lemma 8 order) when everything
  still sits at the root, the density-guided online scheduler (which
  natively handles mid-tree starts) otherwise.  The new flush list
  replaces the pending tail and execution continues;
* **graceful failure** — if re-planning is also exhausted, or the run
  passes ``max_steps``, the executor raises
  :class:`~repro.util.errors.ExecutionStalledError` carrying the
  parked-message state instead of looping forever.

**Durability** (``journal=``): like :class:`GatedExecutor`, the realized
flushes, observed fault outcomes, and periodic checkpoints stream into a
crash-consistent journal (:mod:`repro.dam.journal`).

Zero-overhead fault path: with ``injector=None`` (or an all-zero
:class:`~repro.faults.FaultPlan`) the gate makes exactly the decisions
of :meth:`GatedExecutor.run`, so the realized schedule is byte-identical
— resilience costs nothing until a fault actually fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.worms import WORMSInstance
from repro.dam.schedule import Flush
from repro.faults.injector import FaultInjector
from repro.obs.hooks import current_obs
from repro.policies.engine import ShardEngine
from repro.policies.executor import DEFAULT_CHECKPOINT_EVERY, GatedExecutor
from repro.util.errors import ReproError

#: Flush attempts allowed before re-planning (``run``/``faults`` default).
DEFAULT_RETRY_BUDGET = 5


@dataclass
class ResilienceStats:
    """Counters describing what recovery machinery actually did."""

    failed_attempts: int = 0
    partial_deliveries: int = 0
    stalled_skips: int = 0
    replans: int = 0
    wait_steps: int = 0
    #: flushes parked by fault-aware admission without probing the node.
    fault_aware_skips: int = 0
    #: steps where degraded capacity made admission prefer completions.
    degraded_triage_steps: int = 0
    fault_events: list = field(default_factory=list)


def worms_replan(
    instance: WORMSInstance, remaining: "list[int]", location: "list[int]"
) -> "list[Flush]":
    """Default re-planning hook: a fresh priority order for ``remaining``.

    The serving planner's rule, :func:`repro.serve.planner.plan_flushes`,
    on the messages' *current* locations: if everything is still at the
    root the paper's pipeline applies verbatim (reduction -> MPHTF -> the
    Lemma 8 flush order); with mid-tree survivors the reduction does not
    apply (it requires root starts), so the density-guided online
    scheduler — valid by construction from arbitrary start nodes —
    provides the order instead.  Returned flushes use original message
    ids.
    """
    # Imported here: ``repro.serve`` pulls in the whole serving package,
    # which batch users of this module never need.
    from repro.serve.planner import plan_flushes

    return plan_flushes(
        instance.topology, instance.P, instance.B, remaining,
        instance.targets.tolist(), location,
        allow_internal_targets=instance.allow_internal_targets,
    )


class ResilientExecutor(GatedExecutor):
    """Gated executor + retry/backoff/re-planning under fault injection.

    :meth:`run` returns the realized schedule, which records only what
    *succeeded* (a partial delivery appears as the delivered subset), so
    it is always a valid schedule of the fault-free model and can be
    checked with :func:`repro.dam.validator.validate_valid`.

    Parameters
    ----------
    instance:
        The WORMS instance being executed.
    injector:
        Fault source consulted every step; ``None`` (or a zero plan)
        means fault-free execution identical to :class:`GatedExecutor`.
    retry_budget:
        Attempts allowed per flush before re-planning kicks in.
    max_replans:
        Re-planning rounds allowed before giving up with
        :class:`ExecutionStalledError`.
    replanner:
        Hook ``(instance, remaining_msg_ids, location) -> list[Flush]``;
        defaults to :func:`worms_replan`.
    max_steps:
        Hard ceiling on simulated steps (a diagnosable backstop against
        pathological fault plans); defaults to a generous multiple of
        the instance's total work.
    fault_aware:
        Enable fault-aware admission (see module docstring).  Off by
        default; has zero effect while no fault window is active.
    journal / checkpoint_every:
        Crash-consistent journaling, as in :class:`GatedExecutor`.
    """

    _span_name = "executor.resilient_run"

    def __init__(
        self,
        instance: WORMSInstance,
        injector: "FaultInjector | None" = None,
        *,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
        max_replans: int = 2,
        replanner=None,
        max_steps: "int | None" = None,
        fault_aware: bool = False,
        journal=None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        super().__init__(instance, journal=journal,
                         checkpoint_every=checkpoint_every)
        if injector is not None and injector.is_zero_plan:
            injector = None  # zero plan == no injector: skip all fault queries
        self.injector = injector
        self.retry_budget = max(1, int(retry_budget))
        self.max_replans = max(0, int(max_replans))
        self.replanner = replanner if replanner is not None else worms_replan
        if max_steps is None:
            work = max(1, instance.total_work())
            max_steps = 1000 + 50 * work
        self.max_steps = max_steps
        self.fault_aware = bool(fault_aware)
        self.stats = ResilienceStats()
        self._replans = 0

    # -- batch rules on top of the gate ---------------------------------
    def _drive(self, engine: ShardEngine, journal) -> None:
        self._replans = 0
        super()._drive(engine, journal)

    def _before_step(self, t: int, engine: ShardEngine) -> None:
        if t > self.max_steps:
            raise self._stalled(
                f"resilient executor exceeded max_steps={self.max_steps}",
                t, engine,
            )

    def _waited(self) -> None:
        self.stats.wait_steps += 1

    def _after_step(self, t: int, engine: ShardEngine) -> None:
        if engine.retries >= self.retry_budget and engine.pending_flushes:
            self._replan(t, engine, "retry budget exhausted")

    def _deadlocked(self, t: int, engine: ShardEngine) -> None:
        # The idle step is rolled back before re-planning.
        self._replan(t - 1, engine, "deadlocked (flush list is not laminar?)")

    def _collect(self, engine: ShardEngine) -> None:
        """Fold the engine's fault counters into :attr:`stats`."""
        counts, stats = engine.stats, self.stats
        stats.failed_attempts += counts.failed_attempts
        stats.partial_deliveries += counts.partial_deliveries
        stats.stalled_skips += counts.stalled_skips
        stats.fault_aware_skips += counts.fault_aware_skips
        stats.degraded_triage_steps += counts.degraded_triage_steps
        # Only a completed run publishes the injector's event log.
        if engine.pending_flushes == 0 and self.injector is not None:
            stats.fault_events = list(self.injector.events)

    def _record_metrics(self, metrics) -> None:
        stats = self.stats
        metrics.counter(
            "executor_retries_total", "failed flush attempts retried"
        ).inc(stats.failed_attempts)
        metrics.counter(
            "executor_partial_deliveries_total",
            "flushes that delivered a strict subset",
        ).inc(stats.partial_deliveries)
        metrics.counter(
            "executor_replans_total", "mid-run re-planning rounds"
        ).inc(stats.replans)
        metrics.counter(
            "executor_wait_steps_total",
            "steps idled waiting out fault windows/backoff",
        ).inc(stats.wait_steps)
        metrics.counter(
            "executor_stalled_skips_total",
            "flushes skipped because a node was observed stalled",
        ).inc(stats.stalled_skips)

    def _replan(self, t: int, engine: ShardEngine, reason: str) -> None:
        """Re-plan the surviving messages, or raise if out of options."""
        replans = self._replans
        if replans >= self.max_replans:
            raise self._stalled(
                f"resilient executor stalled ({reason}; "
                f"{replans} replan(s) already used)",
                t, engine,
            )
        remaining = sorted(engine.location)
        location = self._locations(engine)
        obs = current_obs()
        with obs.tracer.span(
            "executor.replan", category="executor",
            reason=reason, remaining=len(remaining), step=t,
        ):
            try:
                new_flushes = self.replanner(
                    self.instance, remaining, location
                )
            except ReproError as exc:
                raise self._stalled(
                    f"resilient executor stalled ({reason}; "
                    f"replan failed: {exc})",
                    t, engine,
                ) from exc
        if not new_flushes and remaining:
            raise self._stalled(
                f"resilient executor stalled ({reason}; replanner returned "
                "no flushes for surviving messages)",
                t, engine,
            )
        self.stats.replans += 1
        self._replans += 1
        engine.set_plan(new_flushes)
