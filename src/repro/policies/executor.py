"""The batch executor: priority-ordered flush lists, under faults too.

Given a list of flushes in a *desired priority order* (e.g. the Lemma 8
order induced by an MPHTF task schedule), :class:`GatedExecutor` replays
them under the DAM constraints, producing a schedule that is **valid by
construction**.  The gate itself — readiness, occupancy against ``B``,
the ``P`` slots, and with a fault source attached (see
:mod:`repro.faults`) stall-window skips, retry with exponential backoff
and re-admission of a partial flush's remainder at its priority slot —
is written once, in
:meth:`repro.policies.engine.ShardEngine.step`; this module is the
*dense-id batch adapter* around it.  :meth:`GatedExecutor.run` seeds one
engine with the instance's messages, hands it the whole flush list, and
steps it in a loop, adding the rules only a batch run has:

* a step that attempted nothing and is not waiting on a fault is rolled
  back (an idle step would inflate costs); a step spent waiting out a
  stall window or backoff is a real (idle) step;
* **re-planning** — when some flush exhausts its retry budget, or more
  than :data:`~repro.policies.engine.MAX_IDLE_STEPS` rolled-back steps
  in a row show a deadlock (a non-laminar list), the surviving in-flight
  messages are re-planned from their current locations
  (:func:`worms_replan`) and the new plan replaces the pending tail;
* **graceful failure** — with ``max_replans`` used up (0 for
  :func:`execute_flush_list`), or past ``max_steps``, the run raises
  :class:`~repro.util.errors.ExecutionStalledError` carrying the
  parked-message state instead of looping forever.

For laminar flush lists (every flush's messages arrived at its source in
a single earlier flush — which is exactly what the packed-set reduction
produces) a fault-free run never deadlocks: the deepest parked group
always has an admissible next flush, because nothing is parked below it.
With ``injector=None`` (or an all-zero
:class:`~repro.faults.FaultPlan`) no fault query is ever made, so
resilience costs nothing until a fault actually fires.

**Durability** (``journal=``): pass a path or an open
:class:`~repro.dam.journal.JournalWriter` and the executor streams a
:class:`~repro.dam.trace.CheckpointRecord` snapshot, with the digest of
the realized schedule so far, every ``checkpoint_every`` steps into a
crash-consistent journal, so a killed process can be resumed exactly
(see :mod:`repro.dam.journal`).  With ``journal=None``
(the default) no journal state is even allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.worms import WORMSInstance
from repro.dam.records import REC_CHECKPOINT, pack_batch_checkpoint
from repro.dam.schedule import (
    Flush,
    FlushLog,
    FlushPlan,
    FlushSchedule,
    LogDigest,
)
from repro.faults.injector import FaultInjector
from repro.obs.hooks import current_obs
from repro.obs.profile import PHASE_EXECUTE
from repro.policies.engine import MAX_IDLE_STEPS, ShardEngine
from repro.util.errors import (
    ExecutionStalledError,
    InvalidInstanceError,
    ReproError,
)

#: How many parked messages / pending flushes to list in an error message.
_DIAG_LIMIT = 5

#: Default checkpoint cadence (steps) when journaling is enabled.
DEFAULT_CHECKPOINT_EVERY = 32

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
    fault_events: list = field(default_factory=list)


def _replan_plan(
    instance: WORMSInstance, remaining: "list[int]", location: "list[int]"
) -> FlushPlan:
    """What a batch re-plan runs: a fresh priority order for ``remaining``
    by the serving planner's rule (:func:`repro.serve.planner.plan_flushes`,
    unweighted) from the messages' *current* locations."""
    # Imported here: ``repro.serve`` pulls in the whole serving package,
    # which batch users of this module never need.
    from repro.serve.planner import plan_flushes

    return plan_flushes(
        instance.topology, instance.P, instance.B, remaining,
        instance.targets.tolist(), location,
        allow_internal_targets=instance.allow_internal_targets,
    )


def worms_replan(
    instance: WORMSInstance, remaining: "list[int]", location: "list[int]"
) -> "list[Flush]":
    """The batch re-plan of ``remaining`` as :class:`Flush` objects, with
    original message ids (see :func:`_replan_plan`)."""
    return _replan_plan(instance, remaining, location).flushes()


def execute_flush_list(
    instance: WORMSInstance, flushes: list[Flush]
) -> FlushSchedule:
    """Run ``flushes`` (in priority order) through the gated executor.

    No re-plans: a flush list that deadlocks raises a typed
    :class:`~repro.util.errors.ExecutionStalledError`.
    """
    return GatedExecutor(instance, max_replans=0).run(flushes)


def record_run_metrics(metrics, schedule: FlushSchedule,
                       stats: ResilienceStats) -> None:
    """End-of-run executor counters.

    Called only from enabled obs contexts, after the run finished — the
    disabled path never reaches this and never pays for it.
    """
    size_hist = metrics.histogram(
        "executor_flush_size", "messages per realized flush"
    )
    for _t, flush in schedule.iter_timed():
        size_hist.observe(flush.size)
    for name, help_text, value in (
        ("executor_runs_total", "executor runs completed", 1),
        ("executor_steps_total", "DAM steps executed", schedule.n_steps),
        ("executor_flushes_total", "flushes issued by executors",
         schedule.n_flushes),
        ("executor_messages_moved_total", "message moves across all flushes",
         schedule.n_message_moves),
        ("executor_retries_total", "failed flush attempts retried",
         stats.failed_attempts),
        ("executor_partial_deliveries_total",
         "flushes that delivered a strict subset", stats.partial_deliveries),
        ("executor_replans_total", "mid-run re-planning rounds",
         stats.replans),
        ("executor_wait_steps_total",
         "steps idled waiting out fault windows/backoff", stats.wait_steps),
        ("executor_stalled_skips_total",
         "flushes skipped because a node was observed stalled",
         stats.stalled_skips),
    ):
        metrics.counter(name, help_text).inc(value)


class _RunJournal:
    """Per-run journaling state: completion tracking + checkpoints.

    Instantiated only when journaling is on, so the journal-free path
    allocates nothing.  Each checkpoint carries the engine's dense
    per-message locations, the completion steps so far and the digest
    of its realized ``log`` through the step.  Flushes the writer at every
    checkpoint — the durability points recovery resumes from.
    """

    def __init__(self, writer, owned: bool, log: FlushLog,
                 n_messages: int, checkpoint_every: int, locate) -> None:
        self.writer = writer
        self.owned = owned
        self.log = log
        self.every = checkpoint_every
        self.locate = locate
        self.completion = [0] * n_messages
        self.digest = LogDigest()
        self._checkpoint(0)

    def _checkpoint(self, step: int) -> None:
        value = self.digest.advance(self.log, step)
        self.writer.append(
            pack_batch_checkpoint(step, self.locate(), self.completion,
                                  [(self.digest.flushes, value)]),
            REC_CHECKPOINT,
        )
        self.writer.flush()

    def end_step(self, t: int, completions) -> None:
        """Step ``t`` ran and delivered ``completions``."""
        completion = self.completion
        for m, step in completions:
            completion[m] = step
        if t % self.every == 0:
            self._checkpoint(t)

    def finish(self, n_steps: int) -> None:
        """The run completed: final checkpoint + ``end`` record."""
        self._checkpoint(n_steps)
        self.writer.append({"type": "end", "t": int(n_steps)})
        self.writer.flush()
        if self.owned:
            self.writer.close()

    def abort(self) -> None:
        """The run died (stall error): keep what we have durable."""
        self.writer.flush()
        if self.owned:
            self.writer.close()


class GatedExecutor:
    """See module docstring.  One instance per execution.

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
        means fault-free execution.
    retry_budget:
        Attempts allowed per flush before re-planning kicks in.
    max_replans:
        Re-planning rounds allowed before giving up with
        :class:`ExecutionStalledError`.
    max_steps:
        Hard ceiling on simulated steps (a diagnosable backstop against
        pathological fault plans); defaults to a generous multiple of
        the instance's total work.
    journal:
        ``None`` (no journaling), a filesystem path (the executor opens
        and owns a :class:`~repro.dam.journal.JournalWriter` with an
        auto-generated ``meta`` record), or an open writer (the caller
        owns lifecycle and ``meta``).
    checkpoint_every:
        Steps between journaled state snapshots (ignored without a
        journal).  Smaller = fewer steps re-executed on recovery, more
        bytes.
    """

    def __init__(
        self,
        instance: WORMSInstance,
        injector: "FaultInjector | None" = None,
        *,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
        max_replans: int = 2,
        max_steps: "int | None" = None,
        journal=None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        self.instance = instance
        self._targets = instance.targets.tolist()
        if checkpoint_every < 1:
            raise InvalidInstanceError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.checkpoint_every = int(checkpoint_every)
        self.journal = journal
        if injector is not None and injector.is_zero_plan:
            injector = None  # zero plan == no injector: skip all fault queries
        self.injector = injector
        self.retry_budget = max(1, int(retry_budget))
        self.max_replans = max(0, int(max_replans))
        if max_steps is None:
            work = max(1, instance.total_work())
            max_steps = 1000 + 50 * work
        self.max_steps = max_steps
        self.stats = ResilienceStats()

    # ------------------------------------------------------------------
    def _start_journal(self, engine: ShardEngine) -> "_RunJournal | None":
        """Open per-run journal state (None when journaling is off)."""
        if self.journal is None:
            return None
        from repro.dam.journal import JournalWriter

        inst = self.instance
        if isinstance(self.journal, JournalWriter):
            writer, owned = self.journal, False
        else:
            writer, owned = JournalWriter(
                self.journal,
                meta={
                    "n_messages": inst.n_messages,
                    "P": inst.P,
                    "B": inst.B,
                    "n_nodes": inst.topology.n_nodes,
                    "checkpoint_every": self.checkpoint_every,
                },
            ), True
        return _RunJournal(writer, owned, engine.log, inst.n_messages,
                           self.checkpoint_every,
                           lambda: self._locations(engine))

    def _engine(self, flushes: "list[Flush]") -> ShardEngine:
        """One engine seeded with the instance's in-flight messages."""
        inst = self.instance
        targets = self._targets
        start = [inst.start_of(m) for m in range(inst.n_messages)]
        engine = ShardEngine(0, inst.topology, inst.P, inst.B,
                             injector=self.injector)
        engine.restore_state(
            {m: v for m, v in enumerate(start) if v != targets[m]}, targets
        )
        engine.set_plan(FlushPlan.of(flushes, targets))
        return engine

    def _locations(self, engine: ShardEngine) -> "list[int]":
        """Dense per-message locations (a completed message sits at its
        target)."""
        where = engine.location.get
        return [where(m, v) for m, v in enumerate(self._targets)]

    def run(self, flushes: "list[Flush]") -> FlushSchedule:
        """Replay ``flushes`` in priority order; returns a valid schedule."""
        # Observability is bound once per run: the disabled default makes
        # every per-step decision and allocation below identical to an
        # uninstrumented run (pinned by tests/obs).
        obs = current_obs()
        span = obs.tracer.span(
            "executor.run", category="executor", flushes=len(flushes)
        )
        t_wall = obs.profiler.clock() if obs.enabled else 0.0
        engine = self._engine(flushes)
        journal = self._start_journal(engine)
        stats = self.stats
        try:
            self._drive(engine, journal)
        except ExecutionStalledError:
            if journal is not None:
                journal.abort()
            span.set("stalled", True)
            span.finish()
            raise
        finally:
            # Completed or stalled, the engine's fault counters are folded.
            counts = engine.stats
            stats.failed_attempts += counts.failed_attempts
            stats.partial_deliveries += counts.partial_deliveries
            stats.stalled_skips += counts.stalled_skips
        # Only a completed run publishes the injector's event log.
        if self.injector is not None:
            stats.fault_events = list(self.injector.events)
        schedule = engine.log.schedule()
        if journal is not None:
            journal.finish(schedule.n_steps)
        if obs.enabled:
            obs.profiler.add(PHASE_EXECUTE, obs.profiler.clock() - t_wall)
            span.set_steps(1, schedule.n_steps)
            record_run_metrics(obs.metrics, schedule, stats)
        span.finish()
        return schedule

    def _drive(self, engine: ShardEngine, journal) -> None:
        """Step ``engine`` until its plan is done, under the batch rules."""
        stats = self.stats
        t = 0
        idle = 0
        replans = 0
        while engine.pending_flushes:
            t += 1
            if t > self.max_steps:
                raise self._stalled(
                    f"gated executor exceeded max_steps={self.max_steps}",
                    t, engine,
                )
            completions = engine.step(t)
            if engine.attempted == 0:
                if engine.waiting:
                    # Blocked on faults (stall window / backoff): time
                    # genuinely passes; the realized schedule gets an
                    # idle step.
                    stats.wait_steps += 1
                    idle = 0
                    continue
                # Nothing ran: roll the step counter back (an idle step
                # would inflate costs) and retry; too many in a row is a
                # deadlock, re-planned from the last step that ran.
                t -= 1
                idle += 1
                if idle > MAX_IDLE_STEPS:
                    self._replan(t, engine, replans,
                                 "deadlocked (flush list is not laminar?)")
                    replans += 1
                    idle = 0
                continue
            idle = 0
            if journal is not None and engine.ran:
                journal.end_step(t, completions)
            if engine.retries >= self.retry_budget and engine.pending_flushes:
                self._replan(t, engine, replans, "retry budget exhausted")
                replans += 1

    def _replan(self, t: int, engine: ShardEngine, used: int,
                reason: str) -> None:
        """Re-plan the surviving messages, or raise if out of options."""
        if used >= self.max_replans:
            raise self._stalled(
                f"gated executor stalled ({reason}; "
                f"{used} replan(s) already used)",
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
                plan = _replan_plan(self.instance, remaining, location)
            except ReproError as exc:
                raise self._stalled(
                    f"gated executor stalled ({reason}; "
                    f"replan failed: {exc})",
                    t, engine,
                ) from exc
        self.stats.replans += 1
        engine.set_plan(plan)

    def _stalled(self, header: str, t: int,
                 engine: ShardEngine) -> ExecutionStalledError:
        """A diagnosable stall: the first few parked (undelivered)
        messages with their current nodes and the highest-priority flush
        that could not run, so a malformed flush list can be debugged
        from the message alone."""
        targets = self._targets
        location = self._locations(engine)
        pending = engine.pending_plan().flushes()
        parked = tuple(
            (m, v) for m, v in enumerate(location) if v != targets[m]
        )
        blocking = pending[0] if pending else None
        lines = [f"{header} at step {t}: {len(pending)} flush(es) "
                 f"pending, {len(parked)} message(s) parked"]
        for m, v in parked[:_DIAG_LIMIT]:
            lines.append(f"  message {m} parked at node {v} "
                         f"(target {targets[m]})")
        if len(parked) > _DIAG_LIMIT:
            lines.append(f"  ... and {len(parked) - _DIAG_LIMIT} more")
        if blocking is not None:
            lines.append(
                f"  blocked on inadmissible/unready flush {blocking!r}"
            )
        return ExecutionStalledError(
            "\n".join(lines),
            step=t,
            parked_messages=parked,
            blocking_flush=blocking,
            pending_flushes=tuple(pending),
        )
