"""Admission-gated executor for ordered flush lists.

Given a list of flushes in a *desired priority order* (e.g. the Lemma 8
order induced by an MPHTF task schedule), the executor replays them under
the DAM constraints, producing a schedule that is **valid by
construction**.  The gate itself — readiness, occupancy against ``B``,
the ``P`` slots — is written once, in
:meth:`repro.policies.engine.ShardEngine.step`; this module is the
*dense-id batch adapter* around it.  :meth:`GatedExecutor.run` seeds one
engine with the instance's messages, hands it the whole flush list, and
steps it in a loop, adding the rules only a batch run has:

* a step that attempted nothing and is not waiting on a fault is rolled
  back (an idle step would inflate costs);
* more than :data:`~repro.policies.engine.MAX_IDLE_STEPS` rolled-back
  steps in a row is a deadlock (raised here; re-planned by
  :class:`~repro.policies.resilient.ResilientExecutor`);
* journal checkpoints carry dense per-message locations.

For laminar flush lists (every flush's messages arrived at its source in
a single earlier flush — which is exactly what the packed-set reduction
produces) this never deadlocks: the deepest parked group always has an
admissible next flush, because nothing is parked below it.

**Durability** (``journal=``): pass a path or an open
:class:`~repro.dam.journal.JournalWriter` and the executor streams every
realized flush plus a :class:`~repro.dam.trace.CheckpointRecord` every
``checkpoint_every`` steps into a crash-consistent journal, so a killed
process can be resumed exactly (see :mod:`repro.dam.journal`).  With
``journal=None`` (the default) no journal state is even allocated.

**Scan cost.**  Fault-free runs of at least
:data:`VECTOR_SCAN_AUTO_THRESHOLD` flushes install the engine's numpy
candidate prefilter (:meth:`~repro.policies.engine.ShardEngine.prefilter`);
the realized schedule is byte-identical either way.
"""

from __future__ import annotations

import numpy as np

from repro.core.worms import WORMSInstance
from repro.dam.schedule import Flush, FlushSchedule
from repro.dam.trace import CheckpointRecord
from repro.obs.hooks import current_obs
from repro.obs.profile import PHASE_EXECUTE
from repro.policies.engine import MAX_IDLE_STEPS, ShardEngine
from repro.util.errors import ExecutionStalledError, InvalidInstanceError

#: How many parked messages / pending flushes to list in an error message.
_DIAG_LIMIT = 5

#: Default checkpoint cadence (steps) when journaling is enabled.
DEFAULT_CHECKPOINT_EVERY = 32

#: Fault-free runs with at least this many flushes scan through the
#: engine's numpy prefilter (see :class:`repro.policies.engine._VectorScan`).
VECTOR_SCAN_AUTO_THRESHOLD = 100_000


def stalled_error(
    header: str,
    *,
    step: int,
    instance: WORMSInstance,
    location: "list[int]",
    pending_flushes: "list[Flush]",
) -> ExecutionStalledError:
    """Build a diagnosable :class:`ExecutionStalledError`.

    Lists the first few parked (undelivered) messages with their current
    nodes and the highest-priority flush that could not run, so a
    malformed flush list can be debugged from the message alone.
    """
    targets = instance.targets
    parked = tuple(
        (m, int(location[m]))
        for m in range(instance.n_messages)
        if location[m] != int(targets[m])
    )
    blocking = pending_flushes[0] if pending_flushes else None
    lines = [f"{header} at step {step}: {len(pending_flushes)} flush(es) "
             f"pending, {len(parked)} message(s) parked"]
    for m, v in parked[:_DIAG_LIMIT]:
        lines.append(f"  message {m} parked at node {v} "
                     f"(target {int(targets[m])})")
    if len(parked) > _DIAG_LIMIT:
        lines.append(f"  ... and {len(parked) - _DIAG_LIMIT} more")
    if blocking is not None:
        lines.append(f"  blocked on inadmissible/unready flush {blocking!r}")
    return ExecutionStalledError(
        "\n".join(lines),
        step=step,
        parked_messages=parked,
        blocking_flush=blocking,
        pending_flushes=tuple(pending_flushes),
    )


def execute_flush_list(
    instance: WORMSInstance, flushes: list[Flush]
) -> FlushSchedule:
    """Run ``flushes`` (in priority order) through the gated executor."""
    return GatedExecutor(instance).run(flushes)


def record_run_metrics(metrics, schedule: FlushSchedule) -> None:
    """End-of-run executor counters, shared by both executors.

    Called only from enabled obs contexts, after the run finished — the
    disabled path never reaches this and never pays for it.
    """
    n_flushes = 0
    moved = 0
    size_hist = metrics.histogram(
        "executor_flush_size", "messages per realized flush"
    )
    for step in schedule.steps:
        for flush in step:
            n_flushes += 1
            moved += flush.size
            size_hist.observe(flush.size)
    metrics.counter(
        "executor_runs_total", "executor runs completed"
    ).inc()
    metrics.counter(
        "executor_steps_total", "DAM steps executed"
    ).inc(schedule.n_steps)
    metrics.counter(
        "executor_flushes_total", "flushes issued by executors"
    ).inc(n_flushes)
    metrics.counter(
        "executor_messages_moved_total", "message moves across all flushes"
    ).inc(moved)


class _RunJournal:
    """Per-run journaling state: completion tracking + record emission.

    Instantiated only when journaling is on, so the journal-free path
    allocates nothing.  ``locate()`` returns the dense per-message
    locations a checkpoint carries; it is called only at checkpoints.
    Flushes the writer at every checkpoint — the durability points
    recovery resumes from.
    """

    def __init__(self, writer, owned: bool, targets: "list[int]",
                 checkpoint_every: int, locate) -> None:
        self.writer = writer
        self.owned = owned
        self.targets = targets
        self.every = checkpoint_every
        self.locate = locate
        self.completion = [0] * len(targets)
        self._checkpoint(0)

    def _checkpoint(self, step: int) -> None:
        from repro.dam.journal import checkpoint_record

        self.writer.append(checkpoint_record(CheckpointRecord(
            step, tuple(int(v) for v in self.locate()),
            tuple(self.completion),
        )))
        self.writer.flush()

    # The engine's journal protocol; a batch run is a single shard, so
    # the shard id is not recorded.
    def record_flush(self, t: int, _shard: int, flush: Flush) -> None:
        from repro.dam.journal import flush_record

        self.writer.append(flush_record(t, flush))
        dest = flush.dest
        completion = self.completion
        for m in flush.messages:
            if self.targets[m] == dest and completion[m] == 0:
                completion[m] = t

    def record_fault(self, t: int, _shard: int, kind: str, src: int,
                     dest: int, detail: str) -> None:
        from repro.dam.journal import fault_record

        self.writer.append(fault_record(t, kind, src, dest, detail))

    def end_step(self, t: int) -> None:
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

    Parameters
    ----------
    instance:
        The WORMS instance being executed.
    journal:
        ``None`` (no journaling), a filesystem path (the executor opens
        and owns a :class:`~repro.dam.journal.JournalWriter` with an
        auto-generated ``meta`` record), or an open writer (the caller
        owns lifecycle and ``meta``).
    checkpoint_every:
        Steps between journaled state snapshots (ignored without a
        journal).  Smaller = less replay on recovery, more bytes.
    """

    #: Trace span opened around :meth:`run`.
    _span_name = "executor.run"
    #: Fault source and fault-aware admission for the engine (none here).
    injector = None
    fault_aware = False

    def __init__(
        self,
        instance: WORMSInstance,
        *,
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
        return _RunJournal(writer, owned, self._targets,
                           self.checkpoint_every,
                           lambda: self._locations(engine))

    def _engine(self, flushes: "list[Flush]") -> ShardEngine:
        """One engine seeded with the instance's in-flight messages."""
        inst = self.instance
        targets = self._targets
        start = [inst.start_of(m) for m in range(inst.n_messages)]
        engine = ShardEngine(
            0, inst.topology, inst.P, inst.B,
            injector=self.injector, fault_aware=self.fault_aware,
        )
        engine.restore_state(
            {m: v for m, v in enumerate(start) if v != targets[m]}, targets
        )
        engine.set_plan(flushes)
        if (engine.injector is None
                and len(flushes) >= VECTOR_SCAN_AUTO_THRESHOLD):
            engine.prefilter(np.asarray(start, dtype=np.int64))
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
            self._span_name, category="executor", flushes=len(flushes)
        )
        t_wall = obs.profiler.clock() if obs.enabled else 0.0
        engine = self._engine(flushes)
        span.set("scan", "scalar" if engine._vscan is None else "vector")
        journal = self._start_journal(engine)
        try:
            self._drive(engine, journal)
        except ExecutionStalledError:
            if journal is not None:
                journal.abort()
            span.set("stalled", True)
            span.finish()
            raise
        finally:
            self._collect(engine)
        schedule = engine.schedule.trim()
        if journal is not None:
            journal.finish(schedule.n_steps)
        if obs.enabled:
            obs.profiler.add(PHASE_EXECUTE, obs.profiler.clock() - t_wall)
            span.set_steps(1, schedule.n_steps)
            record_run_metrics(obs.metrics, schedule)
            self._record_metrics(obs.metrics)
        span.finish()
        return schedule

    def _drive(self, engine: ShardEngine, journal) -> None:
        """Step ``engine`` until its plan is done, under the batch rules."""
        t = 0
        idle = 0
        while engine.pending_flushes:
            t += 1
            self._before_step(t, engine)
            engine.step(t, journal)
            if engine.attempted == 0:
                if engine.waiting:
                    # Blocked on faults (stall window / backoff): time
                    # genuinely passes; the realized schedule gets an
                    # idle step.
                    self._waited()
                    idle = 0
                    continue
                idle += 1
                if idle > MAX_IDLE_STEPS:
                    self._deadlocked(t, engine)
                    idle = 0
                # Nothing ran: roll the step counter back (an idle step
                # would inflate costs) and retry; the idle counter above
                # turns a genuine no-progress state into a deadlock.
                t -= 1
                continue
            idle = 0
            if journal is not None and engine.ran:
                journal.end_step(t)
            self._after_step(t, engine)

    # -- batch rules the resilient executor extends ---------------------
    def _before_step(self, t: int, engine: ShardEngine) -> None:
        """Hook run before each step (step-count backstops)."""

    def _waited(self) -> None:
        """Hook for a step spent waiting on a fault window or backoff."""

    def _after_step(self, t: int, engine: ShardEngine) -> None:
        """Hook run after each step that attempted a flush."""

    def _collect(self, engine: ShardEngine) -> None:
        """Hook run when the run ends, completed or stalled."""

    def _record_metrics(self, metrics) -> None:
        """Hook for executor-specific end-of-run counters."""

    def _deadlocked(self, t: int, engine: ShardEngine) -> None:
        """No flush could run for too long: the flush list is stuck."""
        raise self._stalled(
            "gated executor deadlocked (flush list is not laminar?)",
            t, engine,
        )

    def _stalled(self, header: str, t: int,
                 engine: ShardEngine) -> ExecutionStalledError:
        return stalled_error(
            header,
            step=t,
            instance=self.instance,
            location=self._locations(engine),
            pending_flushes=[pf.flush for pf in engine.pending if not pf.done],
        )
