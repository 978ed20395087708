"""The flush gate: one DAM machine, stepped one time step at a time.

:meth:`ShardEngine.step` is the only place the paper's validity gate
(§3.1) is written.  Every step it runs up to ``P`` flushes from a
priority-ordered pending list, and a flush runs only when

* it is *ready*: all of its messages sit at its source (a flush whose
  first message is elsewhere is rejected in O(1) — the common
  front-blocked case);
* it is *admissible*: its destination is a leaf, or the messages that
  would park there keep the node at most ``B`` (occupancy is projected
  from start-of-step state plus this step's own departures and
  arrivals, so no internal node ever holds more than ``B`` messages
  across steps).

Around that core the same function carries the rest of the admission
rule, each part a no-op until it is switched on:

* **faults** (``injector``): capacity drops to the injector's degraded
  ``P``; flushes touching a stalled node are skipped; a failed or
  partial flush retries after ``2^(attempts-1)`` steps of backoff, its
  undelivered remainder keeping its priority slot;
* **fault-aware admission** (``fault_aware``): observed stall windows
  are remembered until they close, and degraded capacity is offered to
  completion flushes (flushes that park nothing) first;
* **pacing** (``pace``): at most ``pace`` messages move per step, an
  oversized obligation is split and its suffix kept at the same priority
  — the engine-level half of the Das–Iacono–Nekrich de-amortization.

State is sparse (dicts keyed by message id): a serving shard only ever
holds the in-flight slice of its message stream.  Each step reports what
it did (:attr:`ShardEngine.attempted`, :attr:`~ShardEngine.ran`,
:attr:`~ShardEngine.waiting`, :attr:`~ShardEngine.retries`) and each
caller applies its own rule to it:

* the batch executors (:mod:`repro.policies.executor`,
  :mod:`repro.policies.resilient`) seed one engine from a dense
  instance and loop over :meth:`~ShardEngine.step`; a step that
  attempted nothing and is not waiting on a fault is rolled back, and
  deadlocks, retry budgets and ``max_steps`` are theirs to handle;
* serving (:mod:`repro.serve`) keeps every step — an idle step is real
  time in a service — and forces a re-plan when :attr:`idle_streak`
  passes :data:`MAX_IDLE_STEPS`.

**Candidate source.**  The scan visits pending flushes in priority
order.  A fault-free, unpaced batch run over a long flush list may
install a numpy prefilter (:meth:`ShardEngine.prefilter`) that yields
only the flushes whose first message sits at their source; every
candidate still passes the full gate, so the decisions are
byte-identical (see :class:`_VectorScan`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dam.schedule import Flush, FlushSchedule
from repro.faults.injector import (
    FaultInjector,
    OUTCOME_FAILED,
    OUTCOME_PARTIAL,
)
from repro.tree.topology import TreeTopology
from repro.util.errors import InvalidInstanceError

#: Steps with ready work but no progress before a caller treats the
#: state as deadlocked (batch: re-plan or raise; serve: forced re-plan).
MAX_IDLE_STEPS = 4


@dataclass(slots=True)
class _Pending:
    """A planned flush awaiting execution, with retry bookkeeping."""

    flush: Flush
    #: messages that do not complete at dest (static admission cost).
    parking: int = 0
    attempts: int = 0
    eligible_at: int = 0  # earliest step this flush may be attempted again
    done: bool = False


@dataclass
class ShardStats:
    """Per-engine counters (the serving report surfaces them per shard)."""

    admitted: int = 0
    completed: int = 0
    flushes: int = 0
    failed_attempts: int = 0
    partial_deliveries: int = 0
    stalled_skips: int = 0
    fault_aware_skips: int = 0
    degraded_triage_steps: int = 0
    idle_steps: int = 0
    busy_steps: int = 0
    #: steps where the de-amortization pacer held back ready work.
    paced_holds: int = 0
    #: oversized flush obligations split to fit the per-step budget.
    paced_splits: int = 0


class _VectorScan:
    """Numpy candidate source for the priority scan (dense message ids).

    Keeps ``where`` (message id -> node, a mirror of the engine's
    locations that also keeps completed messages at their last node) and
    two arrays parallel to the pending list — first message and source
    — and answers "which pending flushes *could* run this step" with one
    vectorized compare, in priority order::

        candidates = nonzero(where[first] == src)

    **Why the decisions stay byte-identical**: the filter uses
    start-of-step state, and the two ways mid-step movement could make
    it diverge from the full scan both cancel out —

    * a flush whose first message *arrives* at its source mid-step is not
      a candidate, but the full scan rejects it too (the message moved
      this step, and moved messages never flush again in the same step);
    * a flush whose messages *leave* mid-step is a candidate, but the
      gate re-runs on every candidate and rejects it exactly as the full
      scan would.

    Only fault-free, unpaced runs may use it: there the flushes it skips
    would be rejected by the O(1) first-message check with no side
    effect, whereas faults and pacing update backoff, stall and hold
    bookkeeping on flushes that are not ready.
    """

    __slots__ = ("where", "first", "src")

    def __init__(self, where: np.ndarray) -> None:
        self.where = where
        self.first = self.src = np.zeros(0, dtype=np.int64)

    def rebuild(self, pending: "list[_Pending]") -> None:
        """Recompute the per-flush arrays (new plan or compaction)."""
        n = len(pending)
        self.first = np.fromiter(
            (pf.flush.messages[0] for pf in pending), dtype=np.int64,
            count=n,
        )
        self.src = np.fromiter(
            (pf.flush.src for pf in pending), dtype=np.int64, count=n
        )

    def candidates(self, pending: "list[_Pending]"):
        """Maybe-ready pending flushes, in priority order."""
        # Lazy: the scan usually stops after a few candidates.
        idx = np.flatnonzero(self.where[self.first] == self.src)
        return map(pending.__getitem__, idx)


class ShardEngine:
    """One DAM machine's live state + the stepwise flush gate.

    See the module docstring.  ``location``/``targets`` hold in-flight
    messages only; a message leaves both the step it completes.
    """

    def __init__(
        self,
        shard_id: int,
        topology: TreeTopology,
        P: int,
        B: int,
        *,
        injector: "FaultInjector | None" = None,
        fault_aware: bool = False,
        pace: int = 0,
    ) -> None:
        if P < 1 or B < 1:
            raise InvalidInstanceError(f"need P >= 1 and B >= 1, got {P}, {B}")
        if pace < 0:
            raise InvalidInstanceError(f"pace must be >= 0, got {pace}")
        self.shard_id = int(shard_id)
        self.topology = topology
        self.P = int(P)
        self.B = int(B)
        if injector is not None and injector.is_zero_plan:
            injector = None
        self.injector = injector
        self.fault_aware = bool(fault_aware) and injector is not None
        #: de-amortization budget: max messages delivered per step (0 =
        #: unpaced).  Oversized obligations are split, the rest held —
        #: the engine-level half of :class:`repro.serve.planner.PacedPlanner`.
        self.pace = int(pace)
        self._is_leaf = [topology.is_leaf(v) for v in range(topology.n_nodes)]
        self._root = topology.root
        #: message id -> current node (in-flight messages only).
        self.location: dict[int, int] = {}
        #: message id -> target node (in-flight messages only).
        self.targets: dict[int, int] = {}
        #: parked (non-completed) messages per internal non-root node.
        self.occupancy = [0] * topology.n_nodes
        self.pending: "list[_Pending]" = []
        self._n_pending = 0
        self._vscan: "_VectorScan | None" = None
        self.schedule = FlushSchedule()
        self.stats = ShardStats()
        #: messages currently at the root (admitted, not yet flushed down).
        self.root_backlog = 0
        #: node -> last step of its observed stall window (fault-aware).
        self._stall_until: dict[int, int] = {}
        #: consecutive steps with ready work but no progress (deadlock probe).
        self.idle_streak = 0
        # What the last step did (each caller applies its own rule):
        #: flushes attempted (IO slots consumed, whatever the outcome).
        self.attempted = 0
        #: flushes that delivered at least one message.
        self.ran = 0
        #: ready work was held back by a fault window, backoff or pace.
        self.waiting = False
        #: highest attempt count of a flush that failed or tore.
        self.retries = 0

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Messages admitted to this shard and not yet completed."""
        return len(self.location)

    @property
    def pending_flushes(self) -> int:
        """Planned flushes not yet fully executed."""
        return self._n_pending

    def unplanned(self, planned: "set[int]") -> "list[int]":
        """In-flight ids not covered by ``planned`` (helper for planners)."""
        return [m for m in self.location if m not in planned]

    def buffer_occupancy(self) -> "dict[int, int]":
        """Buffered message count per occupied node (root included).

        The live internal-node memory picture — what per-tenant buffer
        quotas (:mod:`repro.serve.tenancy`) bound; total equals
        :attr:`in_flight`."""
        occ: "dict[int, int]" = {}
        for node in self.location.values():
            occ[node] = occ.get(node, 0) + 1
        return occ

    def admit(self, msg_id: int, target_leaf: int, step: int) -> "int | None":
        """Place ``msg_id`` at the root; returns the completion step if the
        root *is* its target (single-node shard), else None."""
        root = self._root
        if target_leaf == root:
            # Degenerate shard (root == leaf): completes on admission.
            return step
        self.location[msg_id] = root
        self.targets[msg_id] = target_leaf
        self.root_backlog += 1
        self.stats.admitted += 1
        return None

    def root_stalled(self, step: int) -> bool:
        """True iff the root is inside a known/observed stall window.

        Admission control consults this so backpressure composes with
        fault-aware triage: while the shard's ingest point is stalled the
        queue holds instead of piling messages into a frozen root.
        """
        if self.injector is None:
            return False
        if self.fault_aware and self._stall_until.get(self._root, 0) >= step:
            return True
        return self.injector.is_stalled(step, self._root)

    def wipe(self) -> None:
        """Lose all in-flight machine state (a simulated shard crash).

        The chaos harness calls this to model a whole-shard kill: every
        location, target, buffer occupancy, and pending plan is gone, as
        if the shard process died.  The realized :attr:`schedule` and
        :attr:`stats` survive — they belong to the run's accounting, not
        to the shard's memory — and the supervisor is expected to
        :meth:`restore_state` from the journal before stepping again.
        """
        self.location = {}
        self.targets = {}
        self.occupancy = [0] * self.topology.n_nodes
        self.pending = []
        self._n_pending = 0
        self.root_backlog = 0
        self._stall_until = {}
        self.idle_streak = 0

    def restore_state(
        self,
        locations: "dict[int, int]",
        targets,
        *,
        schedule: "FlushSchedule | None" = None,
    ) -> None:
        """Rebuild in-flight state from a snapshot.

        ``locations`` maps every in-flight message id to its current
        node; ``targets`` (a mapping or a dense list) must cover at least
        those ids.  Buffer occupancy and the root backlog are re-derived
        from the locations, the pending plan is cleared — the caller
        re-plans from the restored locations — and, when given,
        ``schedule`` replaces the realized schedule (restarts rebuild it
        from the journal so the report stays complete across a kill).
        """
        root = self._root
        is_leaf = self._is_leaf
        self.location = {int(m): int(v) for m, v in locations.items()}
        self.targets = {int(m): int(targets[m]) for m in locations}
        occupancy = [0] * self.topology.n_nodes
        backlog = 0
        for v in self.location.values():
            if v == root:
                backlog += 1
            elif not is_leaf[v]:
                occupancy[v] += 1
        self.occupancy = occupancy
        self.root_backlog = backlog
        self.pending = []
        self._n_pending = 0
        self._stall_until = {}
        self.idle_streak = 0
        if schedule is not None:
            self.schedule = schedule

    def prefilter(self, where: np.ndarray) -> None:
        """Install the numpy candidate source (see :class:`_VectorScan`).

        ``where`` maps every dense message id to its node.  Callers must
        only do this for fault-free, unpaced engines.
        """
        self._vscan = _VectorScan(where)
        self._vscan.rebuild(self.pending)

    def set_plan(self, flushes: "list[Flush]") -> None:
        """Replace the pending priority list (epoch full re-plan)."""
        self.pending = self._make_pending(flushes)
        self._n_pending = len(self.pending)
        if self._vscan is not None:
            self._vscan.rebuild(self.pending)

    def append_plan(self, flushes: "list[Flush]") -> None:
        """Append flushes at the tail of the priority list (incremental)."""
        self.pending.extend(self._make_pending(flushes))
        self._n_pending += len(flushes)
        if self._vscan is not None:
            self._vscan.rebuild(self.pending)

    def _make_pending(self, flushes: "list[Flush]") -> "list[_Pending]":
        targets = self.targets
        return [
            _Pending(
                f,
                parking=sum(1 for m in f.messages if targets.get(m) != f.dest),
            )
            for f in flushes
        ]

    # ------------------------------------------------------------------
    def step(self, t: int, journal=None) -> "list[tuple[int, int]]":
        """Run one DAM time step; returns ``(msg_id, step)`` completions.

        Executes up to ``P`` ready-and-admissible pending flushes in
        priority order (see the module docstring for the full gate).
        ``journal`` (if given) receives ``record_flush(t, shard, flush)``
        and ``record_fault(t, shard, kind, src, dest, detail)`` calls.
        """
        is_leaf = self._is_leaf
        root = self._root
        location = self.location
        loc = location.get
        targets = self.targets
        occupancy = self.occupancy
        injector = self.injector
        fault_aware = self.fault_aware
        stall_until = self._stall_until
        stats = self.stats
        pending = self.pending
        vscan = self._vscan
        shard = self.shard_id
        schedule = self.schedule
        P = self.P
        B = self.B
        pace = self.pace
        capacity = P if injector is None else injector.effective_p(t, P)
        if fault_aware and capacity < P:
            stats.degraded_triage_steps += 1
            passes: "tuple[bool | None, ...]" = (True, False)
        else:
            passes = (None,)
        # Everything between the capacity check and readiness below is
        # a no-op unless faults or pacing are on; skip it as one branch.
        guarded = injector is not None or pace > 0
        completions: "list[tuple[int, int]]" = []
        ran = 0
        attempted = 0
        retries = 0
        work_done = 0
        waiting = False
        paced_out = False
        moved: set[int] = set()
        departed: dict[int, int] = {}
        arrived: dict[int, int] = {}
        for completions_only in passes:
            if attempted >= capacity or paced_out:
                break
            scan = pending if vscan is None else vscan.candidates(pending)
            for pf in scan:
                if pf.done:
                    continue
                if attempted >= capacity:
                    break
                flush = pf.flush
                src = flush.src
                dest = flush.dest
                full = flush.messages
                if guarded:
                    if pace and work_done >= pace:
                        # Per-step work budget spent: hold the rest of the
                        # plan for the next step (de-amortization),
                        # without tripping the deadlock probe.
                        stats.paced_holds += 1
                        waiting = True
                        paced_out = True
                        break
                    if completions_only is True and pf.parking > 0:
                        continue
                    if completions_only is False and pf.parking == 0:
                        continue  # already offered in the first pass
                    if pf.eligible_at > t:
                        waiting = True
                        continue
                    if fault_aware and (
                        stall_until.get(src, 0) >= t
                        or stall_until.get(dest, 0) >= t
                    ):
                        # Known-stalled window: park without probing.
                        stats.fault_aware_skips += 1
                        waiting = True
                        continue
                    if injector is not None and (
                        injector.is_stalled(t, src)
                        or injector.is_stalled(t, dest)
                    ):
                        stats.stalled_skips += 1
                        if fault_aware:
                            for node in (src, dest):
                                end = injector.stall_window_end(t, node)
                                if end is not None and end > stall_until.get(
                                    node, 0
                                ):
                                    stall_until[node] = end
                        waiting = True
                        continue
                if loc(full[0]) != src:
                    continue  # O(1) reject: first message not here yet
                if any(loc(m) != src or m in moved for m in full):
                    continue
                msgs = full
                park = pf.parking
                if pace and len(full) > pace - work_done:
                    # Oversized obligation: attempt only the prefix that
                    # fits the remaining step budget; the suffix stays
                    # pending at the same priority (a paced split).
                    msgs = full[: pace - work_done]
                    park = sum(1 for m in msgs if targets.get(m) != dest)
                if not is_leaf[dest]:
                    projected = (
                        occupancy[dest]
                        - departed.get(dest, 0)
                        + arrived.get(dest, 0)
                        + park
                    )
                    if projected > B:
                        continue
                # Selected: the IO is attempted and the slot is consumed
                # whatever the outcome.
                attempted += 1
                delivered: "tuple[int, ...]" = msgs
                if injector is not None:
                    status, delivered = injector.flush_outcome(
                        t, src, dest, msgs
                    )
                    if status == OUTCOME_FAILED:
                        stats.failed_attempts += 1
                        pf.attempts += 1
                        pf.eligible_at = t + 1 + (1 << (pf.attempts - 1))
                        retries = max(retries, pf.attempts)
                        if journal is not None:
                            journal.record_fault(
                                t, shard, "failed_flush", src, dest,
                                f"{len(msgs)} msgs no-oped "
                                f"(attempt {pf.attempts})",
                            )
                        continue
                    if status == OUTCOME_PARTIAL:
                        # Redeliver the remainder at the same priority
                        # slot, after backoff.
                        stats.partial_deliveries += 1
                        got = set(delivered)
                        remainder = tuple(m for m in full if m not in got)
                        pf.flush = Flush(src, dest, remainder)
                        pf.parking = sum(
                            1 for m in remainder if targets[m] != dest
                        )
                        pf.attempts += 1
                        pf.eligible_at = t + 1 + (1 << (pf.attempts - 1))
                        retries = max(retries, pf.attempts)
                        if journal is not None:
                            journal.record_fault(
                                t, shard, "partial_flush", src, dest,
                                f"delivered {len(delivered)}/{len(msgs)} msgs "
                                f"(attempt {pf.attempts})",
                            )
                n = len(delivered)
                if n == len(full):
                    actual = flush
                    pf.done = True
                    self._n_pending -= 1
                else:
                    actual = Flush(src, dest, delivered)
                    if msgs is not full and n == len(msgs):
                        # Clean paced split: the untouched suffix becomes
                        # the pending obligation, immediately eligible,
                        # retry history preserved.
                        suffix = full[n:]
                        pf.flush = Flush(src, dest, suffix)
                        pf.parking = sum(
                            1 for m in suffix if targets[m] != dest
                        )
                        stats.paced_splits += 1
                ran += 1
                work_done += n
                schedule.add(t, actual)
                stats.flushes += 1
                moved.update(delivered)
                if journal is not None:
                    journal.record_flush(t, shard, actual)
                if vscan is not None:
                    vscan.where[list(delivered)] = dest
                if src == root:
                    self.root_backlog -= n
                elif not is_leaf[src]:
                    departed[src] = departed.get(src, 0) + n
                if not is_leaf[dest]:
                    arrived[dest] = arrived.get(dest, 0) + (
                        park if delivered is msgs
                        else sum(1 for m in delivered if targets[m] != dest)
                    )
                for m in delivered:
                    if targets[m] == dest:
                        completions.append((m, t))
                        del location[m]
                        del targets[m]
                        stats.completed += 1
                    else:
                        location[m] = dest
        for v, d in departed.items():
            occupancy[v] -= d
        for v, a in arrived.items():
            occupancy[v] += a
        n_pending = self._n_pending
        if n_pending and len(pending) > 2 * n_pending:
            self.pending = [pf for pf in pending if not pf.done]
            if vscan is not None:
                vscan.rebuild(self.pending)
        self.attempted = attempted
        self.ran = ran
        self.waiting = waiting
        self.retries = retries
        if ran:
            stats.busy_steps += 1
            self.idle_streak = 0
        else:
            stats.idle_steps += 1
            if n_pending and not waiting:
                # Ready work exists but nothing could run: a candidate
                # deadlock (e.g. two appended plans blocking each other's
                # buffers).  Serving watches this streak and forces a
                # full re-plan.
                self.idle_streak += 1
            else:
                self.idle_streak = 0
        return completions
