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

Around that core the same function handles faults, a no-op until an
``injector`` is attached: capacity drops to the injector's degraded
``P``; flushes touching a stalled node are skipped; a failed or partial
flush retries after ``2^(attempts-1)`` steps of backoff, its undelivered
remainder keeping its priority slot.

A plan enters only through :meth:`ShardEngine.set_plan`, which replaces
the pending list with exactly the plan it is given: a
:class:`~repro.dam.schedule.FlushPlan`, the parallel lists ``src``,
``dest``, ``msgs`` and ``parking`` the planner returns.  The engine keeps
them as lists indexed by plan position — a done flush's ``msgs`` entry
becomes ``None``, and retry state (attempts, backoff) is a sparse dict
per plan index that only faults fill.  A flush that runs is appended to
the realized :class:`~repro.dam.schedule.FlushLog` (:attr:`ShardEngine.log`)
as ``src, dest, msgs``: the engine builds no ``Flush``.

State is sparse (dicts keyed by message id): a serving shard only ever
holds the in-flight slice of its message stream.  Each step reports what
it did (:attr:`ShardEngine.attempted`, :attr:`~ShardEngine.ran`,
:attr:`~ShardEngine.waiting`, :attr:`~ShardEngine.retries`) and each
caller applies its own rule to it:

* the batch executor (:mod:`repro.policies.executor`) seeds one engine
  from a dense instance and loops over :meth:`~ShardEngine.step`; a
  step that attempted nothing and is not waiting on a fault is rolled
  back, and deadlocks, retry budgets and ``max_steps`` are its to
  handle;
* serving (:mod:`repro.serve`) keeps every step — an idle step is real
  time in a service — and forces a re-plan when :attr:`idle_streak`
  passes :data:`MAX_IDLE_STEPS`.

**Candidate source.**  Every step scans the pending flushes in
priority order until ``P`` are attempted; a flush whose first message
is not at its source is rejected by an O(1) check before the rest of
the gate runs.  The stall and backoff checks come first, so under
faults every not-done flush ahead of the ``P``-th attempt is visited in
plan order (an index of flushes by source would skip those visits and
change what the fault log records).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dam.schedule import FlushLog, FlushPlan
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


@dataclass
class ShardStats:
    """Per-engine counters (the serving report surfaces them per shard)."""

    admitted: int = 0
    completed: int = 0
    flushes: int = 0
    failed_attempts: int = 0
    partial_deliveries: int = 0
    stalled_skips: int = 0
    idle_steps: int = 0
    busy_steps: int = 0


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
    ) -> None:
        if P < 1 or B < 1:
            raise InvalidInstanceError(f"need P >= 1 and B >= 1, got {P}, {B}")
        self.shard_id = int(shard_id)
        self.topology = topology
        self.P = int(P)
        self.B = int(B)
        if injector is not None and injector.is_zero_plan:
            injector = None
        self.injector = injector
        self._is_leaf = [topology.is_leaf(v) for v in range(topology.n_nodes)]
        self._root = topology.root
        #: message id -> current node (in-flight messages only).
        self.location: dict[int, int] = {}
        #: message id -> target node (in-flight messages only).
        self.targets: dict[int, int] = {}
        #: message id -> step it was admitted or restored at (in-flight
        #: messages only; full serve re-plans weight messages by age).
        self.admitted_at: dict[int, int] = {}
        #: parked (non-completed) messages per internal non-root node.
        self.occupancy = [0] * topology.n_nodes
        self._clear_plan()
        #: the realized schedule: every flush that ran, in step order.
        self.log = FlushLog()
        self.stats = ShardStats()
        #: messages currently at the root (admitted, not yet flushed down).
        self.root_backlog = 0
        #: consecutive steps with ready work but no progress (deadlock probe).
        self.idle_streak = 0
        # What the last step did (each caller applies its own rule):
        #: flushes attempted (IO slots consumed, whatever the outcome).
        self.attempted = 0
        #: flushes that delivered at least one message.
        self.ran = 0
        #: ready work was held back by a fault window or backoff.
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

    def admit(self, msg_id: int, target_leaf: int, step: int) -> "int | None":
        """Place ``msg_id`` at the root; returns the completion step if the
        root *is* its target (single-node shard), else None."""
        root = self._root
        if target_leaf == root:
            # Degenerate shard (root == leaf): completes on admission.
            return step
        self.location[msg_id] = root
        self.targets[msg_id] = target_leaf
        self.admitted_at[msg_id] = step
        self.root_backlog += 1
        self.stats.admitted += 1
        return None

    def root_stalled(self, step: int) -> bool:
        """True iff the root is inside a stall window at ``step``.

        Admission control consults this so that, while the shard's
        ingest point is stalled, the queue holds instead of piling
        messages into a frozen root.
        """
        injector = self.injector
        return injector is not None and injector.is_stalled(step, self._root)

    def wipe(self) -> None:
        """Lose all in-flight machine state (a simulated shard crash).

        The chaos harness calls this to model a whole-shard kill: every
        location, target, buffer occupancy, and pending plan is gone, as
        if the shard process died.  The realized :attr:`log` and
        :attr:`stats` survive — they belong to the run's accounting, not
        to the shard's memory — and the supervisor is expected to
        :meth:`restore_state` from the journal before stepping again.
        """
        self.location = {}
        self.targets = {}
        self.admitted_at = {}
        self.occupancy = [0] * self.topology.n_nodes
        self._clear_plan()
        self.root_backlog = 0
        self.idle_streak = 0

    def restore_state(
        self, locations: "dict[int, int]", targets, *, step: int = 0
    ) -> None:
        """Rebuild in-flight state from a snapshot taken at ``step``.

        ``locations`` maps every in-flight message id to its current
        node; ``targets`` (a mapping or a dense list) must cover at least
        those ids.  Every restored message counts as admitted at
        ``step``.  Buffer occupancy and the root backlog are re-derived
        from the locations, and the pending plan is cleared — the caller
        re-plans from the restored locations.
        """
        root = self._root
        is_leaf = self._is_leaf
        self.location = {int(m): int(v) for m, v in locations.items()}
        self.targets = {int(m): int(targets[m]) for m in locations}
        self.admitted_at = dict.fromkeys(self.location, int(step))
        occupancy = [0] * self.topology.n_nodes
        backlog = 0
        for v in self.location.values():
            if v == root:
                backlog += 1
            elif not is_leaf[v]:
                occupancy[v] += 1
        self.occupancy = occupancy
        self.root_backlog = backlog
        self._clear_plan()
        self.idle_streak = 0

    def set_plan(self, plan: FlushPlan) -> None:
        """Replace the pending priority list with ``plan``, in order.

        The engine keeps ``plan.src`` and ``plan.dest`` as they are and
        works on copies of ``plan.msgs`` and ``plan.parking``.
        """
        self._src = plan.src
        self._dest = plan.dest
        self._msgs: "list[tuple[int, ...] | None]" = list(plan.msgs)
        self._parking = list(plan.parking)
        self._attempts: "dict[int, int]" = {}
        self._eligible_at: "dict[int, int]" = {}
        self._n_pending = len(self._msgs)

    def _clear_plan(self) -> None:
        self.set_plan(FlushPlan([], [], [], []))

    def pending_plan(self) -> FlushPlan:
        """The planned flushes not yet fully executed, in priority order
        (a partly delivered flush as its undelivered remainder)."""
        live = [i for i, ms in enumerate(self._msgs) if ms is not None]
        return FlushPlan(*(
            [column[i] for i in live]
            for column in (self._src, self._dest, self._msgs, self._parking)
        ))

    def _compact(self) -> None:
        """Drop done flushes from the plan lists, keeping each pending
        flush's retry state."""
        if self._attempts:
            live = [i for i, ms in enumerate(self._msgs) if ms is not None]
            index = {old: new for new, old in enumerate(live)}
            self._attempts = {
                index[i]: a for i, a in self._attempts.items() if i in index
            }
            self._eligible_at = {
                index[i]: e for i, e in self._eligible_at.items()
                if i in index
            }
        plan = self.pending_plan()
        self._src, self._dest, self._msgs, self._parking = (
            plan.src, plan.dest, plan.msgs, plan.parking
        )

    # ------------------------------------------------------------------
    def step(self, t: int) -> "list[tuple[int, int]]":
        """Run one DAM time step; returns ``(msg_id, step)`` completions.

        Executes up to ``P`` ready-and-admissible pending flushes in
        priority order (see the module docstring for the full gate) and
        appends each one that runs to :attr:`log`.
        """
        is_leaf = self._is_leaf
        root = self._root
        location = self.location
        loc = location.get
        targets = self.targets
        admitted_at = self.admitted_at
        occupancy = self.occupancy
        injector = self.injector
        stats = self.stats
        srcs = self._src
        dests = self._dest
        plan_msgs = self._msgs
        parking = self._parking
        attempts = self._attempts
        eligible_at = self._eligible_at
        log = self.log.append
        P = self.P
        B = self.B
        capacity = P if injector is None else injector.effective_p(t, P)
        completions: "list[tuple[int, int]]" = []
        ran = 0
        attempted = 0
        retries = 0
        finished = 0  # flushes that delivered all they hold
        from_root = 0  # messages flushed out of the root
        waiting = False
        moved: set[int] = set()  # messages still in flight that moved
        departed: dict[int, int] = {}
        arrived: dict[int, int] = {}
        for i, full in enumerate(plan_msgs):
            if full is None:
                continue  # done
            if attempted >= capacity:
                break
            src = srcs[i]
            if injector is not None:
                # Backoff and stall windows: no-ops unless faults are on.
                if eligible_at.get(i, 0) > t:
                    waiting = True
                    continue
                if injector.is_stalled(t, src) or injector.is_stalled(
                    t, dests[i]
                ):
                    stats.stalled_skips += 1
                    waiting = True
                    continue
            if loc(full[0]) != src:
                continue  # O(1) reject: first message not here yet
            if len(full) > 1 and list(map(loc, full)).count(src) < len(full):
                continue
            if moved and not moved.isdisjoint(full):
                continue  # a message moves one edge per step
            dest = dests[i]
            park = parking[i]
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
            delivered: "tuple[int, ...]" = full
            if injector is not None:
                status, delivered = injector.flush_outcome(
                    t, src, dest, full
                )
                if status == OUTCOME_FAILED:
                    stats.failed_attempts += 1
                    tries = attempts[i] = attempts.get(i, 0) + 1
                    eligible_at[i] = t + 1 + (1 << (tries - 1))
                    retries = max(retries, tries)
                    continue
                if status == OUTCOME_PARTIAL:
                    # Redeliver the remainder at the same priority
                    # slot, after backoff.
                    stats.partial_deliveries += 1
                    got = set(delivered)
                    remainder = tuple(m for m in full if m not in got)
                    plan_msgs[i] = remainder
                    parking[i] = sum(
                        1 for m in remainder if targets[m] != dest
                    )
                    tries = attempts[i] = attempts.get(i, 0) + 1
                    eligible_at[i] = t + 1 + (1 << (tries - 1))
                    retries = max(retries, tries)
            n = len(delivered)
            if n == len(full):
                plan_msgs[i] = None
                finished += 1
            else:
                delivered = tuple(sorted(delivered))
            ran += 1
            log(t, src, dest, delivered)
            if src == root:
                from_root += n
            elif not is_leaf[src]:
                departed[src] = departed.get(src, 0) + n
            if not is_leaf[dest]:
                arrived[dest] = arrived.get(dest, 0) + (
                    park if delivered is full
                    else sum(1 for m in delivered if targets[m] != dest)
                )
            for m in delivered:
                if targets[m] == dest:
                    completions.append((m, t))
                    del location[m]
                    del targets[m]
                    del admitted_at[m]
                else:
                    location[m] = dest
                    moved.add(m)
        for v, d in departed.items():
            occupancy[v] -= d
        for v, a in arrived.items():
            occupancy[v] += a
        self.root_backlog -= from_root
        stats.flushes += ran
        stats.completed += len(completions)
        n_pending = self._n_pending = self._n_pending - finished
        if n_pending and len(plan_msgs) > 2 * n_pending:
            self._compact()
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
                # deadlock (the plan is a priority order with no validity
                # proof, so parked messages can fill the buffer a flush
                # ahead of them needs).  Serving watches this streak and
                # forces a full re-plan.
                self.idle_streak += 1
            else:
                self.idle_streak = 0
        return completions
