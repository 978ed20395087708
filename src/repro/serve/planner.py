"""Epoch-based WORMS re-planning for the serving loop.

The batch pipeline plans once; a service re-plans as messages arrive.
:class:`EpochPlanner` folds newly admitted messages into a shard's
in-flight flush list every ``epoch_length`` steps, choosing the cheapest
sufficient planning mode per epoch:

* **noop** — no new admissions since the last plan: the in-flight
  priority list is already complete, keep it;
* **incremental** — new arrivals all target *clean* top-level subtrees
  (no in-flight message is parked mid-tree under them): the paper
  pipeline (reduction -> MPHTF -> Lemma 8 order) runs on just the new
  root-resident messages and the resulting flushes append after the
  in-flight list.  Validity is preserved by the admission gate whatever
  the order, so the fast path trades only priority freshness, not
  correctness — and it skips re-reducing the (large) residual backlog;
* **full** — some arrival lands in a dirty subtree, or the engine
  reported a deadlock between stitched plans: re-plan *everything* still
  in flight from its current location.  All-at-root residues go through
  the paper pipeline; mid-tree residues use the density-guided online
  scheduler (which is valid from arbitrary start nodes), exactly the
  split :func:`repro.policies.resilient.worms_replan` uses.

Planned flushes carry global message ids; the plan is a *priority
order*, the shard engine's gate decides actual step placement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.reduction import reduce_to_scheduling
# Not called here (plan_flushes maps tasks to flushes itself); kept as a
# module attribute because e2ebench's tracer wraps it by name.
from repro.core.task_to_flush import task_schedule_to_flush_schedule  # noqa: F401
from repro.core.worms import WORMSInstance
from repro.dam.schedule import Flush
from repro.obs.hooks import current_obs
from repro.obs.profile import PHASE_PLAN
from repro.policies.online import online_density_schedule
from repro.scheduling.deamortize import pace_flush_list
from repro.scheduling.mphtf import mphtf_schedule
from repro.serve.router import ShardEngine
from repro.tree.messages import Message
from repro.tree.topology import TreeTopology
from repro.util.errors import InvalidInstanceError


def plan_flushes(
    topology: TreeTopology,
    P: int,
    B: int,
    msg_ids: "list[int]",
    targets: "dict[int, int]",
    locations: "dict[int, int] | None" = None,
) -> "list[Flush]":
    """Priority-ordered flush list for ``msg_ids`` (global ids preserved).

    Builds a dense sub-instance, plans it, and maps the flushes back to
    the caller's ids.  With ``locations`` (mid-tree residue) the online
    density scheduler plans from the current nodes; all-at-root input
    goes through the paper pipeline.
    """
    if not msg_ids:
        return []
    root = topology.root
    all_at_root = locations is None or all(
        locations[m] == root for m in msg_ids
    )
    sub_messages = [
        Message(i, int(targets[m])) for i, m in enumerate(msg_ids)
    ]
    sub = WORMSInstance(
        topology,
        sub_messages,
        P=P,
        B=B,
        start_nodes=None if all_at_root
        else [int(locations[m]) for m in msg_ids],
    )
    if all_at_root:
        # One global-id flush per scheduled task, in Lemma 8's order.
        reduced = reduce_to_scheduling(sub)
        sigma = mphtf_schedule(reduced.scheduling)
        edges = reduced.task_edges
        flushes = []
        for step in sigma.steps:
            for j in step:
                e = edges[j]
                flushes.append(Flush(
                    e.src, e.dest, tuple([msg_ids[i] for i in e.messages])
                ))
        return flushes
    planned = online_density_schedule(sub)
    return [
        Flush(f.src, f.dest, tuple(msg_ids[i] for i in f.messages))
        for _t, f in planned.iter_timed()
    ]


@dataclass
class PlannerStats:
    """What planning actually did, per mode."""

    noop_epochs: int = 0
    incremental_plans: int = 0
    full_replans: int = 0
    forced_replans: int = 0
    planned_flushes: int = 0


class EpochPlanner:
    """Fold arrivals into shard plans every ``epoch_length`` steps."""

    def __init__(self, epoch_length: int = 8) -> None:
        if epoch_length < 1:
            raise InvalidInstanceError(
                f"epoch_length must be >= 1, got {epoch_length}"
            )
        self.epoch_length = int(epoch_length)
        self.stats = PlannerStats()

    def _shape(self, flushes: "list[Flush]") -> "list[Flush]":
        """Hook between planning and the engine's priority list.

        The base planner is the identity — the plan lands exactly as the
        pipeline emitted it.  :class:`PacedPlanner` overrides this to
        de-amortize the list.  (``planned_flushes`` counts the pipeline's
        output, before shaping, so planner stats compare across modes.)
        """
        return flushes

    def is_boundary(self, step: int) -> bool:
        """True iff planning runs at the start of 1-based ``step``."""
        return (step - 1) % self.epoch_length == 0

    def epoch_of(self, step: int) -> int:
        """0-based epoch index containing 1-based ``step``."""
        return (step - 1) // self.epoch_length

    def plan(
        self,
        engine: ShardEngine,
        new_msgs: "list[int]",
        *,
        force_full: bool = False,
    ) -> str:
        """Update ``engine.pending`` for this epoch (see module docstring).

        Returns the planning mode used: ``"noop"``, ``"incremental"``,
        ``"full"``, or ``"forced"`` (observability reads it; the stats
        counters are unchanged).
        """
        obs = current_obs()
        if not obs.enabled:
            return self._plan(engine, new_msgs, force_full=force_full)
        planned_before = self.stats.planned_flushes
        with obs.tracer.span(
            "serve.plan", category="serve",
            shard=engine.shard_id, arrivals=len(new_msgs),
        ) as span:
            with obs.profiler.phase(PHASE_PLAN):
                mode = self._plan(engine, new_msgs, force_full=force_full)
            span.set("mode", mode)
            span.set(
                "planned_flushes", self.stats.planned_flushes - planned_before
            )
        obs.metrics.counter(
            "serve_plans_total", "epoch planning decisions"
        ).labels(mode=mode).inc()
        return mode

    def _plan(
        self,
        engine: ShardEngine,
        new_msgs: "list[int]",
        *,
        force_full: bool = False,
    ) -> str:
        topo = engine.topology
        root = topo.root
        if force_full:
            self.stats.forced_replans += 1
        elif not new_msgs:
            self.stats.noop_epochs += 1
            return "noop"
        if not force_full:
            # A top-level subtree is dirty when an in-flight message is
            # parked below the root in it; root_path(v)[1] names it.
            dirty = {
                topo.root_path(v)[1]
                for v in engine.location.values()
                if v != root
            }
            clean = True
            for m in new_msgs:
                path = topo.root_path(engine.targets[m])
                top = path[1] if len(path) > 1 else root
                if top in dirty:
                    clean = False
                    break
            if clean:
                flushes = plan_flushes(
                    topo, engine.P, engine.B, list(new_msgs), engine.targets
                )
                engine.append_plan(self._shape(flushes))
                self.stats.incremental_plans += 1
                self.stats.planned_flushes += len(flushes)
                return "incremental"
        # Full re-plan of everything still in flight from current state.
        residual = sorted(engine.location)
        flushes = plan_flushes(
            topo, engine.P, engine.B, residual, engine.targets,
            engine.location,
        )
        engine.set_plan(self._shape(flushes))
        engine.idle_streak = 0
        if not force_full:
            self.stats.full_replans += 1
        self.stats.planned_flushes += len(flushes)
        return "forced" if force_full else "full"


class PacedPlanner(EpochPlanner):
    """An :class:`EpochPlanner` that de-amortizes every plan it emits.

    Planned flush lists pass through
    :func:`repro.scheduling.deamortize.pace_flush_list`: obligations
    larger than ``pace`` messages split into budget-sized chunks, and
    chunks of distinct oversized obligations interleave round-robin, so
    the engine's per-step budget (:attr:`ShardEngine.pace`, the hard
    bound) is spent breadth-first instead of head-of-line.  This is the
    planner-level half of ``serve --pace``; with the engine's own budget
    it trades a bounded constant factor of mean completion time for flat
    tails (Das–Iacono–Nekrich, PAPERS.md).
    """

    def __init__(self, epoch_length: int = 8, *, pace: int = 1) -> None:
        super().__init__(epoch_length)
        if pace < 1:
            raise InvalidInstanceError(
                f"pace budget must be >= 1, got {pace}"
            )
        self.pace = int(pace)

    def _shape(self, flushes: "list[Flush]") -> "list[Flush]":
        return pace_flush_list(flushes, self.pace)
