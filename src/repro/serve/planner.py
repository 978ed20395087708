"""Epoch-based WORMS re-planning for the serving loop.

The batch pipeline plans once; a service re-plans as messages arrive.
:class:`EpochPlanner` folds newly admitted messages into a shard's plan
every ``epoch_length`` steps, in one of two modes:

* **noop** — no new admissions since the last plan: the in-flight
  priority list is already complete, keep it;
* **full** — otherwise, or when the engine reported a deadlock (a
  *forced* re-plan): re-plan *everything* still in flight from its
  current location, each message weighted by its age
  (:data:`AGE_BASE`), so messages parked mid-tree are not starved by
  fresh root arrivals.  The engine takes the plan whole
  (:meth:`~repro.policies.engine.ShardEngine.set_plan`).  The batch
  re-planner :func:`repro.policies.executor.worms_replan` is the same
  function, unweighted.

A plan is :func:`plan_flushes`: the paper's pipeline (packed sets ->
reduction -> MPHTF -> Lemma 8 order) run from each message's current
node.  Messages are grouped by that node, each group is packed and
reduced on the subtree below it, all into one task forest, and one
MPHTF solves it; an all-at-root plan is the one-group case.  The paper's
Lemma 9 covers neither the joined reduction nor the ``B/3`` packing
threshold (:data:`PLAN_DENOM`), so validity does not rest on the plan:
the plan is a *priority order*, and the shard engine's flush gate keeps
every executed step valid whatever the order.

:func:`plan_flushes` runs the flat planning kernel, one flat plan from
planner to gate, each stage in as few passes as its rule allows:

* :func:`~repro.core.packed.pack_sets` packs each group on its global
  ids, and the split of a packed node's messages by child that finds
  the packed nodes is the one its sets carry;
* :func:`~repro.core.reduction.reduce_sets` turns all groups' sets into
  one task forest, each task created with its predecessor link, weight,
  parking count and global-id message tuple, so no ids are remapped and
  no forests joined;
* :func:`~repro.scheduling.mphtf.mphtf_plan` runs Horn's trees over that
  forest, then PHTF and MPHTF in one loop, and returns the flat task
  order;
* the plan is a :class:`~repro.dam.schedule.FlushPlan`, the tasks' lists
  in that order, which the engine takes as it is.

A plan builds no ``Message``, ``WORMSInstance``, ``SchedulingInstance``,
numpy array, ``Flush`` or per-flush object of any kind.  The object APIs
(``build_packed_sets``, ``reduce_to_scheduling``, ``compute_horn``,
``phtf_schedule``, ``mphtf_schedule``) wrap the same cores, so every
stage has one implementation and a one-group plan is the one the object
pipeline computes on that group's subtree.

Planned flushes carry global message ids; the shard engine's gate
decides actual step placement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.packed import pack_sets
from repro.core.reduction import reduce_sets
from repro.dam.schedule import FlushPlan
from repro.obs.hooks import current_obs
from repro.obs.profile import PHASE_PLAN
from repro.scheduling.mphtf import mphtf_plan
from repro.serve.router import ShardEngine
from repro.tree.topology import TreeTopology
from repro.util.errors import InvalidInstanceError

# Not called here (plan_flushes runs the stage cores they wrap); kept as
# module attributes because e2ebench's tracer wraps them by name.
from repro.core.reduction import reduce_to_scheduling  # noqa: F401,E402
from repro.core.task_to_flush import (  # noqa: F401,E402
    task_schedule_to_flush_schedule,
)
from repro.core.worms import WORMSInstance  # noqa: F401,E402
from repro.policies.online import online_density_schedule  # noqa: F401,E402
from repro.scheduling.mphtf import mphtf_schedule  # noqa: F401,E402

#: Every plan packs at ``B/PLAN_DENOM``, not the paper's ``B/6``: the
#: packing ablation (``ABL_packing_threshold.txt``) measures ``B/3`` as
#: the best threshold, 1.45 vs 1.83 cost/LB (docs/MODEL.md).
PLAN_DENOM = 3
#: A full serve re-plan weights each message ``AGE_BASE + age``, where
#: ``age`` is how many steps before the plan's newest message it was
#: admitted: the integer form of ``1 + age / AGE_BASE``.
AGE_BASE = 8


def plan_flushes(
    topology: TreeTopology,
    P: int,
    B: int,
    msg_ids: "list[int]",
    targets: "dict[int, int] | list[int]",
    locations: "dict[int, int] | list[int] | None" = None,
    *,
    weights: "list[int] | None" = None,
    allow_internal_targets: bool = False,
) -> FlushPlan:
    """The priority-ordered plan for ``msg_ids`` (global ids preserved).

    ``targets`` and ``locations`` map a global id to its target and
    current node (a dict or a dense list; no ``locations``: every
    message is at the root).  Messages are grouped by current node; each
    group is packed at ``B/``:data:`PLAN_DENOM` and reduced on the
    subtree below its node, straight into one task forest in node order,
    and one MPHTF orders it (one flush per task, in step order).
    ``weights[i]`` is message ``msg_ids[i]``'s integer weight in the
    ``ΣwC`` objective (default: unit weights).  Targets must be leaves
    unless ``allow_internal_targets`` (the footnote-3 extension).
    """
    if P < 1 or B < 1:
        raise InvalidInstanceError(f"need P >= 1 and B >= 1, got {P}, {B}")
    if not msg_ids:
        return FlushPlan([], [], [], [])
    tables = topology.tables
    is_leaf = tables.is_leaf
    msg_targets = list(map(targets.__getitem__, msg_ids))
    if (
        min(msg_targets) < 0 or max(msg_targets) >= len(is_leaf)
        or not (allow_internal_targets
                or all(map(is_leaf.__getitem__, msg_targets)))
    ):
        for m, t in zip(msg_ids, msg_targets):
            if not 0 <= t < len(is_leaf):
                raise InvalidInstanceError(
                    f"message {m} targets unknown node {t}"
                )
            if not (allow_internal_targets or is_leaf[t]):
                raise InvalidInstanceError(
                    f"message {m} targets non-leaf node {t}"
                )
    starts = (
        [tables.root] if locations is None
        else list(map(locations.__getitem__, msg_ids))
    )
    if min(starts) == max(starts):
        groups = {starts[0]: msg_ids}
    else:
        groups = {}
        for m, v in zip(msg_ids, starts):
            group = groups.get(v)
            if group is None:
                groups[v] = [m]
            else:
                group.append(m)
    set_node: "list[int]" = []
    set_msgs: list = []
    set_split: list = []
    set_top: "list[int]" = []
    for top in sorted(groups):
        _nodes, nodes, tuples, splits = pack_sets(
            tables, targets, groups[top], B, PLAN_DENOM, top
        )
        set_node += nodes
        set_msgs += tuples
        set_split += splits
        set_top += [top] * len(nodes)
    tasks = reduce_sets(
        tables, targets, set_node, set_msgs, set_split,
        None if weights is None else dict(zip(msg_ids, weights)), set_top,
    )
    order = mphtf_plan(tasks.children, tasks.roots, tasks.weight, P)
    msgs = list(map(tasks.msgs.__getitem__, order))
    if msg_ids != sorted(msg_ids):
        # Task tuples keep the order of ``msg_ids``: ascending when it is.
        msgs = [tuple(sorted(ms)) for ms in msgs]
    return FlushPlan(
        list(map(tasks.src.__getitem__, order)),
        list(map(tasks.dest.__getitem__, order)),
        msgs,
        list(map(tasks.parking.__getitem__, order)),
    )


@dataclass
class PlannerStats:
    """What planning actually did, per mode."""

    noop_epochs: int = 0
    full_replans: int = 0
    forced_replans: int = 0
    #: flushes the pipeline emitted.
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

        Returns the planning mode used: ``"noop"``, ``"full"``, or
        ``"forced"`` (observability reads it; the stats counters are
        unchanged).
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
        if force_full:
            self.stats.forced_replans += 1
        elif not new_msgs:
            self.stats.noop_epochs += 1
            return "noop"
        else:
            self.stats.full_replans += 1
        # Full re-plan of everything still in flight from current state,
        # each message weighted by its age.
        residual = sorted(engine.location)
        admitted = [engine.admitted_at[m] for m in residual]
        newest = max(admitted, default=0)
        plan = plan_flushes(
            engine.topology, engine.P, engine.B, residual, engine.targets,
            engine.location,
            weights=[AGE_BASE + newest - a for a in admitted],
        )
        engine.set_plan(plan)
        engine.idle_streak = 0
        self.stats.planned_flushes += len(plan)
        return "forced" if force_full else "full"
