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
reduced on the subtree below it, and the joined task forest is solved
by one MPHTF; an all-at-root plan is the one-group case.  The paper's
Lemma 9 covers neither the joined reduction nor the ``B/3`` packing
threshold (:data:`PLAN_DENOM`), so validity does not rest on the plan:
the plan is a *priority order*, and the shard engine's flush gate keeps
every executed step valid whatever the order.

:func:`plan_flushes` runs the flat planning kernel: each stage's core,
called directly — :func:`~repro.core.packed.pack_sets`,
:func:`~repro.core.reduction.reduce_sets`,
:func:`~repro.scheduling.mphtf.mphtf_plan` (Horn's trees, PHTF,
MPHTF) — on parallel int lists over the shard tree's
:attr:`~repro.tree.topology.TreeTopology.tables`, so a plan builds no
``Message``, ``WORMSInstance``, ``SchedulingInstance`` or numpy array.
The object APIs (``build_packed_sets``, ``reduce_to_scheduling``,
``compute_horn``, ``mphtf_schedule``) wrap the same cores, so every
stage has one implementation and a one-group plan is the one the object
pipeline computes on that group's subtree.

Planned flushes carry global message ids; the shard engine's gate
decides actual step placement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.packed import pack_sets
from repro.core.reduction import reduce_sets
from repro.dam.schedule import Flush
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
) -> "list[Flush]":
    """Priority-ordered flush list for ``msg_ids`` (global ids preserved).

    ``targets`` and ``locations`` map a global id to its target and
    current node (a dict or a dense list; no ``locations``: every
    message is at the root).  Messages are grouped by current node; each
    group is packed at ``B/``:data:`PLAN_DENOM` and reduced on the
    subtree below its node, the task forests are joined in node order,
    and one MPHTF orders them all (one flush per task, in step order).
    ``weights[i]`` is message ``msg_ids[i]``'s integer weight in the
    ``ΣwC`` objective (default: unit weights).  Targets must be leaves
    unless ``allow_internal_targets`` (the footnote-3 extension).
    """
    if P < 1 or B < 1:
        raise InvalidInstanceError(f"need P >= 1 and B >= 1, got {P}, {B}")
    if not msg_ids:
        return []
    tables = topology.tables
    is_leaf = tables.is_leaf
    n_nodes = len(is_leaf)
    sub_targets = [targets[m] for m in msg_ids]
    for i, t in enumerate(sub_targets):
        if not 0 <= t < n_nodes:
            raise InvalidInstanceError(
                f"message {msg_ids[i]} targets unknown node {t}"
            )
        if not (allow_internal_targets or is_leaf[t]):
            raise InvalidInstanceError(
                f"message {msg_ids[i]} targets non-leaf node {t}"
            )
    if locations is None:
        groups = {tables.root: None}
    else:
        groups = {}
        for i, m in enumerate(msg_ids):
            groups.setdefault(locations[m], []).append(i)
        if len(groups) == 1:
            groups = dict.fromkeys(groups)
    ascending = all(a < b for a, b in zip(msg_ids, msg_ids[1:]))
    presorted = Flush.presorted
    parent: "list[int]" = []
    weight: "list[int]" = []
    flushes: "list[Flush]" = []  # one per task of the joined forest
    for top in sorted(groups):
        group = groups[top]
        if group is None:  # every message starts at ``top``
            ids, group_targets, group_weights = msg_ids, sub_targets, weights
        else:
            ids = [msg_ids[i] for i in group]
            group_targets = [sub_targets[i] for i in group]
            group_weights = (
                None if weights is None else [weights[i] for i in group]
            )
        _nodes, set_node, set_msgs, _children = pack_sets(
            tables, group_targets, B, PLAN_DENOM, top
        )
        g_parent, g_weight, _sets, src, dest, msgs = reduce_sets(
            tables, group_targets, set_node, set_msgs, group_weights, top
        )
        if flushes:
            offset = len(flushes)
            g_parent = [j + offset if j >= 0 else -1 for j in g_parent]
        parent += g_parent
        weight += g_weight
        # Sub-ids -> global ids: every ``msgs`` tuple is ascending, so it
        # stays so when ``msg_ids`` is.
        flushes += map(presorted, src, dest, [
            tuple([ids[i] for i in ms]) for ms in msgs
        ] if ascending else [
            tuple(sorted([ids[i] for i in ms])) for ms in msgs
        ])
    return [flushes[j] for step in mphtf_plan(parent, weight, P) for j in step]


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
        flushes = plan_flushes(
            engine.topology, engine.P, engine.B, residual, engine.targets,
            engine.location,
            weights=[AGE_BASE + newest - a for a in admitted],
        )
        engine.set_plan(flushes)
        engine.idle_streak = 0
        self.stats.planned_flushes += len(flushes)
        return "forced" if force_full else "full"
