"""Forced re-planning and admission conservation under pressure.

Two serving-loop contracts the batch tests cannot see:

* a shard whose plan deadlocks (no pending flush ever becomes ready) is
  rescued by a **forced full re-plan** after ``MAX_IDLE_STEPS`` idle
  steps — and when the budget of ``MAX_FORCED_REPLANS`` is spent the
  shard's circuit breaker trips instead of the loop spinning: the shard
  restarts from its journal with a fresh budget, or is abandoned with
  its messages counted-shed;
* admission accounting stays conservative under combined shedding and
  stall-holds: every arrival is admitted, shed, or still queued — never
  lost — and the final snapshot balances exactly.
"""

from __future__ import annotations

from repro.dam.schedule import Flush, FlushPlan
from repro.serve.loop import (
    MAX_FORCED_REPLANS,
    ServeConfig,
    ServiceLoop,
)
from repro.serve.planner import EpochPlanner
from repro.serve.supervisor import SupervisorConfig


def mid_node(topo):
    """An internal non-root node (exists for height >= 2 shard trees)."""
    for v in range(topo.n_nodes):
        if v != topo.root and not topo.is_leaf(v):
            return v
    raise AssertionError("tree has no internal non-root node")


class PoisonPlanner(EpochPlanner):
    """An EpochPlanner that installs unready plans ``poison`` times.

    The poisoned plan sources every flush at a mid-tree node while the
    messages sit at the root, so the engine's gate rejects every pending
    flush forever: the exact deadlock shape the serving loop's forced
    re-plan exists to escape.  ``poison_forced=True`` also poisons the
    forced re-plans, exhausting the loop's budget.
    """

    def __init__(self, epoch_length, *, poison=1, poison_forced=False):
        super().__init__(epoch_length)
        self.poison_left = poison
        self.poison_forced = poison_forced
        self.poisoned = 0

    def _plan(self, engine, new_msgs, *, force_full=False):
        if force_full and not self.poison_forced:
            return super()._plan(engine, new_msgs, force_full=True)
        if self.poison_left == 0:
            return super()._plan(engine, new_msgs, force_full=force_full)
        self.poison_left -= 1
        self.poisoned += 1
        if force_full:
            self.stats.forced_replans += 1
        src = mid_node(engine.topology)
        stuck = sorted(engine.location)
        engine.set_plan(FlushPlan.of(
            [Flush(src, engine.targets[m], (m,)) for m in stuck],
            engine.targets,
        ))
        engine.idle_streak = 0
        self.stats.planned_flushes += len(stuck)
        return "forced" if force_full else "full"


def one_shot_config(n=12):
    """All arrivals at step 1, one shard: exactly one epoch plan."""
    return ServeConfig(
        arrivals="trace", trace=tuple((1, k) for k in range(n)),
        messages=n, shards=1, P=2, B=8, epoch=4, seed=7,
    )


class TestForcedReplanEscape:
    def test_poisoned_plan_recovers_via_forced_replan(self):
        config = one_shot_config()
        loop = ServiceLoop(config)
        loop.planner = PoisonPlanner(config.epoch, poison=1)
        report = loop.run()
        assert loop.planner.poisoned == 1
        assert loop.planner.stats.forced_replans >= 1
        # Every message still completes, despite the dead first plan.
        assert len(report.completions) == config.messages
        assert report.snapshot["in_flight"] == 0

    def test_forced_replan_is_slower_than_a_clean_run(self):
        """The escape costs the idle window; a clean run skips it."""
        config = one_shot_config()
        clean = ServiceLoop(config).run()
        poisoned = ServiceLoop(config)
        poisoned.planner = PoisonPlanner(config.epoch, poison=1)
        report = poisoned.run()
        assert report.n_steps > clean.n_steps
        assert report.completions.keys() == clean.completions.keys()

    def test_replan_budget_exhaustion_trips_breaker(self):
        def run(restart_budget):
            config = one_shot_config()
            # trip_after is out of reach, so only the spent re-plan
            # budget can trip the breaker.
            loop = ServiceLoop(config, supervisor=SupervisorConfig(
                trip_after=50, restart_budget=restart_budget,
            ))
            loop.planner = PoisonPlanner(
                config.epoch, poison=MAX_FORCED_REPLANS + 2,
                poison_forced=True,
            )
            trips = []
            trip = loop._open_breaker

            def recording_trip(sid, epoch):
                trips.append((loop.planner.stats.forced_replans,
                              loop._replans_left[sid]))
                trip(sid, epoch)

            loop._open_breaker = recording_trip
            report = loop.run()
            snap = report.snapshot
            assert snap["arrived"] == snap["completed"] + snap["shed"]
            # The first trip came once the whole budget was spent.
            assert trips[0] == (MAX_FORCED_REPLANS, 0)
            return report.supervisor, snap

        # A restart re-plans from the journal fold with a fresh budget
        # and every message completes.
        sup, snap = run(restart_budget=3)
        assert sup.trips >= 1 and sup.restarts >= 1
        assert sup.abandoned_shards == 0
        assert snap["completed"] == 12 and snap["shed"] == 0
        # With no restart left, the first probe abandons the shard and
        # counted-sheds all of its messages.
        sup, snap = run(restart_budget=0)
        assert sup.trips == 1 and sup.restarts == 0
        assert sup.abandoned_shards == 1
        assert sup.abandoned_messages == snap["shed"] == 12


class TestAdmissionConservation:
    CONFIG = ServeConfig(
        arrivals="poisson", rate=12.0, messages=400, shards=2, seed=17,
        P=2, B=8, epoch=4, max_queue=5, max_root_backlog=6,
        fault_rate=0.1,
    )

    def test_every_arrival_is_accounted_for(self):
        report = ServiceLoop(self.CONFIG).run()
        snap = report.snapshot
        adm = report.admission_stats
        # The scenario really combines both pressure mechanisms.
        assert snap["shed"] > 0
        assert adm.stall_holds > 0
        # Offer-side conservation: offered = admitted + shed + queued(0).
        assert adm.offered == adm.admitted + adm.shed
        assert adm.shed == snap["shed"]
        assert adm.admitted == snap["admitted"]
        # Run-level conservation: the loop drained completely.
        assert snap["in_flight"] == 0
        assert snap["arrived"] == snap["completed"] + snap["shed"]
        # Per-shard rows re-balance the same totals.
        assert sum(s["arrived"] for s in snap["shards"]) == snap["arrived"]
        assert sum(s["completed"] for s in snap["shards"]) \
            == snap["completed"]
        assert sum(s["shed"] for s in snap["shards"]) == snap["shed"]
        assert sum(adm.shed_by_shard.values()) == adm.shed

    def test_admitted_messages_all_complete(self):
        report = ServiceLoop(self.CONFIG).run()
        assert len(report.completions) == report.admission_stats.admitted
        # Shed ids never appear among completions.
        shed_ids = set(report.metrics.shed_ids)
        assert shed_ids
        assert shed_ids.isdisjoint(report.completions)

    def test_conservation_holds_step_by_step(self):
        """At every step: arrived = completed + shed + queued + in tree."""
        report = ServiceLoop(self.CONFIG).run()
        m = report.metrics
        n_steps = report.snapshot["n_steps"]
        arrivals_by_step = sorted(m.arrival_step.values())
        # A shed happens at the arrival step of the shed message.
        sheds_by_step = sorted(m.arrival_step[i] for i in m.shed_ids)
        completions_by_step = sorted(m.completion_step.values())
        import bisect

        for t in range(1, n_steps + 1):
            arrived = bisect.bisect_right(arrivals_by_step, t)
            shed = bisect.bisect_right(sheds_by_step, t)
            completed = bisect.bisect_right(completions_by_step, t)
            queued = sum(tl.queue_depth[t - 1] for tl in m.timelines)
            in_tree = sum(tl.in_flight[t - 1] for tl in m.timelines)
            assert arrived == completed + shed + queued + in_tree, (
                f"conservation broke at step {t}"
            )
