"""The obs hard constraint: instrumentation never changes a schedule.

With observability disabled (the default), the instrumented layers must
make byte-identical decisions to an uninstrumented build; with it
enabled, the *schedules* must still be byte-identical — the hooks only
watch.  These tests run each layer once per obs state and diff the
realized schedules / completions exactly.
"""

from __future__ import annotations

from repro.faults import FaultInjector, FaultPlan
from repro.obs import NOOP_SPAN, current_obs, disable_obs, observed
from repro.obs.hooks import DISABLED
from repro.policies import GatedExecutor, WormsPolicy
from repro.serve.loop import ServeConfig, ServiceLoop
from repro.tree import balanced_tree
from tests.conftest import make_uniform


def ordered_flushes(schedule):
    return [f for _t, f in schedule.iter_timed()]


def test_default_context_is_the_disabled_singleton():
    assert current_obs() is DISABLED
    assert current_obs().enabled is False
    # The disabled tracer hands out the process-wide no-op span: the hot
    # path allocates nothing per call.
    assert current_obs().tracer.span("hot", category="x") is NOOP_SPAN


def test_observed_restores_previous_context():
    before = current_obs()
    with observed() as ctx:
        assert current_obs() is ctx
        assert ctx.enabled
    assert current_obs() is before


class TestExecutorDeterminism:
    def test_gated_executor_schedule_identical_on_off(self):
        inst = make_uniform(balanced_tree(3, 3), n_messages=200, P=3, B=16,
                            seed=7)
        ordered = ordered_flushes(WormsPolicy().schedule(inst))
        disable_obs()
        off = GatedExecutor(inst).run(list(ordered))
        with observed() as ctx:
            on = GatedExecutor(inst).run(list(ordered))
        assert on.steps == off.steps
        assert ctx.tracer.n_spans >= 1
        counters = ctx.metrics.snapshot()["counters"]
        assert counters["executor_runs_total"] == 1
        assert counters["executor_flushes_total"] == on.n_flushes

    def test_resilient_executor_with_faults_identical_on_off(self):
        inst = make_uniform(balanced_tree(3, 3), n_messages=150, P=2, B=12,
                            seed=5)
        ordered = ordered_flushes(WormsPolicy().schedule(inst))

        def run():
            injector = FaultInjector(FaultPlan.uniform(0.25), seed=11)
            return GatedExecutor(
                inst, injector, retry_budget=4, max_replans=4
            ).run(list(ordered))

        disable_obs()
        off = run()
        with observed() as ctx:
            on = run()
        assert on.steps == off.steps
        counters = ctx.metrics.snapshot()["counters"]
        assert counters["executor_runs_total"] == 1
        # Under this seeded plan recovery work happened and was counted.
        assert counters["executor_retries_total"] \
            + counters["executor_partial_deliveries_total"] > 0

    def test_enabling_midway_does_not_disturb_later_runs(self):
        """On -> off -> on again: every run yields the same schedule."""
        inst = make_uniform(balanced_tree(3, 3), n_messages=120, P=2, B=12,
                            seed=3)
        ordered = ordered_flushes(WormsPolicy().schedule(inst))
        baseline = GatedExecutor(inst).run(list(ordered))
        with observed():
            assert GatedExecutor(inst).run(list(ordered)).steps \
                == baseline.steps
        assert GatedExecutor(inst).run(list(ordered)).steps == baseline.steps


class TestServeDeterminism:
    CONFIG = ServeConfig(
        arrivals="poisson", rate=6.0, messages=150, shards=2, seed=21,
        P=3, B=8, epoch=4,
    )

    def _run(self):
        return ServiceLoop(self.CONFIG).run()

    def test_serve_run_identical_on_off(self):
        disable_obs()
        off = self._run()
        with observed() as ctx:
            on = self._run()
        assert on.completions == off.completions
        assert on.n_steps == off.n_steps
        assert [s.steps for s in on.shard_schedules] \
            == [s.steps for s in off.shard_schedules]
        counters = ctx.metrics.snapshot()["counters"]
        assert counters["serve_runs_total"] == 1
        assert counters["serve_steps_total"] == on.n_steps

    def test_serve_metrics_snapshot_is_deterministic(self):
        """Two identical enabled runs -> byte-identical metric snapshots.

        This is the property the CI trace-smoke job diffs end to end.
        """
        with observed() as ctx1:
            self._run()
            snap1 = ctx1.metrics.to_json()
        with observed() as ctx2:
            self._run()
            snap2 = ctx2.metrics.to_json()
        assert snap1 == snap2


class TestReconciliation:
    """Obs counters must reconcile with serve's own conservation totals."""

    CONFIG = ServeConfig(
        arrivals="poisson", rate=10.0, messages=300, shards=2, seed=9,
        P=2, B=8, epoch=4, max_queue=6, max_root_backlog=8,
        fault_rate=0.08,
    )

    def test_counters_match_serve_snapshot(self):
        with observed() as ctx:
            report = ServiceLoop(self.CONFIG).run()
        snap = report.snapshot
        counters = ctx.metrics.snapshot()["counters"]
        # Conservation: the registry saw exactly what the loop accounted.
        assert counters["serve_arrivals_total"] == snap["arrived"]
        assert counters["serve_admitted_total"] == snap["admitted"]
        assert counters["serve_completions_total"] == snap["completed"]
        assert counters.get("serve_shed_total", 0) == snap["shed"]
        # The run drained: arrived = completed + shed, nothing in flight.
        assert snap["in_flight"] == 0
        assert snap["arrived"] == snap["completed"] + snap["shed"]
        # The scenario really exercised shedding (per-shard labels too).
        assert snap["shed"] > 0
        shed_by_shard = sum(
            v for k, v in counters.items()
            if k.startswith("serve_shed_total{")
        )
        assert shed_by_shard == snap["shed"]
        # Engine-realized flushes match the labeled totals.
        flushes = sum(s.flushes for s in report.shard_stats)
        assert counters["serve_flushes_total"] == flushes
        per_shard = sum(
            v for k, v in counters.items()
            if k.startswith("serve_flushes_total{")
        )
        assert per_shard == flushes
        # Retries under faults were counted from the shard stats.
        retries = sum(s.failed_attempts for s in report.shard_stats)
        assert counters["serve_retries_total"] == retries
