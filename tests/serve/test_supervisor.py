"""Shard supervision: breakers, spill/shed conservation, live restart.

The contracts under test:

* admission conservation holds across every breaker transition: every
  arrival is queued, spilled, shed, completed, resident in an engine,
  or (transiently) awaiting restart on a quarantined shard — never
  silently lost;
* a chaos drill (whole-shard stall burst + mid-run kill) loses zero
  messages, restarts the killed shard from its journal, and leaves the
  unaffected shards' tail latency untouched;
* breaker trips, probe scheduling, and restarts are a pure function of
  ``ServeConfig.seed`` — two identical chaos runs produce identical
  metric snapshots and health logs;
* a run that outlives ``max_steps`` raises an
  :class:`ExecutionStalledError` carrying its step, epoch, and last
  durable step.

That :class:`ServiceLoop` supervision is free when nothing trips is
pinned by the plain-era journal fixtures in ``test_driver_recovery``
and by the driver goldens.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.faults import CHAOS_CORRUPT, CHAOS_KILL, CHAOS_STALL, ChaosEvent, ChaosPlan
from repro.serve import (
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    RECOVERING,
    CircuitBreaker,
    ServeConfig,
    ServiceLoop,
    SupervisorConfig,
    recover_serve,
)
from repro.serve.supervisor import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
)
from repro.util.errors import ExecutionStalledError, InvalidInstanceError


def serve_config(**overrides) -> ServeConfig:
    base = dict(arrivals="poisson", rate=8.0, messages=300, shards=4,
                seed=3, P=3, B=8, epoch=4, checkpoint_every=4)
    base.update(overrides)
    return ServeConfig(**base)


#: stall shard 1 for 12 steps, then kill shard 2 mid-run: the ISSUE's
#: acceptance drill.  Shards 0 and 3 are untouched.
DRILL = ChaosPlan((
    ChaosEvent(18, CHAOS_STALL, 1, duration=12),
    ChaosEvent(30, CHAOS_KILL, 2),
))


# ----------------------------------------------------------------------
# Circuit breaker state machine
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, **kw):
        args = dict(trip_after=2, probe_backoff=1, max_backoff=8, seed=5)
        args.update(kw)
        return CircuitBreaker(0, **args)

    def test_trips_after_consecutive_stalls_only(self):
        br = self.make()
        assert not br.note_stall()
        br.note_ok()  # progress resets the streak
        assert not br.note_stall()
        assert br.note_stall()
        assert br.state == BREAKER_CLOSED  # note_stall reports, trip acts
        br.trip(epoch=3)
        assert br.state == BREAKER_OPEN
        assert br.trips == 1

    def test_probe_backoff_doubles_per_trip_and_caps(self):
        br = self.make(probe_backoff=2, max_backoff=8)
        delays = []
        for trip_n, epoch in enumerate((0, 20, 40, 60), start=1):
            br.trip(epoch)
            delays.append(br.probe_at - epoch)
            br.half_open()
            br.state = BREAKER_OPEN  # re-arm without close()
            br.state = BREAKER_HALF_OPEN
        base = [2, 4, 8, 8]  # doubled then capped, jitter adds 0 or 1
        assert all(b <= d <= b + 1 for d, b in zip(delays, base))

    def test_probe_scheduling_is_deterministic_in_the_seed(self):
        a, b = self.make(seed=9), self.make(seed=9)
        for epoch in (0, 10, 25):
            a.trip(epoch), b.trip(epoch)
            assert a.probe_at == b.probe_at
            a.state = b.state = BREAKER_HALF_OPEN

    def test_open_close_cycle(self):
        br = self.make()
        br.trip(0)
        assert not br.probe_due(br.probe_at - 1)
        assert br.probe_due(br.probe_at)
        br.half_open()
        assert br.state == BREAKER_HALF_OPEN
        br.close()
        assert br.state == BREAKER_CLOSED
        assert br.probe_at == -1

    def test_lock_open_is_permanent(self):
        br = self.make()
        br.lock_open()
        assert not br.probe_due(10**6)

    def test_double_trip_is_a_noop_while_open(self):
        br = self.make()
        br.trip(0)
        probe = br.probe_at
        br.trip(0)
        assert br.trips == 1
        assert br.probe_at == probe


class TestSupervisorConfig:
    def test_meta_round_trip(self):
        cfg = SupervisorConfig(trip_after=3, restart_budget=1)
        assert SupervisorConfig.from_meta(cfg.to_meta()) == cfg

    @pytest.mark.parametrize("bad", [
        dict(trip_after=0),
        dict(probe_backoff=0),
        dict(probe_backoff=4, max_backoff=2),
        dict(spill_capacity=-1),
        dict(restart_budget=-1),
        dict(watchdog_deadline=0.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(InvalidInstanceError):
            SupervisorConfig(**bad)


# ----------------------------------------------------------------------
# Conservation across breaker transitions
# ----------------------------------------------------------------------
class ConservationChecked(ServiceLoop):
    """Asserts the admission-conservation invariant at every heartbeat.

    Every arrival must be completed, shed, queued, spilled, or resident
    in a shard engine; anything else must be awaiting restart on a
    quarantined (or abandoned mid-sweep) shard.
    """

    checked = 0

    def _heartbeat(self, t: int) -> None:
        super()._heartbeat(t)
        m = self.metrics
        accounted: set = set(m.completion_step) | set(m.shed_ids)
        for lanes in self.admission.lanes:
            for q in lanes:
                accounted |= {gid for gid, _leaf in q}
        for spill in self._spill:
            accounted |= {gid for gid, _leaf in spill}
        for engine in self.engines:
            accounted |= set(engine.location)
        missing = set(m.arrival_step) - accounted
        for gid in missing:
            sid = m.shard_of[gid]
            assert self._health[sid] in (QUARANTINED, RECOVERING), (
                f"message {gid} unaccounted for on {self._health[sid]} "
                f"shard {sid} at step {t}"
            )
        type(self).checked += 1


class TestConservation:
    def run_checked(self, chaos, **overrides):
        cfg = serve_config(**overrides)
        ConservationChecked.checked = 0
        loop = ConservationChecked(cfg, chaos=chaos)
        report = loop.run()
        assert ConservationChecked.checked > 0
        return loop, report

    def assert_exact(self, report):
        snap = report.snapshot
        assert snap["arrived"] == snap["completed"] + snap["shed"]
        assert snap["in_flight"] == 0

    def test_stall_only_drill_conserves_and_completes(self):
        # Steps 13-24 = epochs 3, 4, 5 fully stalled (epoch length 4):
        # enough consecutive stalled heartbeats to trip the breaker.
        stall = ChaosPlan((ChaosEvent(13, CHAOS_STALL, 1, duration=12),))
        loop, report = self.run_checked(stall, shards=2, messages=200)
        self.assert_exact(report)
        assert report.snapshot["shed"] == 0
        assert report.supervisor.trips >= 1
        assert report.supervisor.restarts >= 1
        # The breaker walked the full circle back to healthy.
        states = {hb.state for hb in report.health_log if hb.shard == 1}
        assert {DEGRADED, QUARANTINED, RECOVERING} <= states
        assert loop._health[1] == HEALTHY

    def test_kill_drill_conserves_and_completes(self):
        loop, report = self.run_checked(DRILL)
        self.assert_exact(report)
        assert report.snapshot["shed"] == 0
        assert len(report.completions) == report.snapshot["arrived"]

    def test_spill_overflow_is_counted_shed_never_lost(self):
        stall = ChaosPlan((ChaosEvent(10, CHAOS_STALL, 0, duration=16),))
        cfg = serve_config(shards=1, messages=300, rate=12.0)
        loop = ServiceLoop(
            cfg, chaos=stall,
            supervisor=SupervisorConfig(spill_capacity=4),
        )
        report = loop.run()
        sup = report.supervisor
        assert sup.spill_overflow_shed > 0
        snap = report.snapshot
        assert snap["arrived"] == snap["completed"] + snap["shed"]
        assert snap["shed"] >= sup.spill_overflow_shed
        # Door sheds surface in the admission stats too.
        assert report.admission_stats.shed >= sup.spill_overflow_shed
        assert report.admission_stats.offered == snap["arrived"]


# ----------------------------------------------------------------------
# The acceptance drill: stall burst + mid-run kill
# ----------------------------------------------------------------------
class TestChaosAcceptance:
    @pytest.fixture(scope="class")
    def drill_runs(self):
        cfg = serve_config()
        clean = ServiceLoop(cfg).run()
        chaos = ServiceLoop(cfg, chaos=DRILL).run()
        return clean, chaos

    def test_zero_messages_lost(self, drill_runs):
        clean, chaos = drill_runs
        assert chaos.snapshot["shed"] == 0
        assert chaos.completions.keys() == clean.completions.keys()

    def test_killed_shard_restarts_from_journal(self, drill_runs):
        _clean, chaos = drill_runs
        sup = chaos.supervisor
        assert sup.restarts_by_shard.get(2, 0) >= 1
        assert sup.replayed_flushes > 0
        assert sup.trips_by_shard.get(2, 0) >= 1
        assert sup.abandoned_shards == 0

    def test_unaffected_shards_keep_their_tail_latency(self, drill_runs):
        """p99 of shards the drill never touches regresses < 10%."""
        clean, chaos = drill_runs
        for sid in (0, 3):
            p99_clean = clean.snapshot["shards"][sid]["sojourn"]["p99"]
            p99_chaos = chaos.snapshot["shards"][sid]["sojourn"]["p99"]
            assert p99_chaos <= 1.10 * p99_clean

    def test_quarantine_metrics_are_populated(self, drill_runs):
        _clean, chaos = drill_runs
        sup = chaos.snapshot["supervisor"]
        assert sup["quarantine_epochs"] >= 1
        assert sup["probes"] >= 1
        assert sup["spilled"] == chaos.snapshot["spilled"]


# ----------------------------------------------------------------------
# Determinism: supervision is a pure function of the seed
# ----------------------------------------------------------------------
class TestDeterminism:
    def snap_of(self) -> "tuple[str, tuple, dict]":
        cfg = serve_config(messages=250)
        report = ServiceLoop(cfg, chaos=DRILL).run()
        return (
            json.dumps(report.snapshot, sort_keys=True),
            report.health_log,
            report.completions,
        )

    def test_sequential_runs_are_identical(self):
        assert self.snap_of() == self.snap_of()

    def test_drawn_plans_make_identical_journals(self, tmp_path):
        cfg = serve_config(shards=2, messages=150, seed=9)
        plan = ChaosPlan.draw(shards=2, horizon=30, seed=cfg.seed)
        ServiceLoop(cfg, chaos=plan, journal=tmp_path / "a.j").run()
        ServiceLoop(cfg, chaos=plan, journal=tmp_path / "b.j").run()
        assert (tmp_path / "a.j").read_bytes() == \
            (tmp_path / "b.j").read_bytes()


# ----------------------------------------------------------------------
# Restart budget, corruption, abandonment
# ----------------------------------------------------------------------
class TestAbandonment:
    def test_corrupt_restart_source_abandons_with_typed_accounting(self):
        plan = ChaosPlan((
            ChaosEvent(10, CHAOS_CORRUPT, 1),
            ChaosEvent(14, CHAOS_KILL, 1),
        ))
        cfg = serve_config(shards=2, messages=200)
        report = ServiceLoop(cfg, chaos=plan).run()
        sup = report.supervisor
        assert sup.corrupt_restarts == 1
        assert sup.abandoned_shards == 1
        assert sup.abandoned_messages > 0
        snap = report.snapshot
        # Counted-shed, conservation exact: nothing silently dropped.
        assert snap["arrived"] == snap["completed"] + snap["shed"]
        assert snap["shed"] >= sup.abandoned_messages == snap["shed"]
        # The healthy shard finished its work.
        assert snap["shards"][0]["completed"] == snap["shards"][0]["arrived"]

    def test_zero_restart_budget_abandons_on_first_probe(self):
        plan = ChaosPlan((ChaosEvent(12, CHAOS_KILL, 0),))
        cfg = serve_config(shards=1, messages=150)
        report = ServiceLoop(
            cfg, chaos=plan,
            supervisor=SupervisorConfig(restart_budget=0),
        ).run()
        sup = report.supervisor
        assert sup.restarts == 0
        assert sup.abandoned_shards == 1
        snap = report.snapshot
        assert snap["arrived"] == snap["completed"] + snap["shed"]
        assert snap["shed"] > 0


# ----------------------------------------------------------------------
# Stall diagnostics carried by ExecutionStalledError
# ----------------------------------------------------------------------
class TestStallDiagnostics:
    #: needs ~40 steps to drain; 20 are allowed.
    CONFIG = replace(serve_config(shards=2, messages=300), max_steps=20)

    def test_max_steps_stall_names_epoch_and_durability(
        self, tmp_path
    ):
        config = self.CONFIG
        loop = ServiceLoop(config, journal=tmp_path / "stall.journal")
        with pytest.raises(ExecutionStalledError) as exc:
            loop.run()
        err = exc.value
        assert "max_steps=20" in str(err)
        assert err.step == 21
        assert err.epoch == (err.step - 1) // config.epoch
        # Checkpoints land every 4 steps: step 20 was sealed.
        assert err.last_durable_step == 20

    def test_journal_free_stall_reports_unknown_durability(self):
        with pytest.raises(ExecutionStalledError) as exc:
            ServiceLoop(self.CONFIG).run()
        assert exc.value.last_durable_step == -1


# ----------------------------------------------------------------------
# Supervised journals recover end to end
# ----------------------------------------------------------------------
class TestSupervisedRecovery:
    def test_recover_rederives_the_chaos_run(self, tmp_path):
        cfg = serve_config(messages=250)
        path = tmp_path / "chaos.journal"
        report = ServiceLoop(cfg, chaos=DRILL, journal=path).run()
        rec = recover_serve(path)
        assert rec.run_completed
        assert rec.report.completions == report.completions

    def test_truncated_chaos_journal_recovers_exactly(self, tmp_path):
        from repro.faults import truncate_at

        cfg = serve_config(messages=250)
        path = tmp_path / "chaos.journal"
        report = ServiceLoop(cfg, chaos=DRILL, journal=path).run()
        killed = truncate_at(path, path.stat().st_size * 2 // 3,
                             out=tmp_path / "killed.journal")
        rec = recover_serve(killed)
        assert not rec.run_completed
        assert rec.report.completions == report.completions
