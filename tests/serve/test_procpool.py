"""Shard-per-process driver: parity, SIGKILL recovery, escalation.

The contracts under test, in the order the ISSUE states them:

* **driver determinism matrix**: fault-free, every driver and width —
  ``ServiceLoop``, ``ProcPoolLoop(processes in {1,2,4})`` — produces
  byte-identical journals and identical completions;
* a ``kill-worker`` chaos event delivers a **real SIGKILL**: the killed
  shard comes back on a fresh process (different pid) restarted from its
  own journal, zero messages are lost (exact conservation), and the
  unaffected shards' p99 stays within 10% of a no-chaos run;
* seeded SIGKILL drills are deterministic: identical snapshots, health
  logs, and journal bytes across repeat runs (real pids stay in
  ``worker_log``, which byte-diffs exclude);
* the watchdog escalation ladder — cooperative cancel, ``terminate()``,
  ``kill()`` — fires in order against a wedged worker, every rung ending
  with the shard restarted on a fresh process and the run completing;
* journal meta records the driver topology, so ``recover`` re-derives
  the identical run through the same driver.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import (
    CHAOS_KILL_WORKER,
    CHAOS_STALL,
    ChaosEvent,
    ChaosPlan,
)
from repro.serve import (
    ProcPoolLoop,
    ServeConfig,
    ServiceLoop,
    SupervisorConfig,
    recover_serve,
)


def serve_config(**overrides) -> ServeConfig:
    base = dict(arrivals="poisson", rate=8.0, messages=200, shards=4,
                seed=3, P=3, B=8, epoch=4, checkpoint_every=4)
    base.update(overrides)
    return ServeConfig(**base)


#: SIGKILL shard 2's hosting process mid-run; shards 0, 1, 3 untouched.
KILL_DRILL = ChaosPlan(
    (ChaosEvent(13, CHAOS_KILL_WORKER, 2),)
)


# ----------------------------------------------------------------------
# Driver determinism matrix
# ----------------------------------------------------------------------
class TestDriverMatrix:
    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("matrix")
        cfg = serve_config()
        path = tmp / "plain.woj"
        report = ServiceLoop(cfg, journal=path).run()
        return cfg, report, path.read_bytes()

    def test_in_process_driver_matches_plain_loop(self, baseline, tmp_path):
        """Spelling out the default supervision changes nothing."""
        cfg, plain, blob = baseline
        path = tmp_path / "sup.woj"
        report = ServiceLoop(cfg, supervisor=SupervisorConfig(),
                             chaos=ChaosPlan(), journal=path).run()
        assert path.read_bytes() == blob
        assert report.completions == plain.completions

    @pytest.mark.parametrize("processes", [1, 2, 4])
    def test_process_driver_matches_plain_loop(
        self, baseline, tmp_path, processes
    ):
        cfg, plain, blob = baseline
        path = tmp_path / f"p{processes}.woj"
        report = ProcPoolLoop(cfg, processes=processes,
                              journal=path).run()
        assert path.read_bytes() == blob
        assert report.completions == plain.completions
        assert report.shard_stats == plain.shard_stats
        assert report.admission_stats == plain.admission_stats
        assert report.planner_stats == plain.planner_stats
        assert report.shard_schedules == plain.shard_schedules

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(arrivals="closed", n_clients=8, think_time=2,
                 messages=80, shards=3),
            dict(arrivals="mmpp", rate=4.0, burst_rate=24.0,
                 messages=100, theta=0.8, epoch=8),
            dict(shards=1, messages=60, fault_rate=0.1, fault_aware=True),
        ],
        ids=["closed", "mmpp", "faulty-single-shard"],
    )
    def test_parity_across_arrival_modes(self, tmp_path, overrides):
        cfg = serve_config(**overrides)
        p1 = tmp_path / "plain.woj"
        p2 = tmp_path / "proc.woj"
        plain = ServiceLoop(cfg, journal=p1).run()
        proc = ProcPoolLoop(cfg, processes=2, journal=p2).run()
        assert p1.read_bytes() == p2.read_bytes()
        assert proc.completions == plain.completions

    def test_default_meta_stays_clean(self, baseline, tmp_path):
        """Fault-free procpool journals carry no driver/chaos meta —
        that is what makes them byte-identical to the in-process loop's."""
        from repro.dam.journal import RecoveryManager

        cfg, _plain, _blob = baseline
        path = tmp_path / "meta.woj"
        ProcPoolLoop(cfg, processes=2, journal=path).run()
        meta = RecoveryManager(path).meta
        assert "driver" not in meta
        assert "chaos" not in meta
        assert "supervisor" not in meta


# ----------------------------------------------------------------------
# Real-SIGKILL chaos acceptance
# ----------------------------------------------------------------------
class TestSigkillAcceptance:
    @pytest.fixture(scope="class")
    def drill_runs(self):
        cfg = serve_config()
        clean = ProcPoolLoop(cfg, processes=4).run()
        chaos = ProcPoolLoop(cfg, processes=4, chaos=KILL_DRILL).run()
        return clean, chaos

    def test_zero_messages_lost(self, drill_runs):
        clean, chaos = drill_runs
        snap = chaos.snapshot
        assert snap["arrived"] == snap["completed"] + snap["shed"]
        assert snap["in_flight"] == 0
        assert snap["shed"] == 0
        assert chaos.completions.keys() == clean.completions.keys()

    def test_killed_shard_comes_back_on_a_fresh_pid(self, drill_runs):
        _clean, chaos = drill_runs
        deaths = [e for e in chaos.worker_log if e[0] == "death"]
        respawns = [e for e in chaos.worker_log if e[0] == "respawn"]
        assert [e[1] for e in deaths] == [2]
        assert [e[1] for e in respawns] == [2]
        # A real process died (SIGKILL renders exitcode -9) and the
        # restart landed on a genuinely different process.
        assert deaths[0][5] == -9
        assert respawns[0][2] != deaths[0][2]

    def test_restart_is_journal_fed_and_budgeted(self, drill_runs):
        _clean, chaos = drill_runs
        sup = chaos.supervisor
        assert sup.worker_deaths == 1
        assert sup.worker_respawns == 1
        assert sup.trips_by_shard.get(2, 0) >= 1
        assert sup.restarts_by_shard.get(2, 0) == 1
        assert sup.replayed_flushes > 0
        assert sup.abandoned_shards == 0

    def test_unaffected_shards_keep_their_tail_latency(self, drill_runs):
        clean, chaos = drill_runs
        for sid in (0, 1, 3):
            p99_clean = clean.snapshot["shards"][sid]["sojourn"]["p99"]
            p99_chaos = chaos.snapshot["shards"][sid]["sojourn"]["p99"]
            assert p99_chaos <= 1.10 * p99_clean

    def test_worker_kill_composes_with_stall_chaos(self):
        plan = ChaosPlan((
            ChaosEvent(9, CHAOS_STALL, 1, duration=12),
            ChaosEvent(17, CHAOS_KILL_WORKER, 2),
        ))
        report = ProcPoolLoop(serve_config(messages=250), processes=2,
                              chaos=plan).run()
        snap = report.snapshot
        assert snap["arrived"] == snap["completed"] + snap["shed"]
        assert snap["in_flight"] == 0
        assert report.supervisor.worker_deaths >= 1


# ----------------------------------------------------------------------
# Seeded drills are deterministic
# ----------------------------------------------------------------------
class TestDeterminism:
    def drill(self, tmp_path, name):
        cfg = serve_config(messages=150, seed=7)
        path = tmp_path / name
        report = ProcPoolLoop(
            cfg, processes=4, chaos=KILL_DRILL, journal=path,
            supervisor=SupervisorConfig(divert=True),
        ).run()
        deterministic = (
            json.dumps(report.snapshot, sort_keys=True),
            report.health_log,
            report.completions,
            path.read_bytes(),
        )
        return deterministic, report.worker_log

    def test_sigkill_drill_runs_byte_identical(self, tmp_path):
        """Pids never reach the deterministic surfaces.

        Real pids differ between the two runs, so if they leaked into
        the snapshot, health log, or journal, this comparison would
        fail — ``worker_log`` is their only home, and it is excluded.
        """
        a, log_a = self.drill(tmp_path, "a.woj")
        b, log_b = self.drill(tmp_path, "b.woj")
        assert a == b
        assert log_a and log_b  # both runs really killed workers


# ----------------------------------------------------------------------
# Watchdog escalation ladder
# ----------------------------------------------------------------------
class TestWatchdogEscalation:
    def wedge(self, mode):
        cfg = serve_config(messages=120, shards=2, seed=5)
        loop = ProcPoolLoop(
            cfg, processes=2, debug_hang=(1, 6, mode),
            supervisor=SupervisorConfig(watchdog_deadline=0.25),
        )
        report = loop.run()
        snap = report.snapshot
        assert snap["arrived"] == snap["completed"] + snap["shed"]
        assert snap["in_flight"] == 0
        sup = report.supervisor
        assert sup.watchdog_timeouts >= 1
        assert sup.worker_deaths >= 1
        assert sup.worker_respawns >= 1
        assert sup.restarts_by_shard.get(1, 0) >= 1
        return sup

    def test_cooperative_cancel_is_rung_one(self):
        sup = self.wedge("cancellable")
        assert sup.watchdog_cancels >= 1
        assert sup.watchdog_terminates == 0
        assert sup.watchdog_kills == 0

    def test_sigterm_is_rung_two(self):
        sup = self.wedge("stubborn-term")
        assert sup.watchdog_cancels == 0
        assert sup.watchdog_terminates >= 1
        assert sup.watchdog_kills == 0

    def test_sigkill_is_the_last_rung(self):
        sup = self.wedge("stubborn-kill")
        assert sup.watchdog_cancels == 0
        assert sup.watchdog_terminates == 0
        assert sup.watchdog_kills >= 1


# ----------------------------------------------------------------------
# Driver topology in journal meta; recover re-derives through it
# ----------------------------------------------------------------------
class TestDriverMeta:
    def test_supervised_journal_records_driver_topology(self, tmp_path):
        from repro.dam.journal import RecoveryManager

        cfg = serve_config(messages=150, seed=7)
        pp = tmp_path / "proc.woj"
        pi = tmp_path / "inprocess.woj"
        ProcPoolLoop(cfg, processes=2, chaos=KILL_DRILL,
                     journal=pp).run()
        ServiceLoop(cfg, chaos=KILL_DRILL, journal=pi).run()
        assert RecoveryManager(pp).meta["driver"] == {
            "kind": "procpool", "processes": 2,
        }
        assert RecoveryManager(pi).meta["driver"] == {"kind": "inprocess"}

    def test_recover_re_derives_the_procpool_run(self, tmp_path):
        cfg = serve_config(messages=150, seed=7)
        path = tmp_path / "proc.woj"
        report = ProcPoolLoop(cfg, processes=2, chaos=KILL_DRILL,
                              journal=path).run()
        rec = recover_serve(path)
        assert rec.report.completions == report.completions
        assert rec.replayed_flushes > 0
        # Recovery ran the same driver: it respawned a worker too.
        assert rec.report.supervisor.worker_respawns >= 1

    def test_cli_recover_seed_sanity_check(self, tmp_path, capsys):
        from repro.__main__ import main

        cfg = serve_config(messages=120, seed=7)
        path = tmp_path / "proc.woj"
        ProcPoolLoop(cfg, processes=2, chaos=KILL_DRILL,
                     journal=path).run()
        assert main(["recover", str(path), "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "recovered serving run" in out
        assert main(["recover", str(path), "--seed", "8"]) == 2
        assert "does not match" in capsys.readouterr().err
