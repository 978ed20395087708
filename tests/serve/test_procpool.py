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
  the identical run through the same driver;
* the parent's admission controller is a replica of its workers'
  lanes, so the rules it applies between chunks (SLO purge, a
  quarantined shard's held arrivals) act as in-process: equal
  heartbeats and held/shed counts;
* the wire is flat: no class instance crosses the pipe in either
  direction, and fault records that interleave with flushes inside one
  (step, shard) replay in order.
"""

from __future__ import annotations

import io
import json
import pickle
from dataclasses import asdict
from multiprocessing.reduction import ForkingPickler

import pytest

from repro.dam.journal import REC_CHECKPOINT, REC_DRIVER, scan_journal
from repro.dam.schedule import Flush
from repro.faults import (
    CHAOS_KILL,
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
    make_tenants,
    recover_serve,
)
from tests.serve.test_driver_golden import BASE, SCENARIOS


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
            dict(shards=1, messages=60, fault_rate=0.1),
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

    @pytest.mark.parametrize("processes", [1, 2])
    def test_faulty_multi_shard_parity(self, tmp_path, processes):
        """Failed and partial flushes on several shards: the merged logs
        and every checkpoint's digests match the in-process run's, byte
        for byte, though the parent's logs run a chunk ahead."""
        cfg = ServeConfig(arrivals="poisson", rate=8, messages=400,
                          shards=4, P=4, B=16, seed=1, fault_rate=0.1)
        p1 = tmp_path / "plain.woj"
        p2 = tmp_path / "proc.woj"
        plain = ServiceLoop(cfg, journal=p1).run()
        proc = ProcPoolLoop(cfg, processes=processes, journal=p2).run()
        assert p1.read_bytes() == p2.read_bytes()
        assert proc.completions == plain.completions
        assert proc.shard_schedules == plain.shard_schedules
        assert proc.shard_stats == plain.shard_stats
        records = scan_journal(p2).records
        assert sum(s.failed_attempts for s in proc.shard_stats) == 30
        assert sum(s.partial_deliveries for s in proc.shard_stats) == 11
        assert all(s.failed_attempts for s in proc.shard_stats)
        assert not any(r["type"] == REC_DRIVER for r in records)
        checkpoints = [r for r in records if r["type"] == REC_CHECKPOINT]
        assert len(checkpoints) > 2
        assert checkpoints[-1]["flushes"] == \
            [s.flushes for s in proc.shard_stats]

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


# ----------------------------------------------------------------------
# One queue model: the parent's lanes replicate its workers'
# ----------------------------------------------------------------------
class TestLaneReplica:
    @pytest.mark.parametrize("processes", [1, 2])
    def test_slo_purge_heartbeats_match_in_process(self, processes):
        """An SLO trip purges the hot tenant's queue at decision time on
        either driver, so the next heartbeat reports the same depth."""
        overrides, _chaos, _sup = SCENARIOS["tenants-slo"]
        cfg = ServeConfig(**{**BASE, **overrides})
        plain = ServiceLoop(cfg).run()
        proc = ProcPoolLoop(cfg, processes=processes).run()
        assert plain.snapshot["tenants"][1]["slo"]["trips"] >= 1
        assert proc.health_log == plain.health_log
        assert proc.admission_stats == plain.admission_stats
        assert proc.completions == plain.completions

    def test_held_overflow_matches_in_process(self):
        """Shard 2 dies while its only neighbor, shard 1, is still
        quarantined, so its arrivals are held in its own 32-deep lanes
        until its restart: the overflow is shed by the same rule, with
        the same counts, on every driver."""
        tenants = make_tenants(2, 300, rates=[10.0, 3.0],
                               weights=[2.0, 1.0])
        cfg = serve_config(messages=300, shards=3, tenants=tenants,
                           max_queue=32)
        plan = ChaosPlan((ChaosEvent(9, CHAOS_KILL, 1),
                          ChaosEvent(13, CHAOS_KILL, 2)))
        sup = SupervisorConfig(divert=True)
        runs = [ServiceLoop(cfg, chaos=plan, supervisor=sup).run()] + [
            ProcPoolLoop(cfg, processes=p, chaos=plan, supervisor=sup).run()
            for p in (1, 2)
        ]
        counts = set()
        for report in runs:
            sup = report.supervisor
            assert sup.spilled_by_shard.get(2, 0) > 0
            assert sup.spill_overflow_shed > 0
            counts.add((sup.spilled, sup.spill_overflow_shed,
                        json.dumps(asdict(report.admission_stats))))
            for row in report.snapshot["tenants"]:
                assert row["arrived"] == row["completed"] + row["shed"]
                assert row["in_flight"] == 0
        assert len(counts) == 1
        assert runs[1].completions == runs[2].completions \
            == runs[0].completions

    @pytest.mark.parametrize("kind", [CHAOS_KILL, CHAOS_STALL,
                                      CHAOS_KILL_WORKER])
    def test_restart_resumes_drr_credit(self, kind):
        """Weights 1:1.5:2.25 leave fractional DRR credit in the lanes.
        A restart resumes it in-process; the replica carries it, so a
        restored worker (alive, or respawned after a SIGKILL) drains
        the same messages in the same order."""
        tenants = make_tenants(3, 400, rates=[12.0, 6.0, 3.0],
                               weights=[1.0, 1.5, 2.25])
        cfg = serve_config(messages=400, shards=2, seed=1, P=2, B=4,
                           max_root_backlog=5, max_queue=48,
                           tenants=tenants)
        duration = 12 if kind == CHAOS_STALL else 0
        plan = ChaosPlan((ChaosEvent(9, kind, 1, duration=duration),))
        plain = ServiceLoop(cfg, chaos=plan).run()
        proc = ProcPoolLoop(cfg, processes=2, chaos=plan).run()
        assert plain.supervisor.restarts >= 1
        assert proc.metrics.admit_step == plain.metrics.admit_step
        assert proc.completions == plain.completions
        assert proc.health_log == plain.health_log
        assert proc.admission_stats == plain.admission_stats


# ----------------------------------------------------------------------
# The wire carries no class instances
# ----------------------------------------------------------------------
class _NoClasses(pickle.Unpickler):
    def find_class(self, module, name):
        raise pickle.UnpicklingError(f"class on the wire: {module}.{name}")


def _load_flat(buf: bytes):
    return _NoClasses(io.BytesIO(buf)).load()


class _RecordingConn:
    """A parent pipe end that keeps the pickled bytes of every chunk
    payload and chunk reply, and sends and receives them unchanged."""

    def __init__(self, conn, wire) -> None:
        self._conn = conn
        self._wire = wire
        self._chunk_pending = False

    def send(self, obj) -> None:
        buf = ForkingPickler.dumps(obj)
        if obj[0] == "chunk":
            self._wire["payloads"].append(bytes(buf))
            self._chunk_pending = True
        self._conn.send_bytes(buf)

    def recv(self):
        buf = self._conn.recv_bytes()
        if self._chunk_pending:
            self._wire["replies"].append(buf)
            self._chunk_pending = False
        return ForkingPickler.loads(buf)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestFlatWire:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(messages=400, shards=4, P=4, B=16, seed=1,
                 fault_rate=0.1),
            dict(messages=300, shards=3,
                 tenants=make_tenants(2, 300, rates=[10.0, 3.0],
                                      weights=[2.0, 1.0])),
        ],
        ids=["faulty", "tenants"],
    )
    def test_no_class_instance_crosses_the_pipe(self, overrides):
        wire = {"payloads": [], "replies": []}
        loop = ProcPoolLoop(serve_config(**overrides), processes=2)
        spawn = loop._spawn_slot

        def recording_spawn(sids):
            slot = spawn(sids)
            slot.conn = _RecordingConn(slot.conn, wire)
            return slot

        loop._spawn_slot = recording_spawn
        loop.run()
        assert wire["payloads"] and wire["replies"]
        payloads = [_load_flat(buf) for buf in wire["payloads"]]
        replies = [_load_flat(buf) for buf in wire["replies"]]
        assert {msg[0] for msg in payloads} == {"chunk"}
        assert {msg[0] for msg in replies} == {"ok"}
        # Every arrival crossed as one flat (t, gid, leaf) triple.
        gids = [entry[0][i] for msg in payloads
                for entry in msg[3].values()
                for i in range(1, len(entry[0]), 3)]
        assert sorted(gids) == list(range(overrides["messages"]))

    @pytest.mark.parametrize(
        "obj",
        [
            Flush(1, 2, (3, 4)),
            {"stats": asdict(ProcPoolLoop(serve_config()).engines[0].stats),
             "flush": Flush(0, 1, (5,))},
        ],
        ids=["flush", "snapshot-with-flush"],
    )
    def test_class_instances_fail_the_check(self, obj):
        """The formats the flat wire replaced do not pass the loader."""
        with pytest.raises(pickle.UnpicklingError):
            _load_flat(ForkingPickler.dumps(("ok", obj)))
