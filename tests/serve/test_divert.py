"""Breaker-aware key-range diversion: conservation, handoff, merge-back.

When ``SupervisorConfig(divert=True)`` and a shard's breaker opens, the
supervisor re-points the shard's key range at a healthy neighbor through
the router overlay and hands the accumulated spill queue over with it —
journal-checkpointed, with **exact conservation**: every spilled message
is either requeued on the neighbor or counted-shed, never dropped.  On
probe success the overlay is removed (merge-back); messages already
diverted stay with the neighbor that admitted them.
"""

from __future__ import annotations

import pytest

from repro.dam.journal import REC_DIVERT, scan_journal
from repro.faults import (
    CHAOS_KILL,
    CHAOS_STALL,
    ChaosEvent,
    ChaosPlan,
)
from repro.serve import (
    QUARANTINED,
    RECOVERING,
    ServeConfig,
    ServiceLoop,
    SupervisorConfig,
    recover_serve,
)


def serve_config(**overrides) -> ServeConfig:
    base = dict(arrivals="poisson", rate=8.0, messages=300, shards=4,
                seed=3, P=3, B=8, epoch=4, checkpoint_every=4)
    base.update(overrides)
    return ServeConfig(**base)


class DivertConservationChecked(ServiceLoop):
    """Asserts admission conservation at every heartbeat, diversion on.

    Same invariant as the supervisor suite's ``ConservationChecked``,
    re-stated here because diversion moves messages *between* shards
    mid-flight: a message must still be completed, shed, queued,
    spilled, or engine-resident at all times — on *some* shard — with
    the only exception being state lost to a quarantined shard that is
    awaiting restart.
    """

    checked = 0

    def _heartbeat(self, t: int) -> None:
        super()._heartbeat(t)
        m = self.metrics
        accounted: set = set(m.completion_step) | set(m.shed_ids)
        for q in self.admission.queues:
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
                f"shard {sid} at step {t} (divert run)"
            )
        type(self).checked += 1


def run_checked(chaos, *, supervisor=None, journal=None, **overrides):
    cfg = serve_config(**overrides)
    DivertConservationChecked.checked = 0
    loop = DivertConservationChecked(
        cfg, chaos=chaos,
        supervisor=supervisor or SupervisorConfig(divert=True),
        journal=journal,
    )
    report = loop.run()
    assert DivertConservationChecked.checked > 0
    return loop, report


def assert_exact(report):
    snap = report.snapshot
    assert snap["arrived"] == snap["completed"] + snap["shed"]
    assert snap["in_flight"] == 0


KILL_ONE = ChaosPlan((ChaosEvent(12, CHAOS_KILL, 1),))

#: Kill both shards of a 2-shard instance one epoch apart: shard 0
#: diverts to 1 immediately, but when 1 dies there is no healthy
#: neighbor left, so 1's spill accumulates until 0's probe succeeds —
#: at which point the heartbeat's late-divert retry hands the
#: accumulated spill to the freshly recovered shard 0.
DOUBLE_KILL = ChaosPlan((
    ChaosEvent(6, CHAOS_KILL, 0),
    ChaosEvent(10, CHAOS_KILL, 1),
))


class TestDiversion:
    def test_breaker_open_diverts_to_a_neighbor(self):
        loop, report = run_checked(KILL_ONE)
        sup = report.supervisor
        assert sup.diversions >= 1
        assert sup.merge_backs >= 1
        assert sup.trips_by_shard.get(1, 0) >= 1
        assert_exact(report)
        # Every diversion was merged back by the end of the run.
        assert loop.router.diverted == {}

    def test_without_divert_flag_no_overlay_is_installed(self):
        loop, report = run_checked(
            KILL_ONE, supervisor=SupervisorConfig(divert=False)
        )
        sup = report.supervisor
        assert sup.diversions == 0
        assert sup.merge_backs == 0
        assert sup.divert_handoff_msgs == 0
        assert loop.router.diverted == {}
        assert_exact(report)

    def test_conservation_holds_under_divert_plus_stall(self):
        plan = ChaosPlan((
            ChaosEvent(10, CHAOS_STALL, 2, duration=12),
            ChaosEvent(14, CHAOS_KILL, 1),
        ))
        _loop, report = run_checked(plan)
        assert_exact(report)

    def test_late_divert_hands_off_the_accumulated_spill(self):
        loop, report = run_checked(
            DOUBLE_KILL, shards=2, messages=260, rate=10.0
        )
        sup = report.supervisor
        # Both shards diverted at some point; the second diversion was
        # the *late* one (retried from the heartbeat once shard 0
        # recovered) and carried shard 1's accumulated spill with it.
        assert sup.diversions >= 2
        assert sup.divert_handoff_msgs > 0
        assert sup.merge_backs >= 2
        assert loop.router.diverted == {}
        assert_exact(report)

    def test_handed_off_messages_stay_with_the_neighbor(self, tmp_path):
        path = tmp_path / "divert.woj"
        loop, report = run_checked(
            DOUBLE_KILL, shards=2, messages=260, rate=10.0, journal=path
        )
        sup = report.supervisor
        # Messages spilled while shard 1 was quarantined were handed to
        # shard 0 by the late divert; none were lost and none shed —
        # every one of them completed on the neighbor.
        handed = [
            (r["to"], gid) for r in scan_journal(path).records
            if r["type"] == REC_DIVERT for gid in r["msgs"]
        ]
        assert sup.spilled_by_shard.get(1, 0) > 0
        assert len(handed) == sup.divert_handoff_msgs > 0
        assert sup.spill_overflow_shed == 0
        for to, gid in handed:
            assert gid in report.completions
            assert loop.metrics.shard_of[gid] == to
        # The handoff fills shard 0's admission queue to within a few
        # messages of its bound (16 B); a fresh arrival the full queue
        # turns away is counted-shed at admission, never a handed-off
        # message.
        assert report.snapshot["shed"] == loop.admission.stats.shed
        assert not {gid for _to, gid in handed} & loop.metrics.shed_ids
        # shard_of moved with the handoff: the per-shard ledgers still
        # partition the arrivals exactly (no double count, no orphan).
        per_shard = report.snapshot["shards"]
        assert sum(row["arrived"] for row in per_shard) == \
            report.snapshot["arrived"]
        assert sum(row["completed"] for row in per_shard) == \
            report.snapshot["completed"]

    def test_divert_run_is_deterministic(self, tmp_path):
        def one(name):
            path = tmp_path / name
            _loop, report = run_checked(DOUBLE_KILL, shards=2,
                                        messages=260, rate=10.0,
                                        journal=path)
            return report.completions, report.health_log, \
                path.read_bytes()

        assert one("a.woj") == one("b.woj")

    def test_divert_journal_recovers_to_the_same_run(self, tmp_path):
        path = tmp_path / "divert.woj"
        _loop, report = run_checked(KILL_ONE, journal=path)
        rec = recover_serve(path)
        assert rec.report.completions == report.completions
        assert rec.report.supervisor.diversions == \
            report.supervisor.diversions


class TestRemapLeaf:
    def test_remap_preserves_key_order(self):
        loop = ServiceLoop(serve_config(shards=2),
                              supervisor=SupervisorConfig(divert=True))
        src = loop.router.shards[0].leaves
        dst = loop.router.shards[1].leaves
        mapped = [loop._remap_leaf(0, 1, leaf) for leaf in src]
        assert mapped == sorted(mapped)
        assert set(mapped) <= set(dst)

    def test_divert_target_prefers_the_next_shard(self):
        loop = ServiceLoop(serve_config(shards=4),
                              supervisor=SupervisorConfig(divert=True))
        assert loop._divert_target(1) == 2
        assert loop._divert_target(3) == 2  # no shard 4: falls back
        loop._health[2] = QUARANTINED
        assert loop._divert_target(1) == 0
        assert loop._divert_target(3) is None
