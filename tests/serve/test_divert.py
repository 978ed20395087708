"""Breaker-aware key-range diversion: conservation, routing, merge-back.

When ``SupervisorConfig(divert=True)`` and a shard's breaker opens, the
supervisor re-points the shard's key range at a healthy neighbor through
the router overlay, journal-checkpointed.  Only later arrivals move:
what the shard already holds (its lanes, held arrivals included) waits
for its own restart, with **exact conservation** throughout.  On probe
success the overlay is removed (merge-back); messages already diverted
stay with the neighbor that admitted them.
"""

from __future__ import annotations

from repro.faults import (
    CHAOS_KILL,
    CHAOS_STALL,
    ChaosEvent,
    ChaosPlan,
)
from repro.serve import (
    QUARANTINED,
    ServeConfig,
    ServiceLoop,
    SupervisorConfig,
    recover_serve,
)
from tests.serve import conservation
from tests.serve.conservation import assert_exact


def serve_config(**overrides) -> ServeConfig:
    base = dict(arrivals="poisson", rate=8.0, messages=300, shards=4,
                seed=3, P=3, B=8, epoch=4, checkpoint_every=4)
    base.update(overrides)
    return ServeConfig(**base)


def run_checked(chaos, *, supervisor=None, journal=None, **overrides):
    return conservation.run_checked(
        serve_config(**overrides), chaos=chaos,
        supervisor=supervisor or SupervisorConfig(divert=True),
        journal=journal,
    )


KILL_ONE = ChaosPlan((ChaosEvent(12, CHAOS_KILL, 1),))

#: Kill both shards of a 2-shard instance one epoch apart: shard 0
#: diverts to 1 immediately, but when 1 dies there is no healthy
#: neighbor left, so 1's arrivals wait in its own lanes until 0's probe
#: succeeds — at which point the heartbeat's late-divert retry routes
#: 1's *later* arrivals to the freshly recovered shard 0.
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
        assert loop.router.diverted == {}
        assert_exact(report)

    def test_conservation_holds_under_divert_plus_stall(self):
        plan = ChaosPlan((
            ChaosEvent(10, CHAOS_STALL, 2, duration=12),
            ChaosEvent(14, CHAOS_KILL, 1),
        ))
        _loop, report = run_checked(plan)
        assert_exact(report)

    def test_late_divert_moves_only_later_arrivals(self, monkeypatch):
        records = []  # (step, from, to) of each diversion and merge-back
        divert, merge_back = ServiceLoop._maybe_divert, \
            ServiceLoop._merge_back

        def spy_divert(loop, sid):
            before = dict(loop.router.diverted)
            divert(loop, sid)
            if sid in loop.router.diverted and sid not in before:
                records.append((loop._clock, sid, loop.router.diverted[sid]))

        def spy_merge_back(loop, sid, t):
            if sid in loop.router.diverted:
                records.append((t, sid, sid))
            merge_back(loop, sid, t)

        monkeypatch.setattr(ServiceLoop, "_maybe_divert", spy_divert)
        monkeypatch.setattr(ServiceLoop, "_merge_back", spy_merge_back)
        loop, report = run_checked(
            DOUBLE_KILL, shards=2, messages=260, rate=10.0
        )
        sup = report.supervisor
        # Both shards diverted at some point; the second diversion was
        # the *late* one, retried from the heartbeat once shard 0
        # recovered.
        assert sup.diversions >= 2
        assert sup.merge_backs >= 2
        assert loop.router.diverted == {}
        assert_exact(report)
        late = next(t for t, *move in records if move == [1, 0])
        back = next(t for t, *move in records
                    if move == [1, 1] and t > late)
        m = loop.metrics
        # What shard 1 held before the divert stays shard 1's...
        held = {g for g in m.spilled_ids if m.shard_of[g] == 1}
        assert held and all(m.arrival_step[g] < late for g in held)
        # ...and every arrival while the overlay stood went to shard 0.
        moved = [g for g, t in m.arrival_step.items() if late <= t < back]
        assert moved and all(m.shard_of[g] == 0 for g in moved)

    def test_held_messages_complete_on_their_own_shard(self):
        loop, report = run_checked(
            DOUBLE_KILL, shards=2, messages=260, rate=10.0
        )
        sup = report.supervisor
        m = loop.metrics
        # Messages held while shard 1 was quarantined waited in its own
        # lanes and completed there after its restart; none were lost
        # and none shed.
        held = {g for g in m.spilled_ids if m.shard_of[g] == 1}
        assert len(held) == sup.spilled_by_shard.get(1, 0) > 0
        assert sup.spill_overflow_shed == 0
        assert sup.restarts_by_shard.get(1, 0) >= 1
        assert held <= report.completions.keys()
        assert not held & m.shed_ids
        # Every shed is an admission shed (a fresh arrival a full lane
        # turned away), never a held message.
        assert report.snapshot["shed"] == loop.admission.stats.shed
        # The per-shard ledgers still partition the arrivals exactly (no
        # double count, no orphan).
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
        """A diverted key lands on the host leaf its position in its home
        range maps to, so the host keeps the range's key order."""
        loop = ServiceLoop(serve_config(shards=2),
                           supervisor=SupervisorConfig(divert=True))
        router = loop.router
        home = router.shards[0]
        router.divert(0, 1)
        routed = [router.route(k) for k in range(home.key_lo, home.key_hi)]
        assert {sid for sid, _leaf in routed} == {1}
        mapped = [leaf for _sid, leaf in routed]
        assert mapped == sorted(mapped)
        assert set(mapped) <= set(router.shards[1].leaves)

    def test_divert_target_prefers_the_next_shard(self):
        loop = ServiceLoop(serve_config(shards=4),
                              supervisor=SupervisorConfig(divert=True))
        assert loop._divert_target(1) == 2
        assert loop._divert_target(3) == 2  # no shard 4: falls back
        loop._health[2] = QUARANTINED
        assert loop._divert_target(1) == 0
        assert loop._divert_target(3) is None
