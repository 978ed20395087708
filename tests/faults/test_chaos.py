"""Chaos plans and the whole-shard stall injector."""

from __future__ import annotations

import pytest

from repro.faults import (
    CHAOS_CORRUPT,
    CHAOS_KILL,
    CHAOS_STALL,
    ChaosEvent,
    ChaosInjector,
    ChaosPlan,
    FaultInjector,
    FaultPlan,
    OUTCOME_FAILED,
)
from repro.util.errors import InvalidInstanceError


class TestChaosEvent:
    def test_valid_events(self):
        ChaosEvent(1, CHAOS_KILL, 0)
        ChaosEvent(5, CHAOS_STALL, 2, duration=3)
        ChaosEvent(9, CHAOS_CORRUPT, 1)

    @pytest.mark.parametrize("bad", [
        dict(step=0, kind=CHAOS_KILL, shard=0),
        dict(step=1, kind="melt", shard=0),
        dict(step=1, kind=CHAOS_KILL, shard=-1),
        dict(step=1, kind=CHAOS_STALL, shard=0, duration=0),
    ])
    def test_invalid_events(self, bad):
        with pytest.raises(InvalidInstanceError):
            ChaosEvent(**bad)


class TestChaosPlan:
    def test_draw_is_a_pure_function_of_the_seed(self):
        kw = dict(shards=4, horizon=50, kills=2, stalls=2, corrupts=1)
        a = ChaosPlan.draw(seed=11, **kw)
        b = ChaosPlan.draw(seed=11, **kw)
        c = ChaosPlan.draw(seed=12, **kw)
        assert a == b
        assert a != c
        assert len(a.events) == 5
        assert all(2 <= e.step <= 50 for e in a.events)
        assert all(0 <= e.shard < 4 for e in a.events)

    def test_draw_validates_inputs(self):
        with pytest.raises(InvalidInstanceError):
            ChaosPlan.draw(shards=0, horizon=10)
        with pytest.raises(InvalidInstanceError):
            ChaosPlan.draw(shards=2, horizon=1)

    def test_meta_round_trip(self):
        plan = ChaosPlan.draw(shards=3, horizon=40, seed=7,
                              kills=1, stalls=2, corrupts=1)
        assert ChaosPlan.from_meta(plan.to_meta()) == plan
        # And the payload is JSON-primitive throughout.
        import json
        assert json.loads(json.dumps(plan.to_meta())) == plan.to_meta()

    def test_events_at_orders_kills_first(self):
        plan = ChaosPlan((
            ChaosEvent(5, CHAOS_STALL, 1, duration=2),
            ChaosEvent(5, CHAOS_KILL, 1),
            ChaosEvent(5, CHAOS_KILL, 0),
            ChaosEvent(6, CHAOS_CORRUPT, 0),
        ))
        at5 = plan.events_at(5)
        assert [(e.shard, e.kind) for e in at5] == [
            (0, CHAOS_KILL), (1, CHAOS_KILL), (1, CHAOS_STALL),
        ]
        assert plan.events_at(4) == []

    def test_stall_windows_are_per_shard_and_inclusive(self):
        plan = ChaosPlan((
            ChaosEvent(10, CHAOS_STALL, 0, duration=4),
            ChaosEvent(3, CHAOS_STALL, 0, duration=1),
            ChaosEvent(7, CHAOS_STALL, 1, duration=2),
            ChaosEvent(9, CHAOS_KILL, 0),
        ))
        assert plan.stall_windows(0) == [(3, 3), (10, 13)]
        assert plan.stall_windows(1) == [(7, 8)]
        assert plan.stall_windows(2) == []

    def test_zero_plan(self):
        assert ChaosPlan().is_zero
        assert not ChaosPlan.draw(shards=1, horizon=5, seed=0).is_zero


class TestChaosInjector:
    def test_window_stalls_every_node(self):
        inj = ChaosInjector([(4, 6)], shard_id=2, seed=1)
        for node in (0, 3, 17):
            assert not inj.is_stalled(3, node)
            assert inj.is_stalled(4, node)
            assert inj.is_stalled(6, node)
            assert not inj.is_stalled(7, node)

    def test_overlapping_windows_report_the_latest_end(self):
        inj = ChaosInjector([(2, 5), (4, 9)], shard_id=0)
        assert all(inj.is_stalled(t, 0) for t in range(2, 10))
        assert not inj.is_stalled(10, 0)
        assert [e.detail for e in inj.events] == [
            "shard 0 stalled whole (window ends step 5)",
            "shard 0 stalled whole (window ends step 9)",
        ]

    def test_window_fails_direct_flush_queries(self):
        inj = ChaosInjector([(2, 3)], shard_id=0)
        outcome, delivered = inj.flush_outcome(2, 0, 1, (5, 6))
        assert outcome == OUTCOME_FAILED
        assert delivered == ()

    def test_outside_windows_delegates_to_base(self):
        base = FaultInjector(FaultPlan.uniform(0.8), seed=3)
        twin = FaultInjector(FaultPlan.uniform(0.8), seed=3)
        inj = ChaosInjector([(10, 12)], base=base, shard_id=1, seed=3)
        # Outside a window every query must equal the base injector's
        # own answer (draws are pure functions of seed and coordinates).
        for t in range(1, 8):
            assert inj.flush_outcome(t, 0, 1, (7, 8, 9)) == \
                twin.flush_outcome(t, 0, 1, (7, 8, 9))
            assert inj.is_stalled(t, 2) == twin.is_stalled(t, 2)
            assert inj.effective_p(t, 4) == twin.effective_p(t, 4)
        assert not inj.is_zero_plan

    def test_zero_plan_only_without_windows_and_base_faults(self):
        assert ChaosInjector([]).is_zero_plan
        assert not ChaosInjector([(1, 2)]).is_zero_plan

    def test_window_events_are_logged_once(self):
        inj = ChaosInjector([(2, 4)], shard_id=3)
        for t in (2, 3, 4):
            inj.is_stalled(t, 0)
            inj.is_stalled(t, 1)
        assert len(inj.events) == 1
        assert inj.events[0].kind == "chaos_stall"

    def test_rejects_inverted_windows(self):
        with pytest.raises(InvalidInstanceError):
            ChaosInjector([(5, 4)])
