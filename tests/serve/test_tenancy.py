"""Multi-tenant QoS subsystem: specs, mix, DRR fairness, SLOs, quotas.

The contracts under test, in the order the ISSUE states them:

* tenant specs ride in the journal meta and round-trip exactly; with
  tenancy **disabled** the meta carries no ``tenants`` key at all;
* :class:`TenantMix` is deterministic, tags every emitted message with
  its tenant, and fans completion/shed feedback back to the owner;
* deficit-round-robin admission shares root-buffer bandwidth in
  proportion to tenant weights while both lanes are backlogged — at
  10:1 offered load and equal weights, admitted throughput stays within
  1.25x of 1:1;
* requeue/handoff re-admission never re-counts ``offered`` (exact
  conservation), and buffer quotas *hold* a tenant's queue rather than
  shedding it;
* an SLO-violating tenant is shed first: its queue is purged on trip
  and its door closes, while the light tenant keeps its solo-run tail;
* the same tenant config produces byte-identical journals in-process
  and on one or two worker processes, survives torn-tail recovery, and conserves per-tenant
  counts under SIGKILL chaos on the process driver.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.faults import CHAOS_KILL_WORKER, ChaosEvent, ChaosPlan, truncate_at
from repro.serve import (
    AdmissionController,
    MetricsEndpoint,
    ProcPoolLoop,
    ServeConfig,
    ServiceLoop,
    TenantMix,
    TenantSpec,
    make_tenants,
    recover_serve,
)
from repro.util.rng import spawn_seed
from repro.serve.router import ShardEngine
from repro.serve.tenancy.spec import split_messages, validate_tenants
from repro.tree import balanced_tree
from repro.util.errors import InvalidInstanceError


# ----------------------------------------------------------------------
# Specs and config meta
# ----------------------------------------------------------------------

def test_spec_meta_round_trip():
    spec = TenantSpec(name="gold", weight=2.5, rate=12.0, messages=40,
                      theta=0.8, slo_sojourn=9, slo_percentile=95.0,
                      buffer_quota=6)
    meta = spec.to_meta()
    assert json.loads(json.dumps(meta)) == meta  # JSON-clean
    assert TenantSpec.from_meta(meta) == spec
    assert TenantSpec.from_meta({**meta, "unknown_key": 1}) == spec


def test_spec_validation():
    with pytest.raises(InvalidInstanceError):
        TenantSpec(name="")
    with pytest.raises(InvalidInstanceError):
        TenantSpec(name="t", weight=0.0)
    with pytest.raises(InvalidInstanceError):
        TenantSpec(name="t", arrivals="trace")
    with pytest.raises(InvalidInstanceError):
        TenantSpec(name="t", slo_percentile=0.0)
    with pytest.raises(InvalidInstanceError):
        TenantSpec(name="t", buffer_quota=-1)


def test_validate_tenants_rejects_bad_mixes():
    a = TenantSpec(name="a", messages=10)
    with pytest.raises(InvalidInstanceError):
        validate_tenants((), 0)
    with pytest.raises(InvalidInstanceError):
        validate_tenants((a, TenantSpec(name="a", messages=5)), 15)
    with pytest.raises(InvalidInstanceError):
        validate_tenants((a,), 11)  # budget mismatch


def test_split_messages_is_exact():
    for total in (0, 1, 7, 100, 999):
        parts = split_messages(total, [5.0, 3.0, 2.0])
        assert sum(parts) == total
    assert split_messages(10, [1.0, 1.0]) == [5, 5]
    # Deterministic largest-remainder: same input, same split.
    assert split_messages(100, [3, 1, 1]) == split_messages(100, [3, 1, 1])


def test_make_tenants_budgets_sum_to_total():
    tenants = make_tenants(3, 100, rates=[8.0, 2.0, 1.0],
                           weights=[2.0, 1.0, 1.0], slos=[5, 0, 0])
    assert [t.name for t in tenants] == ["t0", "t1", "t2"]
    assert sum(t.messages for t in tenants) == 100
    assert tenants[0].messages > tenants[2].messages
    with pytest.raises(InvalidInstanceError):
        make_tenants(2, 10, rates=[1.0])  # wrong list length


def test_config_meta_omits_tenants_when_disabled():
    cfg = ServeConfig(messages=10)
    assert cfg.tenants is None
    assert "tenants" not in cfg.to_meta()
    assert ServeConfig.from_meta(cfg.to_meta()).tenants is None


def test_config_meta_round_trips_tenants():
    tenants = make_tenants(2, 60, rates=[4.0, 2.0], quotas=[0, 3])
    cfg = ServeConfig(messages=60, tenants=tenants)
    meta = cfg.to_meta()
    assert json.loads(json.dumps(meta))["tenants"] == [
        t.to_meta() for t in tenants
    ]
    assert ServeConfig.from_meta(meta).tenants == tenants


def test_config_rejects_tenant_budget_mismatch():
    tenants = make_tenants(2, 50, rates=[4.0, 2.0])
    with pytest.raises(InvalidInstanceError):
        ServeConfig(messages=60, tenants=tenants)


# ----------------------------------------------------------------------
# TenantMix
# ----------------------------------------------------------------------

def make_mix(seed=7):
    specs = (
        TenantSpec(name="a", rate=6.0, messages=30, theta=1.2),
        TenantSpec(name="b", rate=2.0, messages=10),
    )
    return TenantMix(specs, 64, seed=seed, spawn=spawn_seed)


def test_mix_is_deterministic():
    m1, m2 = make_mix(), make_mix()
    gid = 0
    for step in range(1, 40):
        k1, k2 = m1.take(step), m2.take(step)
        assert k1 == k2
        assert m1.pending_tenants == m2.pending_tenants
        gids = list(range(gid, gid + len(k1)))
        gid += len(k1)
        m1.on_emitted(gids)
        m2.on_emitted(gids)
    assert m1.exhausted and m2.exhausted
    assert m1.tenant_of == m2.tenant_of
    assert sum(1 for t in m1.tenant_of.values() if t == 0) == 30
    assert sum(1 for t in m1.tenant_of.values() if t == 1) == 10


def test_mix_feeds_shed_back_to_closed_loop_owner():
    specs = (
        TenantSpec(name="open", rate=4.0, messages=8),
        TenantSpec(name="closed", arrivals="closed", n_clients=1,
                   messages=4),
    )
    mix = TenantMix(specs, 16, seed=3, spawn=spawn_seed)
    keys = mix.take(1)
    tenants = list(mix.pending_tenants)
    gids = list(range(len(keys)))
    mix.on_emitted(gids)
    closed_gid = gids[tenants.index(1)]
    client = mix.processes[1]
    assert client._ready_at == [None]  # its one client is in flight
    mix.notify_shed(closed_gid, 1)
    assert client._ready_at == [2]  # released: may issue again at step 2
    # A duplicate shed (or a late completion) must not re-release.
    client._ready_at = [None]
    mix.notify_shed(closed_gid, 5)
    mix.notify_completion(closed_gid, 5)
    assert client._ready_at == [None]


# ----------------------------------------------------------------------
# Deficit-round-robin admission (controller level)
# ----------------------------------------------------------------------

def make_ctrl(weights=(1.0, 1.0), quotas=(0, 0), max_root_backlog=8,
              max_queue=40):
    specs = tuple(
        TenantSpec(name=f"t{i}", weight=w, buffer_quota=q)
        for i, (w, q) in enumerate(zip(weights, quotas))
    )
    tenant_of: dict[int, int] = {}
    ctrl = AdmissionController(
        1, max_root_backlog=max_root_backlog, max_queue=max_queue,
        specs=specs, tenant_of=tenant_of)
    topo = balanced_tree(2, 2)
    engine = ShardEngine(0, topo, 2, 8)
    return ctrl, tenant_of, engine, topo


def fill(ctrl, tenant_of, leaf, tenant, gids):
    for gid in gids:
        tenant_of[gid] = tenant
        ctrl.offer(0, gid, leaf)


def test_drr_equal_weights_alternate():
    ctrl, tenant_of, engine, topo = make_ctrl()
    leaf = topo.leaves[0]
    fill(ctrl, tenant_of, leaf, 0, range(0, 20))
    fill(ctrl, tenant_of, leaf, 1, range(100, 120))
    admitted = [gid for gid, _l, _d in ctrl.drain(0, engine, 1)]
    assert len(admitted) == 8  # max_root_backlog
    by_tenant = [sum(1 for g in admitted if tenant_of[g] == t)
                 for t in (0, 1)]
    assert by_tenant == [4, 4]


def test_drr_weighted_shares():
    ctrl, tenant_of, engine, topo = make_ctrl(weights=(3.0, 1.0))
    leaf = topo.leaves[0]
    fill(ctrl, tenant_of, leaf, 0, range(0, 20))
    fill(ctrl, tenant_of, leaf, 1, range(100, 120))
    admitted = [gid for gid, _l, _d in ctrl.drain(0, engine, 1)]
    by_tenant = [sum(1 for g in admitted if tenant_of[g] == t)
                 for t in (0, 1)]
    assert by_tenant == [6, 2]  # 3:1 out of the 8-slot root budget


def test_fresh_bound_is_weight_share_and_door_sheds():
    ctrl, tenant_of, engine, topo = make_ctrl(weights=(3.0, 1.0),
                                              max_queue=40)
    assert ctrl.lane_bound == [30, 10]
    leaf = topo.leaves[0]
    fill(ctrl, tenant_of, leaf, 1, range(0, 15))  # bound 10: shed 5
    assert ctrl.queue_depth(0) == 10
    assert ctrl.stats.shed == 5
    assert ctrl.shed_by_tenant == {1: 5}
    ctrl.door_closed = {0}
    fill(ctrl, tenant_of, leaf, 0, range(100, 103))
    assert ctrl.stats.shed == 8
    assert ctrl.shed_by_tenant == {1: 5, 0: 3}
    assert ctrl.stats.offered == 18


def test_requeue_never_recounts_offered():
    ctrl, tenant_of, engine, topo = make_ctrl()
    leaf = topo.leaves[0]
    fill(ctrl, tenant_of, leaf, 0, range(4))
    offered = ctrl.stats.offered
    accepted = ctrl.requeue(0, [(9, leaf), (10, leaf)])
    assert accepted == 2
    assert ctrl.stats.offered == offered  # re-admission, not a new offer
    # The global bound, not the per-tenant fresh bound, caps a requeue.
    many = [(100 + i, leaf) for i in range(60)]
    accepted = ctrl.requeue(0, many)
    assert ctrl.queue_depth(0) == ctrl.max_queue
    assert accepted == ctrl.max_queue - 6
    assert ctrl.stats.offered == offered


def test_quota_holds_without_shedding():
    ctrl, tenant_of, engine, topo = make_ctrl(quotas=(2, 0),
                                              max_root_backlog=100)
    leaf = topo.leaves[0]
    fill(ctrl, tenant_of, leaf, 0, range(5))
    admitted = ctrl.drain(0, engine, 1)
    assert len(admitted) == 2  # quota-capped
    assert ctrl.queue_depth(0) == 3  # held, not shed
    assert ctrl.stats.shed == 0
    assert ctrl.drain(0, engine, 2) == []  # still saturated
    ctrl.note_departed(admitted[0][0])  # one message left the buffers
    assert len(ctrl.drain(0, engine, 3)) == 1
    assert ctrl.queue_depth(0) == 2


def test_purge_counts_sheds_per_tenant():
    ctrl, tenant_of, engine, topo = make_ctrl()
    leaf = topo.leaves[0]
    fill(ctrl, tenant_of, leaf, 0, range(3))
    fill(ctrl, tenant_of, leaf, 1, range(10, 12))
    purged = ctrl.purge_tenant(0)
    assert purged == [(0, 0), (0, 1), (0, 2)]
    assert ctrl.stats.shed == 3
    assert ctrl.shed_by_tenant == {0: 3}
    assert ctrl.queue_depth(0) == 2  # tenant 1 untouched


# ----------------------------------------------------------------------
# Loop-level behavior
# ----------------------------------------------------------------------

def tenant_row(report, name):
    return next(r for r in report.snapshot["tenants"] if r["tenant"] == name)


def test_tenancy_run_is_deterministic_and_conserves():
    tenants = make_tenants(2, 300, rates=[12.0, 3.0], weights=[2.0, 1.0],
                           thetas=[0.8, 0.0])
    cfg = ServeConfig(messages=300, shards=2, seed=5, tenants=tenants)
    a, b = ServiceLoop(cfg).run(), ServiceLoop(cfg).run()
    assert a.snapshot == b.snapshot
    assert a.completions == b.completions
    for row in a.snapshot["tenants"]:
        assert row["arrived"] == row["completed"] + row["shed"]
        assert row["in_flight"] == 0
    assert sum(r["arrived"] for r in a.snapshot["tenants"]) == 300


def test_disabled_tenancy_has_no_tenant_surface():
    cfg = ServeConfig(messages=80, shards=2, seed=5)
    report = ServiceLoop(cfg).run()
    assert "tenants" not in report.snapshot


@pytest.mark.parametrize("seed", [1, 9, 21])
def test_fairness_under_ten_to_one_overload(seed):
    """10:1 offered load, equal weights: admitted throughput within
    1.25x of 1:1 over the window where both lanes are backlogged."""
    tenants = (
        TenantSpec(name="hot", rate=30.0, messages=300),
        TenantSpec(name="light", rate=3.0, messages=300),
    )
    cfg = ServeConfig(messages=600, shards=2, seed=seed, P=2, B=4,
                      max_root_backlog=8, max_queue=40, epoch=4,
                      tenants=tenants)
    report = ServiceLoop(cfg).run()
    m = report.metrics
    last_admit = [0, 0]
    for gid, step in m.admit_step.items():
        tid = m.tenant_of[gid]
        last_admit[tid] = max(last_admit[tid], step)
    # Skip the start-up transient (hot floods before light's lane
    # fills; work-conserving DRR rightly gives it the idle capacity).
    lo, hi = 5, min(last_admit)
    counts = [0, 0]
    for gid, step in m.admit_step.items():
        if lo <= step <= hi:
            counts[m.tenant_of[gid]] += 1
    assert counts[0] > 0 and counts[1] > 0
    ratio = counts[0] / counts[1]
    assert 1 / 1.25 <= ratio <= 1.25
    # The hot tenant absorbs its own overload at its lane bound.
    assert tenant_row(report, "hot")["shed"] > 0


@pytest.mark.parametrize("seed", [1, 9, 21])
def test_slo_sheds_hot_tenant_first_and_isolates_light(seed):
    """An SLO-violating hot tenant is purged and door-closed; the light
    tenant is never shed and keeps (nearly) its solo-run tail latency.

    The p99 bound allows a 3-step absolute slack on top of the 10%:
    solo p99 here is ~5 steps, so pure ratio would demand sub-step
    resolution the DAM model does not have.
    """
    light = TenantSpec(name="light", rate=1.0, messages=40)
    hot = TenantSpec(name="hot", rate=40.0, messages=800, slo_sojourn=4,
                     buffer_quota=2)
    base = dict(shards=2, seed=seed, P=4, B=8, max_root_backlog=16,
                max_queue=60, epoch=2)
    solo = ServiceLoop(
        ServeConfig(messages=40, tenants=(light,), **base)).run()
    mix = ServiceLoop(
        ServeConfig(messages=840, tenants=(light, hot), **base)).run()
    hot_row, light_row = tenant_row(mix, "hot"), tenant_row(mix, "light")
    assert hot_row["slo"]["trips"] >= 1
    assert hot_row["shed"] > 0
    assert light_row["shed"] == 0
    solo_p99 = tenant_row(solo, "light")["sojourn"]["p99"]
    assert light_row["sojourn"]["p99"] <= solo_p99 * 1.1 + 3


def test_quota_bounds_resident_messages_every_step():
    quota = 3
    tenants = (
        TenantSpec(name="q", rate=20.0, messages=200, buffer_quota=quota),
        TenantSpec(name="free", rate=4.0, messages=50),
    )
    cfg = ServeConfig(messages=250, shards=2, seed=9, P=2, B=8,
                      max_root_backlog=32, max_queue=400, tenants=tenants)

    peaks = []

    class CheckedLoop(ServiceLoop):
        def _meter(self, t):
            super()._meter(t)
            for engine in self.engines:
                resident = sum(
                    1 for gid in engine.location
                    if self.metrics.tenant_of.get(gid) == 0
                )
                peaks.append(resident)

    report = CheckedLoop(cfg).run()
    assert max(peaks) <= quota
    assert tenant_row(report, "q")["completed"] == 200  # held, not lost


def test_epoch_ledger_conserves_per_tenant():
    tenants = make_tenants(2, 400, rates=[30.0, 3.0])
    cfg = ServeConfig(messages=400, shards=2, seed=3, P=2, B=4,
                      max_root_backlog=8, max_queue=32, epoch=4,
                      tenants=tenants)
    loop = ServiceLoop(cfg)
    loop.run()
    ledger = loop._tenancy.epoch_ledger
    assert ledger, "epoch boundaries must record ledger rows"
    prev = [0, 0]
    for row in ledger:
        for tid, t in enumerate(row["tenants"]):
            assert t["arrived"] == (
                t["completed"] + t["shed"] + t["in_flight"])
            assert t["in_flight"] >= 0
            assert t["arrived"] >= prev[tid]  # monotone
            prev[tid] = t["arrived"]


# ----------------------------------------------------------------------
# Cross-driver parity, chaos conservation, recovery
# ----------------------------------------------------------------------

def tenant_config(**overrides):
    tenants = make_tenants(2, 200, rates=[10.0, 3.0], weights=[2.0, 1.0])
    base = dict(arrivals="poisson", messages=200, shards=4, seed=3, P=3,
                B=8, epoch=4, checkpoint_every=4, tenants=tenants)
    base.update(overrides)
    return ServeConfig(**base)


def test_tenancy_journals_byte_identical_across_drivers(tmp_path):
    cfg = tenant_config()
    paths = [tmp_path / f"j{i}" for i in range(3)]
    inproc = ServiceLoop(cfg, journal=paths[0]).run()
    single = ProcPoolLoop(cfg, processes=1, journal=paths[1]).run()
    procs = ProcPoolLoop(cfg, processes=2, journal=paths[2]).run()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() == paths[2].read_bytes()
    assert inproc.completions == single.completions == procs.completions
    assert (inproc.snapshot["tenants"] == single.snapshot["tenants"]
            == procs.snapshot["tenants"])


def test_sigkill_chaos_conserves_per_tenant_counts():
    plan = ChaosPlan((ChaosEvent(13, CHAOS_KILL_WORKER, 2),))
    cfg = tenant_config()
    loop = ProcPoolLoop(cfg, processes=2, chaos=plan)
    report = loop.run()
    assert report.supervisor.worker_deaths >= 1
    for row in report.snapshot["tenants"]:
        assert row["arrived"] == row["completed"] + row["shed"]
        assert row["in_flight"] == 0
    assert sum(r["arrived"] for r in report.snapshot["tenants"]) == 200
    for row in loop._tenancy.epoch_ledger:
        for t in row["tenants"]:
            assert t["in_flight"] >= 0


def test_recovery_rebuilds_tenants_from_meta(tmp_path):
    cfg = tenant_config()
    path = tmp_path / "serve.journal"
    report = ServiceLoop(cfg, journal=path).run()
    killed = truncate_at(path, path.stat().st_size // 2,
                         out=tmp_path / "killed.journal")
    rec = recover_serve(killed)
    assert not rec.run_completed
    assert rec.report.config.tenants == cfg.tenants
    assert rec.report.completions == report.completions
    assert rec.report.snapshot["tenants"] == report.snapshot["tenants"]


# ----------------------------------------------------------------------
# /metrics endpoint
# ----------------------------------------------------------------------

def test_metrics_endpoint_serves_provider_json():
    payload = {"counters": {"x": 1}, "tenants": [{"tenant": "t0"}]}
    ep = MetricsEndpoint(lambda: payload, port=0)
    try:
        with urllib.request.urlopen(ep.url, timeout=5) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == "application/json"
            assert json.loads(resp.read()) == payload
        root = ep.url.rsplit("/", 1)[0] + "/"
        with urllib.request.urlopen(root, timeout=5) as resp:
            assert json.loads(resp.read()) == payload
    finally:
        ep.close()


def test_metrics_endpoint_degrades_to_503_and_404():
    def bad_provider():
        raise RuntimeError("torn read")

    ep = MetricsEndpoint(bad_provider, port=0)
    try:
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(ep.url, timeout=5)
        assert exc.value.code == 503
        assert "error" in json.loads(exc.value.read())
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(ep.url.replace("/metrics", "/nope"),
                                   timeout=5)
        assert exc.value.code == 404
    finally:
        ep.close()


# ----------------------------------------------------------------------
# SLO purge vs worker death: the directive must survive a lost chunk
# ----------------------------------------------------------------------

def _slo_chaos_config(seed=5):
    """A hot SLO tenant that trips early (t=11 at seed 5) with plenty
    of post-trip runway, so a chaos kill can land on the very chunk
    that carries the purge directive."""
    light = TenantSpec(name="light", rate=1.0, messages=40)
    hot = TenantSpec(name="hot", rate=40.0, messages=800, slo_sojourn=4,
                     buffer_quota=2)
    return ServeConfig(messages=840, tenants=(light, hot), shards=2,
                       seed=seed, P=4, B=8, max_root_backlog=16,
                       max_queue=60, epoch=2, checkpoint_every=4)


def test_purge_debt_survives_lost_chunk_and_redelivers():
    """Exactly-once mechanics of the journal-checkpointed SLO door.

    The parent records per-shard purge debts at decision time and only
    settles them when a chunk that shipped them merges back; a worker
    death between dispatch and merge must leave the debt standing, and
    the re-delivered payload must be byte-identical to the lost one."""
    loop = ProcPoolLoop(_slo_chaos_config(), processes=2)
    loop._apply_slo({1}, [1], t=5)
    assert loop._door_version == 1
    assert all(debt == {1} for debt in loop._owed_purge)

    class Slot:  # only .door_seen is read by _slo_payload
        door_seen = 0

    slot = Slot()
    payload = loop._slo_payload(slot, [0])
    assert payload == {"door": [1], "purge": {0: [1]}}
    # a lost chunk changes no parent state: re-delivery is identical.
    assert loop._slo_payload(slot, [0]) == payload
    # a merged chunk settles the debt (what _dispatch_chunk does on
    # collect) -- after that, nothing ships for this slot.
    slot.door_seen = loop._door_version
    loop._owed_purge[0].clear()
    assert loop._slo_payload(slot, [0]) is None
    # a respawned slot is born at door version 0, so it re-receives the
    # door state and any debts still owed for its shards.
    fresh = Slot()
    assert loop._slo_payload(fresh, [1]) == {"door": [1], "purge": {1: [1]}}


@pytest.mark.parametrize("shard", [0, 1])
def test_kill_during_purge_dispatch_applies_purge_and_conserves(shard):
    """SIGKILL the worker executing the chunk that carries a purge
    directive (trip at t=11, kill at t=11): the respawned worker must
    still receive and apply the purge, counts must conserve exactly,
    and no debt may be left dangling at the end of the run."""
    plan = ChaosPlan((ChaosEvent(11, CHAOS_KILL_WORKER, shard),))
    loop = ProcPoolLoop(_slo_chaos_config(), processes=2, chaos=plan)
    report = loop.run()
    assert report.supervisor.worker_deaths >= 1
    hot = tenant_row(report, "hot")
    assert hot["slo"]["trips"] >= 1
    assert hot["shed"] > 0
    for row in report.snapshot["tenants"]:
        assert row["arrived"] == row["completed"] + row["shed"]
        assert row["in_flight"] == 0
    assert sum(r["arrived"] for r in report.snapshot["tenants"]) == 840
    # every recorded debt was settled by a merged chunk.
    assert all(not debt for debt in loop._owed_purge)


def test_kill_during_purge_journal_still_records_decisions(tmp_path):
    """The SLO decision is journaled by the parent before dispatch, so
    the record stream survives the worker death and recovery rebuilds
    the run to completion."""
    plan = ChaosPlan((ChaosEvent(11, CHAOS_KILL_WORKER, 1),))
    path = tmp_path / "purge.journal"
    report = ProcPoolLoop(_slo_chaos_config(), processes=2, chaos=plan,
                          journal=path).run()
    from repro.dam.journal import scan_journal
    slo = [r for r in scan_journal(path).records if r.get("type") == "slo"]
    assert any(r["purge"] for r in slo), "a purge decision must be journaled"
    assert min(r["t"] for r in slo) == 11
    rec = recover_serve(path)
    assert rec.run_completed
    assert rec.report.completions == report.completions
