"""The online/offline equivalence property (the PR's acceptance bar).

With a single shard and every arrival stamped at step 1, the serving
loop plans once at its first epoch boundary via the same paper pipeline
(reduction -> MPHTF -> Lemma 8 conversion) the batch path uses, packed
at the serving planner's ``B/3`` (the batch default is the paper's
``B/6``), and
:meth:`ShardEngine.step` applies the same admission gate as
:class:`GatedExecutor` — so the realized schedule, and therefore every
completion time, must be *identical* to the offline run.  Sojourn time
(completion - arrival + 1) then equals offline completion time exactly.
"""

from __future__ import annotations

import pytest

from repro.core.packed import build_packed_sets
from repro.core.reduction import reduce_to_scheduling
from repro.core.task_to_flush import task_schedule_to_flush_schedule
from repro.core.worms import WORMSInstance
from repro.dam.simulator import simulate
from repro.policies.executor import GatedExecutor
from repro.scheduling.mphtf import mphtf_schedule
from repro.serve import ServeConfig, ServiceLoop
from repro.serve.router import ShardRouter
from repro.tree.messages import Message


def offline_completions(cfg: ServeConfig, keys: "list[int]") -> dict:
    """Completion times of the identical workload through the batch path."""
    router = ShardRouter(1, cfg.key_space or 64, B=cfg.B, fanout=cfg.fanout,
                         height=cfg.height, leaves=cfg.leaves, eps=cfg.eps)
    spec = router.shards[0]
    msgs = [Message(i, router.route(k)[1]) for i, k in enumerate(keys)]
    inst = WORMSInstance(spec.topology, msgs, P=cfg.P, B=cfg.B)
    reduced = reduce_to_scheduling(inst, build_packed_sets(inst, denom=3))
    sigma = mphtf_schedule(reduced.scheduling)
    plan = task_schedule_to_flush_schedule(reduced, sigma)
    sched = GatedExecutor(inst).run([f for _t, f in plan.iter_timed()])
    sim = simulate(inst, sched)
    return {i: int(c) for i, c in enumerate(sim.completion_times)}


def serve_completions(cfg: ServeConfig):
    report = ServiceLoop(cfg).run()
    assert report.snapshot["shed"] == 0
    return report


@pytest.mark.parametrize("seed,n,P,B", [
    (0, 40, 2, 8),
    (7, 59, 3, 8),
    (13, 120, 4, 16),
])
def test_step1_arrivals_single_shard_equal_offline(seed, n, P, B):
    keys = [(seed * 31 + i * 11) % 64 for i in range(n)]
    trace = tuple((1, k) for k in keys)
    cfg = ServeConfig(arrivals="trace", trace=trace, messages=n, shards=1,
                      seed=seed, P=P, B=B,
                      max_root_backlog=10**9, max_queue=10**9)
    report = serve_completions(cfg)
    assert report.completions == offline_completions(cfg, keys)


def test_sojourn_equals_offline_completion_time():
    keys = [k % 64 for k in range(0, 300, 7)]
    trace = tuple((1, k) for k in keys)
    cfg = ServeConfig(arrivals="trace", trace=trace, messages=len(keys),
                      shards=1, seed=1, P=3, B=8,
                      max_root_backlog=10**9, max_queue=10**9)
    report = serve_completions(cfg)
    offline = offline_completions(cfg, keys)
    # All arrivals at step 1: sojourn == completion step.
    sojourns = {
        m: step - 1 + 1 for m, step in report.completions.items()
    }
    assert sojourns == offline


def test_balanced_tree_shards_also_equivalent():
    keys = [(5 + 13 * i) % 16 for i in range(50)]
    trace = tuple((1, k) for k in keys)
    cfg = ServeConfig(arrivals="trace", trace=trace, messages=len(keys),
                      shards=1, seed=3, P=2, B=4, fanout=2, height=3,
                      key_space=16,
                      max_root_backlog=10**9, max_queue=10**9)
    report = serve_completions(cfg)
    assert report.completions == offline_completions(cfg, keys)


def test_equivalence_breaks_gracefully_with_late_arrivals():
    """Sanity check on the property itself: staggered arrivals are NOT
    the offline special case, and completions must not be earlier than
    the offline lower envelope (time has to pass before late planning)."""
    keys = [k % 64 for k in range(40)]
    late = tuple((1 + (i % 5), k) for i, k in enumerate(keys))
    cfg = ServeConfig(arrivals="trace", trace=late, messages=len(keys),
                      shards=1, seed=2, P=2, B=8,
                      max_root_backlog=10**9, max_queue=10**9)
    report = serve_completions(cfg)
    assert report.snapshot["completed"] == len(keys)
    # Global ids are assigned in arrival order (step-ascending, stable),
    # not trace order.  A message arriving at step s cannot complete
    # before step s.
    steps = sorted(s for s, _k in late)
    for gid, s in enumerate(steps):
        assert report.completions[gid] >= s
